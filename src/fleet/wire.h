// The dataset file format (v6) and its one encoder.
//
// v6 is columnar: the file is a fixed header plus six sections (window
// directory, racks, rack runs, server runs, bursts, exemplars).  Each
// record section stores one page-aligned, fixed-width little-endian column
// per field, so `Dataset::open_mapped` can hand out typed spans straight
// over the mapping — zero copies, bounded RSS — while the window directory
// (per-window counts plus running record offsets) gives O(1) window
// slicing.  Every column value is written member by member: the file never
// contains compiler-inserted padding, which is what lets shards generated
// in different processes merge into bytes identical to a single-process
// run.  Gap bytes between columns are always zero.
//
// Everything that knows where a byte goes lives here: the layout
// arithmetic, the header codec, the column appenders, and `write_file` /
// `encode`, the only code that writes a v6 file.  `Dataset::serialize` and
// `Dataset::save`, `SpillSink::finalize` and `merge_shards` all call it;
// they differ only in where the two bulky sections (server runs and
// bursts) come from — owned records, spill files (`ColumnSpill`) or mapped
// shard files (`ShardColumns`).  The one decoder is DatasetView
// (fleet/dataset_view.h), which parses the header with `read_header_v6`.
//
// This header is wire-format code for msamp_lint purposes: whole-struct
// `sizeof(<RecordType>)` copies are banned here exactly as in dataset.cc
// (the codec templates' `sizeof(T)` is guarded by the static_asserts).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "fleet/dataset.h"
#include "fleet/dataset_view.h"
#include "util/status.h"

namespace msamp::fleet::wire {

inline constexpr std::uint32_t kMagic = 0x4d464c54;  // "MFLT"
// Wire-format version.  Bump whenever the serialized layout changes (new
// fields, reordered fields, record shape changes): old cache files then
// fail to parse and are regenerated.  v4 and v5 were row-wise layouts; no
// reader for them remains, so such a file fails closed with "unsupported
// dataset version".
inline constexpr std::uint32_t kVersion = 6;

/// Every column starts on a page boundary: mmap'd spans are naturally
/// aligned for their element type and readahead streams whole columns.
inline constexpr std::uint64_t kSegmentAlign = 4096;

/// Widest column element the v6 format stores (u64/i64/double). SIMD loads
/// over mapped columns rely on column offsets — and the mapping base —
/// being at least this aligned; DatasetView::init rejects a misaligned
/// base with a util::Status instead of handing out UB spans.
inline constexpr std::uint64_t kMaxColumnAlign = 8;
static_assert(kSegmentAlign % kMaxColumnAlign == 0,
              "page-aligned columns must imply element alignment");
static_assert(kMaxColumnAlign >= alignof(double) &&
                  kMaxColumnAlign >= alignof(std::uint64_t),
              "kMaxColumnAlign must cover the widest column element");

constexpr std::uint64_t align_segment(std::uint64_t off) {
  return (off + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
}

struct Writer {
  std::vector<std::uint8_t> out;
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(!std::is_class_v<T>, "serialize records field by field");
    const auto old = out.size();
    out.resize(old + sizeof(T));
    std::memcpy(out.data() + old, &v, sizeof(T));
  }
  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T> && !std::is_class_v<T>);
    put(static_cast<std::uint64_t>(v.size()));
    const auto old = out.size();
    out.resize(old + v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(out.data() + old, v.data(), v.size() * sizeof(T));
  }
};

/// Bounds-checked reader over a byte range (a header prefix, or the
/// exemplar section of a mapped file).
struct Reader {
  Reader(const std::uint8_t* bytes, std::size_t count)
      : data(bytes), size(count) {}
  explicit Reader(const std::vector<std::uint8_t>& blob)
      : data(blob.data()), size(blob.size()) {}
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  template <typename T>
  bool get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(!std::is_class_v<T>, "deserialize records field by field");
    if (pos + sizeof(T) > size) return false;
    std::memcpy(v, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
  template <typename T>
  bool get_vec(std::vector<T>* v) {
    std::uint64_t n = 0;
    if (!get(&n)) return false;
    if (n > (size - pos) / sizeof(T)) return false;
    v->resize(static_cast<std::size_t>(n));
    if (n != 0) {
      std::memcpy(v->data(), data + pos,
                  static_cast<std::size_t>(n) * sizeof(T));
      pos += static_cast<std::size_t>(n) * sizeof(T);
    }
    return true;
  }
  std::size_t remaining() const { return size - pos; }
};

// --- v6 columnar layout ------------------------------------------------

/// v6 sections, in file order.
enum Section : std::size_t {
  kSecWindows = 0,   ///< per-window counts + running record offsets
  kSecRacks = 1,     ///< RackInfo columns (full rack table, every shard)
  kSecRackRuns = 2,  ///< RackRunRecord columns
  kSecServerRuns = 3,  ///< ServerRunRecord columns
  kSecBursts = 4,    ///< BurstRecord columns
  kSecExemplars = 5,  ///< two row-encoded ExemplarRun payloads (tiny)
  kNumSections = 6,
};

// Per-section column byte widths, in record field order.  The window
// directory's columns are: has_run u8, server_runs u32, bursts u32, then
// the shard-local running record offsets run_off/server_off/burst_off u64
// (prefix sums of the counts; first window is 0), which give O(1) window
// slicing.
inline constexpr std::size_t kWindowDirWidths[] = {1, 4, 4, 8, 8, 8};
inline constexpr std::size_t kRackWidths[] = {4, 1, 1, 2, 4, 4, 4, 1};
inline constexpr std::size_t kRackRunWidths[] = {4, 1, 1, 1, 4, 2, 2, 2,
                                                 8, 8, 8};
inline constexpr std::size_t kServerRunWidths[] = {4, 1, 1, 1, 4,
                                                   4, 4, 4, 4, 4};
inline constexpr std::size_t kBurstWidths[] = {4, 1, 1, 2, 4, 2, 4, 1, 1};

inline constexpr std::size_t kWindowDirCols = std::size(kWindowDirWidths);
inline constexpr std::size_t kRackCols = std::size(kRackWidths);
inline constexpr std::size_t kRackRunCols = std::size(kRackRunWidths);
inline constexpr std::size_t kServerRunCols = std::size(kServerRunWidths);
inline constexpr std::size_t kBurstCols = std::size(kBurstWidths);

/// Record counts that fully determine a v6 file's layout (plus the byte
/// length of the row-encoded exemplar section, which is data-dependent).
struct SectionCounts {
  std::uint64_t windows = 0;
  std::uint64_t racks = 0;
  std::uint64_t rack_runs = 0;
  std::uint64_t server_runs = 0;
  std::uint64_t bursts = 0;
  std::uint64_t exemplar_bytes = 0;
};

/// One section-directory entry: absolute offset of the section's first
/// column and total section bytes (last column end minus first offset).
struct SectionExtent {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

/// The complete byte layout of a v6 file, derived deterministically from
/// the section counts: column offsets are assigned in section/field order,
/// each aligned up to kSegmentAlign.
struct V6Layout {
  std::uint64_t header_bytes = 0;
  std::array<std::vector<std::uint64_t>, kNumSections> columns;
  std::array<SectionExtent, kNumSections> dir{};
  std::uint64_t file_bytes = 0;
};

/// Size of the fixed v6 prefix: magic, version, fingerprint, config,
/// shard index/count, window range, four record-count u64s, and the
/// section directory.
std::size_t header_bytes_v6();

/// Serialized size of the FleetConfig codec.
std::size_t config_wire_size();

/// Everything in the fixed v6 prefix.  `counts.exemplar_bytes` mirrors
/// `dir[kSecExemplars].bytes` (the count fields on the wire are only the
/// four record counts; the window count is `window_end - window_begin`).
struct V6Header {
  std::uint64_t fingerprint = 0;
  FleetConfig config;
  ShardSpec shard;
  std::uint64_t window_begin = 0;
  std::uint64_t window_end = 0;
  SectionCounts counts;
  std::array<SectionExtent, kNumSections> dir{};
};

/// Parses and validates a v6 fixed prefix from the first `available` bytes
/// of a file whose total size is `file_size`.  On success fills `h` and
/// `layout` (recomputed from the counts) after checking: magic/version
/// (anything but v6 is "unsupported dataset version N"), config decode, a
/// canonical shard window range, a complete rack table
/// (2 * racks_per_region entries), directory == recomputed layout, and
/// `file_size` == layout end.  The error Status carries the failing byte
/// offset; the caller attaches the path.
util::Status read_header_v6(const std::uint8_t* data, std::size_t available,
                            std::uint64_t file_size, V6Header* h,
                            V6Layout* layout);

/// FleetConfig travels with the dataset so a merge (and `report`/`query`)
/// can see the scale and classification knobs without re-supplying them.
/// `threads` is deliberately not serialized: it is execution detail,
/// never data.
void put_config(Writer& w, const FleetConfig& c);
bool get_config(Reader& r, FleetConfig* c);

bool get_exemplar(Reader& r, ExemplarRun* e);

// --- the encoder -------------------------------------------------------

/// Where the encoder's bytes go: an in-memory blob, or a file written
/// through a buffer flushed every kChunkBytes.  Tracks the absolute file
/// position, so every column lands exactly where the layout says.
class ColumnOut {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  /// Writes to `file` when non-null, else accumulates in memory.
  explicit ColumnOut(std::ofstream* file = nullptr);

  template <typename T>
  void put(const T& v) {
    buf_.put(v);
    if (file_ != nullptr && buf_.out.size() >= kChunkBytes) flush();
  }
  /// Appends `n` raw bytes (a whole column copied from elsewhere).
  void write(const void* data, std::size_t n);
  /// Zero-fills up to absolute offset `target` (the next column's page);
  /// aborts if `target` lies behind the current position.
  void pad_to(std::uint64_t target);

  std::uint64_t pos() const { return flushed_ + buf_.out.size(); }
  /// Pushes the buffer to the file; false once any file write failed.
  bool flush();
  /// The accumulated bytes of an in-memory output.
  std::vector<std::uint8_t> take() { return std::move(buf_.out); }

  void reserve(std::uint64_t bytes);

 private:
  std::ofstream* file_;
  Writer buf_;
  std::uint64_t flushed_ = 0;
};

/// Source of a file's two bulky sections, kSecServerRuns and kSecBursts:
/// their row counts and, column by column, their bytes.
class BulkColumns {
 public:
  virtual ~BulkColumns() = default;
  virtual std::uint64_t rows(Section section) const = 0;
  /// Appends every value of column `col` of `section` to `out`.
  virtual util::Status write(Section section, std::size_t col,
                             ColumnOut& out) = 0;
};

/// Server-run and burst columns spilled to one file per column as windows
/// arrive (SpillSink), so the final file is a concatenation of spills and
/// a generation process never holds a shard's records.
class ColumnSpill final : public BulkColumns {
 public:
  /// Opens (truncating: a leftover from a crashed attempt is discarded)
  /// `<prefix>-servers-cN` and `<prefix>-bursts-cN`.  The in-RAM column
  /// buffers together stay near `chunk_bytes`.  Throws std::runtime_error
  /// when a spill file cannot be opened.
  ColumnSpill(const std::string& prefix, std::size_t chunk_bytes);
  /// Removes the spill files.
  ~ColumnSpill() override;

  ColumnSpill(const ColumnSpill&) = delete;
  ColumnSpill& operator=(const ColumnSpill&) = delete;

  void append(const std::vector<ServerRunRecord>& server_runs,
              const std::vector<BurstRecord>& bursts);
  /// Closes and deletes the spill files; no append or write may follow.
  void remove();

  std::uint64_t rows(Section section) const override;
  util::Status write(Section section, std::size_t col,
                     ColumnOut& out) override;

 private:
  struct Spill {
    std::filesystem::path path;
    std::ofstream file;
    Writer buf;
  };
  void flush(Spill& s);
  std::vector<Spill>& spills(Section section);

  std::size_t chunk_bytes_;
  std::size_t col_chunk_bytes_;
  std::vector<Spill> servers_;
  std::vector<Spill> bursts_;
  std::uint64_t server_rows_ = 0;
  std::uint64_t burst_rows_ = 0;
};

/// Server-run and burst columns of validated shard views in canonical
/// order (merge_shards): each merged column is the shards' columns
/// concatenated, copied straight from the mappings.
class ShardColumns final : public BulkColumns {
 public:
  explicit ShardColumns(std::span<const DatasetView> shards);

  std::uint64_t rows(Section section) const override;
  util::Status write(Section section, std::size_t col,
                     ColumnOut& out) override;

 private:
  std::span<const DatasetView> shards_;
  std::vector<V6Layout> layouts_;
};

/// Serializes `ds` to v6 in memory.
std::vector<std::uint8_t> encode(const Dataset& ds);

/// Writes `ds` as a v6 file: to `<path>.tmp`, then one atomic rename, so a
/// crash mid-write never leaves a truncated file at `path`.  Creates the
/// parent directory.  On failure `path` is untouched and the temp removed.
util::Status write_file(const std::string& path, const Dataset& ds);

/// As above, with the server-run and burst sections taken from `bulk`;
/// `head` supplies everything else (its own server_runs and bursts are
/// not read).
util::Status write_file(const std::string& path, const Dataset& head,
                        BulkColumns& bulk);

}  // namespace msamp::fleet::wire
