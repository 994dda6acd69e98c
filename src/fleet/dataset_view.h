// Zero-copy, mmap-backed view of a v6 dataset file: the format's one
// decoder (its one encoder is fleet/wire.h).
//
// Materializing every record into RAM is fine for the scaled-down default
// day and impossible for the cluster-scale days the orchestrator can
// generate (the paper's full experiment is a 2-region x 1000-rack x
// 24-hour day).  DatasetView instead maps the file read-only and hands
// out typed `std::span`s directly over the mapping:
// the v6 columns are page-aligned and fixed-width, so a span is just
// (base + column offset, count) — no per-record copies, and RSS is
// bounded by the pages the kernel keeps resident, not by file size.
//
// All validation happens once at open (header, section directory vs the
// layout the counts imply, window-directory prefix sums, exemplar
// decode); after that every accessor is a bounds-free pointer add.  The
// view is move-only and unmaps on destruction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/rack_classify.h"
#include "fleet/dataset.h"
#include "util/status.h"

namespace msamp::fleet {

/// One typed column per field, all the same length.  `operator[]`
/// materializes a record for call sites that want row access; hot loops
/// should read the individual spans instead (that is the point of v6).
struct RackInfoColumns {
  std::span<const std::uint32_t> rack_id;
  std::span<const std::uint8_t> region;
  std::span<const std::uint8_t> ml_dense;
  std::span<const std::uint16_t> distinct_tasks;
  std::span<const float> dominant_share;
  std::span<const float> intensity;
  std::span<const float> busy_hour_avg_contention;
  std::span<const std::uint8_t> rack_class;

  std::size_t size() const { return rack_id.size(); }
  RackInfo operator[](std::size_t i) const;
};

struct RackRunColumns {
  std::span<const std::uint32_t> rack_id;
  std::span<const std::uint8_t> region;
  std::span<const std::uint8_t> hour;
  std::span<const std::uint8_t> usable;
  std::span<const float> avg_contention;
  std::span<const std::uint16_t> min_active_contention;
  std::span<const std::uint16_t> p90_contention;
  std::span<const std::uint16_t> max_contention;
  std::span<const double> in_bytes;
  std::span<const double> drop_bytes;
  std::span<const double> ecn_bytes;

  std::size_t size() const { return rack_id.size(); }
  RackRunRecord operator[](std::size_t i) const;
  RackRunColumns slice(std::size_t off, std::size_t n) const;
};

struct ServerRunColumns {
  std::span<const std::uint32_t> rack_id;
  std::span<const std::uint8_t> region;
  std::span<const std::uint8_t> hour;
  std::span<const std::uint8_t> bursty;
  std::span<const float> avg_util;
  std::span<const float> util_inside;
  std::span<const float> util_outside;
  std::span<const float> bursts_per_sec;
  std::span<const float> conns_inside;
  std::span<const float> conns_outside;

  std::size_t size() const { return rack_id.size(); }
  ServerRunRecord operator[](std::size_t i) const;
  ServerRunColumns slice(std::size_t off, std::size_t n) const;
};

struct BurstColumns {
  std::span<const std::uint32_t> rack_id;
  std::span<const std::uint8_t> region;
  std::span<const std::uint8_t> hour;
  std::span<const std::uint16_t> len_ms;
  std::span<const float> volume_bytes;
  std::span<const std::uint16_t> max_contention;
  std::span<const float> avg_conns;
  std::span<const std::uint8_t> contended;
  std::span<const std::uint8_t> lossy;

  std::size_t size() const { return rack_id.size(); }
  BurstRecord operator[](std::size_t i) const;
  BurstColumns slice(std::size_t off, std::size_t n) const;
};

/// The per-window directory: counts plus shard-local running record
/// offsets (prefix sums; window 0 of the shard starts at offset 0).
struct WindowDirColumns {
  std::span<const std::uint8_t> has_run;
  std::span<const std::uint32_t> server_runs;
  std::span<const std::uint32_t> bursts;
  std::span<const std::uint64_t> run_off;
  std::span<const std::uint64_t> server_off;
  std::span<const std::uint64_t> burst_off;

  std::size_t size() const { return has_run.size(); }
  WindowCounts operator[](std::size_t i) const {
    return {has_run[i], server_runs[i], bursts[i]};
  }
};

/// The canonical identity of one window: hour-major, rack-minor, racks
/// numbered RegA then RegB (see fleet/shard.h).
struct WindowKey {
  std::uint8_t region = 0;  ///< workload::RegionId as stored in records
  std::uint8_t hour = 0;
  std::uint32_t rack_id = 0;       ///< global rack id (RegB offset applied)
  std::uint32_t rack_ordinal = 0;  ///< index into the rack table
};

/// One window's slice of the dataset: its key, and column slices holding
/// exactly this window's records (zero-length when the window produced
/// none).
struct WindowView {
  std::uint64_t index = 0;  ///< absolute canonical window index
  WindowKey key;
  bool has_run = false;
  RackRunColumns rack_run;  ///< size() == has_run ? 1 : 0
  ServerRunColumns server_runs;
  BurstColumns bursts;

  WindowCounts counts() const;
};

/// Read-only handle over a v6 dataset file (or an in-memory blob).
/// Move-only; owns the mapping when opened from a path.
class DatasetView {
 public:
  DatasetView() = default;
  ~DatasetView();
  DatasetView(DatasetView&& other) noexcept;
  DatasetView& operator=(DatasetView&& other) noexcept;
  DatasetView(const DatasetView&) = delete;
  DatasetView& operator=(const DatasetView&) = delete;

  /// Maps `path` read-only and validates it.  On failure the view is
  /// empty (`ok() == false`) and the Status names path/offset/reason.
  static util::Status open(const std::string& path, DatasetView* out);

  /// Attaches to caller-owned bytes (a serialized blob) without mapping.
  /// The bytes must outlive the view.
  static util::Status attach(const std::uint8_t* data, std::size_t size,
                             DatasetView* out);

  bool ok() const { return data_ != nullptr; }
  void close();

  std::uint64_t fingerprint() const { return fingerprint_; }
  const FleetConfig& config() const { return config_; }
  ShardSpec shard() const { return shard_; }
  std::uint64_t window_begin() const { return window_begin_; }
  std::uint64_t window_end() const { return window_end_; }
  /// Windows covered by this file (shard slice).
  std::size_t num_windows() const { return windows_.size(); }
  /// Windows in the whole canonical day for this config.
  std::uint64_t total_windows() const;

  /// The `ordinal`-th covered window (0-based within the shard slice).
  WindowView window(std::size_t ordinal) const;
  /// Canonical key of an absolute window index (need not be covered).
  WindowKey key_of(std::uint64_t absolute_index) const;

  const WindowDirColumns& windows() const { return windows_; }
  const RackInfoColumns& racks() const { return racks_; }
  const RackRunColumns& rack_runs() const { return rack_runs_; }
  const ServerRunColumns& server_runs() const { return server_runs_; }
  const BurstColumns& bursts() const { return bursts_; }
  const ExemplarRun& low_contention_example() const { return low_; }
  const ExemplarRun& high_contention_example() const { return high_; }

  /// Measured class of a rack (RegA-Typical / RegA-High / RegB); mirrors
  /// Dataset::class_of.
  analysis::RackClass class_of(std::uint32_t rack_id) const;

  /// Materializes the rack table (tiny; used by the write-side adapter
  /// and table emitters that want rows).
  std::vector<RackInfo> rack_table() const;

  const std::string& path() const { return path_; }
  /// The validated file bytes (what the merge copies columns from).
  const std::uint8_t* data() const { return data_; }
  std::size_t mapped_bytes() const { return size_; }

 private:
  util::Status init(const std::uint8_t* data, std::size_t size,
                    std::string path);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_base_ = nullptr;  ///< non-null when this view owns an mmap
  std::size_t map_len_ = 0;

  std::uint64_t fingerprint_ = 0;
  FleetConfig config_;
  ShardSpec shard_;
  std::uint64_t window_begin_ = 0;
  std::uint64_t window_end_ = 0;
  WindowDirColumns windows_;
  RackInfoColumns racks_;
  RackRunColumns rack_runs_;
  ServerRunColumns server_runs_;
  BurstColumns bursts_;
  ExemplarRun low_;
  ExemplarRun high_;
  std::string path_;
};

}  // namespace msamp::fleet
