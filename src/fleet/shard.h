// Streaming shard generation: the types `run_fleet(config, shard, sink)`
// produces and consumes.
//
// The canonical window sequence is hour-major, rack-minor: window w covers
// hour (w / racks) and rack (w % racks), racks numbered RegA then RegB —
// exactly the order the original serial sweep used.  A ShardSpec owns a
// contiguous slice of that sequence; the runner simulates the slice's
// windows concurrently and commits each completed window's records to a
// WindowSink strictly in canonical order, so a sink can write to disk (or
// fold incrementally) without ever holding the whole day in RAM.
//
// DatasetBuilder is the standard in-memory sink: it accumulates one
// shard's records into a `Dataset` whose shard header `merge_shards`
// (fleet/merge.h) later validates and folds — byte-identical to a
// single-process run.  SpillSink (fleet/spill_sink.h) is the disk-backed
// one; both build the same head through `shard_head` and `add_window`.
#pragma once

#include <cstddef>
#include <vector>

#include "fleet/dataset.h"
#include "workload/placement.h"

namespace msamp::fleet {

/// Exemplar-candidate bits carried by a window (Figure 5 capture; the
/// first qualifying window in canonical order wins).
constexpr std::uint8_t kLowExemplar = 1;
constexpr std::uint8_t kHighExemplar = 2;

/// Everything one (region, hour, rack) window contributes to the Dataset.
struct WindowRecords {
  bool has_run = false;
  RackRunRecord rack_run;
  std::vector<ServerRunRecord> server_runs;
  std::vector<BurstRecord> bursts;
  std::uint8_t exemplar_kind = 0;  ///< kLowExemplar / kHighExemplar bits
  ExemplarRun exemplar;

  WindowCounts counts() const {
    WindowCounts c;
    c.has_run = has_run ? 1 : 0;
    c.server_runs = static_cast<std::uint32_t>(server_runs.size());
    c.bursts = static_cast<std::uint32_t>(bursts.size());
    return c;
  }
};

/// Receives each completed window of a shard, strictly in canonical
/// window order.  Calls are always serial (never concurrent), but each
/// arrives on whichever pool lane is committing at the time — on the
/// calling thread only in single-lane runs — so a sink must not assume
/// thread identity (thread-locals, thread-affine handles).  An exception
/// thrown here ends the run: no later window is delivered, and `run_fleet`
/// rethrows it.
/// Implementations decide what to keep: DatasetBuilder accumulates in
/// RAM; a custom sink can stream straight to disk or fold running
/// statistics.
class WindowSink {
 public:
  virtual ~WindowSink() = default;
  /// `window` is the absolute canonical window index (not shard-relative).
  virtual void on_window(std::size_t window, WindowRecords&& records) = 0;
};

/// The deterministic rack table both regions contribute for `config`
/// (placement only; cheap).  Every shard regenerates the identical table,
/// which is what lets partial datasets carry the full rack list.
std::vector<workload::RackMeta> fleet_racks(const FleetConfig& config);

/// The `Dataset::racks` table for `config`: `fleet_racks` distilled into
/// serializable RackInfo records with the classification fields zeroed.
/// Shared by every sink (DatasetBuilder, SpillSink) so each shard carries
/// the identical table, which `merge_shards` validates.
std::vector<RackInfo> dataset_rack_table(const FleetConfig& config);

/// A shard's Dataset before its first window: fingerprint, config, shard
/// header, window range and the rack table, no records.  Throws
/// std::invalid_argument on an invalid shard.
Dataset shard_head(const FleetConfig& config, ShardSpec shard);

/// Appends what one window adds to a shard's head: its count entry, its
/// rack run, and its exemplar if it is the first qualifying one in
/// canonical order (moved out of `records`).  Server runs and bursts are
/// left to the caller, which keeps them in RAM or spills them.  Throws
/// std::logic_error unless `window` is the next window of the range.
void add_window(Dataset& ds, std::size_t window, WindowRecords& records);

/// Sink that assembles one shard's stream into a `Dataset` with a filled
/// shard header.  For the full-range shard, `take()` also runs the
/// busy-hour classification, matching the historic `run_fleet` output;
/// partial shards leave classification to `merge_shards`.
class DatasetBuilder final : public WindowSink {
 public:
  explicit DatasetBuilder(const FleetConfig& config, ShardSpec shard = {});

  /// Windows must arrive in canonical order with no gaps (the runner
  /// guarantees this); anything else throws std::logic_error.
  void on_window(std::size_t window, WindowRecords&& records) override;

  /// Finalizes and returns the dataset.  Call once, after `run_fleet`.
  Dataset take();

 private:
  Dataset ds_;
};

/// Recomputes every rack's busy-hour average contention and measured
/// class from `ds.rack_runs` (§7.1 bimodal split), using
/// `ds.config.classify`.  Requires full-day coverage to be meaningful;
/// the full-range DatasetBuilder and SpillSink and `merge_shards` call
/// it, which is what keeps merged bytes identical to a single-process
/// run.
void finalize_classification(Dataset& ds);

}  // namespace msamp::fleet
