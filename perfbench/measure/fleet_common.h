// Pieces shared by the fleet-based workloads (fleet_day, cluster_day,
// query_mix): the benchmark day's scale, in-process generation of that
// day (optionally traced at the sink and progress boundaries), and the
// traced single-lane replay of sampled windows through the public layer
// calls, cross-checked against the generated dataset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "fleet/config.h"
#include "fleet/shard.h"
#include "trace.h"

namespace perfbench {

/// The benchmark day at `seed`: two regions of kRacksPerRegion racks,
/// 24 hourly windows of kSamples 1ms samples, simulated on `lanes` lanes.
msamp::fleet::FleetConfig day_config(std::uint64_t seed, int lanes);

/// Forwards windows to another sink inside `fleet.sink` spans, timing each
/// call and the idle gap before it.  It runs on the fleet runner's
/// consumer thread, so its spans name their parent explicitly.
class TracingSink final : public msamp::fleet::WindowSink {
 public:
  TracingSink(msamp::fleet::WindowSink& inner, Tracer& tracer, int parent);

  void on_window(std::size_t window,
                 msamp::fleet::WindowRecords&& records) override;

  const std::vector<double>& calls_ms() const { return calls_ms_; }
  const std::vector<double>& waits_ms() const { return waits_ms_; }

 private:
  msamp::fleet::WindowSink& inner_;
  Tracer& tracer_;
  int parent_;
  double last_;
  std::vector<double> calls_ms_;
  std::vector<double> waits_ms_;
};

/// One in-process generation of the day: run_fleet into a DatasetBuilder,
/// then Dataset::save.
struct DayRun {
  double wall_s = 0.0;  ///< run_fleet + take + save
  double cpu_s = 0.0;   ///< user+sys over the same interval
  std::size_t windows = 0;
  std::uint64_t bytes = 0;  ///< saved file size
  std::string digest;       ///< FNV-1a of the saved file
};

/// Generates the day into `path`.  With a tracer, the sink and progress
/// callback are wrapped and spans record the day, each sink call, the
/// idle time between sink calls, and the save; sink/progress statistics go
/// into `report`.  Output checks (progress contract) count as attempts.
DayRun generate_day(const msamp::fleet::FleetConfig& cfg,
                    const std::string& path, Tracer* tracer, Report& report);

/// Replays a seeded sample of the day's windows on one lane, in
/// simulate_window's order: FluidRack construction and run, the TcFilter
/// enable/process_batch/read_aggregated tally, combine_runs over the
/// clock-skewed records, and the contention and burst analyses.  Windows
/// are replayed until `budget_s` is spent (at least a handful).  Each
/// replayed window's contention summary and burst count are compared with
/// its records in the dataset at `dataset_path`, read through DatasetView;
/// a mismatch fails the run.  Per-layer metrics go into `report`.
void replay_windows(const msamp::fleet::FleetConfig& cfg,
                    const std::string& dataset_path, double budget_s,
                    std::uint64_t seed, Tracer& tracer, Report& report);

/// Placement alone (fleet_racks), in ms, as a span.
double time_placement(const msamp::fleet::FleetConfig& cfg, Tracer* tracer);

/// Records the day's digest, size and window count as check values named
/// `<prefix>.digest` and so on.
void check_day_outputs(const DayRun& day, Report& report,
                       const std::string& prefix = "dataset");

}  // namespace perfbench
