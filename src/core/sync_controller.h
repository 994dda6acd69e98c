// SyncMillisampler (§4.4): a centralized control plane that triggers
// concurrent Millisampler runs on every server of a rack, fetches the
// resulting records, aligns them onto a uniform time grid (linear
// interpolation) and trims to the overlapping window.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/interpolate.h"
#include "core/run_record.h"
#include "core/sampler.h"
#include "sim/simulator.h"

namespace msamp::core {

/// The combined, aligned result of one synchronized rack collection.
struct SyncRun {
  sim::SimTime grid_start = -1;      ///< time of sample 0 on the common grid
  sim::SimDuration interval = sim::kMillisecond;
  std::vector<net::HostId> hosts;    ///< one entry per server (row order)
  /// series[s][k] = server s, grid sample k.  Rows for servers that saw no
  /// traffic are all-zero.
  std::vector<std::vector<BucketSample>> series;

  std::size_t num_servers() const noexcept { return series.size(); }
  std::size_t num_samples() const noexcept {
    return series.empty() ? 0 : series.front().size();
  }
  sim::SimDuration duration() const noexcept {
    return interval * static_cast<sim::SimDuration>(num_samples());
  }
};

/// Builds a SyncRun out of per-host run records: the grid spans
/// [max(start), min(end)) over valid records.  Exposed separately from the
/// controller so the fleet-scale fluid simulator can reuse the exact same
/// combination step.
SyncRun combine_runs(const std::vector<RunRecord>& records);

/// `combine_runs` into a caller-owned SyncRun: every field of `out` is
/// overwritten, and its per-server series buffers are reused, so a SyncRun
/// kept across windows aligns without reallocating.
void combine_runs(const std::vector<RunRecord>& records, SyncRun& out);

/// The control plane.  Owns no samplers; it coordinates the ones passed in.
class SyncController {
 public:
  using Done = std::function<void(const SyncRun&)>;

  explicit SyncController(sim::Simulator& simulator) : simulator_(simulator) {}

  /// Registers a rack server's sampler.
  void add_sampler(Sampler* sampler) { samplers_.push_back(sampler); }

  /// Schedules a synchronized collection to start `lead_time` from now
  /// (the paper schedules far enough ahead that no periodic run overlaps).
  /// Each sampler samples at `interval`; `done` receives the aligned run.
  /// Returns false if a sync collection is already pending.
  bool collect(sim::SimDuration interval, sim::SimDuration lead_time,
               Done done);

  std::size_t num_samplers() const noexcept { return samplers_.size(); }

 private:
  sim::Simulator& simulator_;
  std::vector<Sampler*> samplers_;
  bool pending_ = false;
  std::size_t outstanding_ = 0;
  std::vector<RunRecord> records_;
  Done done_;
};

}  // namespace msamp::core
