// Millisecond-granularity fluid simulation of one rack for one observation
// window.  Same admission arithmetic as net::SharedBuffer — the configured
// net::BufferSharingPolicy caps each queue's shared usage (Dynamic
// Threshold in the deployed fleet) — applied per 1ms step per queue, with:
//   * per-queue drain at server line rate;
//   * static-threshold ECN marking (fraction of the step the queue spent
//     above 120KB);
//   * drops of arrivals exceeding the DT limit, fed back to the workload
//     (rate cut + retransmission re-arrival a few ms later);
//   * every delivered byte pushed through a real core::TcFilter, so the
//     output is an honest SyncMillisampler run assembled by the same
//     combine/align/trim pipeline as the packet-level path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sync_controller.h"
#include "core/tc_filter.h"
#include "fleet/config.h"
#include "net/buffer_policy.h"
#include "util/rng.h"
#include "workload/burst_process.h"
#include "workload/placement.h"

namespace msamp::fleet {

/// Output of one rack window.
struct FluidRackResult {
  core::SyncRun sync;               ///< aligned per-server measurement
  std::int64_t offered_bytes = 0;   ///< bytes offered to the ToR downlinks
  std::int64_t delivered_bytes = 0; ///< bytes delivered to servers
  std::int64_t drop_bytes = 0;      ///< ToR congestion discards
  std::int64_t ecn_bytes = 0;       ///< CE-marked delivered bytes
  std::int64_t fabric_drop_bytes = 0;  ///< upstream fabric discards
};

/// The buffers one window's simulation and measurement need, kept so a
/// caller simulating window after window (a fleet runner lane) allocates
/// them once instead of once per window: the per-server tc filters (the
/// biggest, at filter_cpus x samples_per_run rows each), the read-out and
/// aligned series, and the per-step scratch columns.  Contents never carry
/// from one window to the next — every run resets or overwrites them — so
/// a window's result does not depend on what the workspace ran before.
/// Not thread-safe: one workspace per concurrent window.
class FluidWorkspace {
 private:
  friend class FluidRack;

  std::vector<core::TcFilter> filters_;
  std::vector<core::RunRecord> records_;   ///< read_aggregated outputs
  std::vector<std::uint64_t> tally_;       ///< read_aggregated accumulator
  FluidRackResult result_;                 ///< sync series reused by align

  // FluidRack::step scratch, sized per rack.
  std::vector<std::int64_t> shared_snapshot_;
  std::vector<std::int64_t> new_transient_;
  std::vector<int> quad_bursting_;
  std::vector<workload::StepDemand> demands_;
  std::vector<std::int64_t> demand_col_;
  std::vector<std::int64_t> demand_bytes_;
  std::vector<std::int64_t> limit_;
  std::vector<std::int64_t> qlen_;
  std::vector<std::int64_t> free_shared_;
  std::vector<std::int64_t> accepted_;
};

/// One-shot fluid simulation of a rack observation window.
class FluidRack {
 public:
  /// `hour` selects the diurnal multiplier; `rng` seeds all randomness.
  FluidRack(const workload::RackMeta& rack, const FleetConfig& config,
            int hour, util::Rng rng);

  /// Runs warmup + sampled window in `workspace` and returns the combined
  /// result, which lives in the workspace until its next run.
  const FluidRackResult& run(FluidWorkspace& workspace);

  /// Runs in a fresh workspace and returns the result by value.
  FluidRackResult run();

 private:
  struct Queue {
    std::int64_t len = 0;
    std::int64_t retx_part = 0;  ///< bytes of `len` that are retransmissions
    std::int64_t ecn_part = 0;   ///< bytes of `len` carrying CE
  };

  void step(sim::SimTime now, bool sampling, FluidRackResult* result,
            FluidWorkspace& ws);

  FleetConfig config_;  // by value: callers may pass temporaries
  util::Rng rng_;
  int num_servers_;
  std::int64_t drain_per_ms_;
  std::int64_t reserve_;
  std::int64_t shared_capacity_per_quadrant_;
  double alpha_;
  std::int64_t ecn_threshold_;
  /// The sharing discipline charging queues for shared-pool usage.  All
  /// policy state (e.g. kBurstAbsorbDt's arrival history) lives inside.
  std::unique_ptr<net::BufferSharingPolicy> policy_;
  std::vector<int> queues_per_quadrant_;

  std::vector<workload::BurstProcess> processes_;
  std::vector<Queue> queues_;
  std::vector<std::int64_t> shared_used_;  ///< per quadrant
  /// Sub-ms transient occupancy per quadrant: packets of every active
  /// queue interleave within the millisecond, so a slice of each queue's
  /// arrivals transiently occupies shared buffer even when the ms-average
  /// backlog is zero.  This is what couples rack contention to the DT
  /// limit every queue actually experiences (Figure 16's mechanism).
  std::vector<std::int64_t> quad_transient_;
  /// Which servers were bursting last step (per-quadrant collision counts).
  std::vector<std::uint8_t> bursting_prev_;
  /// Fabric stage: bytes buffered upstream per server, released next step.
  std::vector<std::int64_t> fabric_carry_;
  std::vector<sim::SimDuration> clock_offsets_;
};

}  // namespace msamp::fleet
