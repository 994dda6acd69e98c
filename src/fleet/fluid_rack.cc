#include "fleet/fluid_rack.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "util/simd/simd.h"
#include "workload/diurnal.h"

namespace msamp::fleet {

// The SIMD stages below read StepDemand::bytes as a strided i64 column; pin
// the layout so a struct edit cannot silently skew the gather.
static_assert(std::is_standard_layout_v<workload::StepDemand>);
static_assert(offsetof(workload::StepDemand, bytes) == 0,
              "bytes must be the first StepDemand field");
static_assert(sizeof(workload::StepDemand) % sizeof(std::int64_t) == 0,
              "StepDemand must be a whole number of 64-bit words");

FluidRack::FluidRack(const workload::RackMeta& rack, const FleetConfig& config,
                     int hour, util::Rng rng)
    : config_(config), rng_(rng), num_servers_(static_cast<int>(rack.server_kind.size())) {
  drain_per_ms_ =
      static_cast<std::int64_t>(config.line_rate_gbps * 1e9 / 8.0 / 1000.0);
  reserve_ = config.buffer.reserve_per_queue;
  alpha_ = config.buffer.alpha;
  ecn_threshold_ = config.buffer.ecn_threshold;

  // Same shared-pool carve-out as net::SharedBuffer.
  const int quads = config.buffer.quadrants;
  int max_in_quadrant = 0;
  for (int q = 0; q < quads; ++q) {
    int cnt = 0;
    for (int i = q; i < num_servers_; i += quads) ++cnt;
    max_in_quadrant = std::max(max_in_quadrant, cnt);
  }
  shared_capacity_per_quadrant_ = std::max<std::int64_t>(
      0, config.buffer.total_bytes / quads - max_in_quadrant * reserve_);
  shared_used_.assign(static_cast<std::size_t>(quads), 0);
  quad_transient_.assign(static_cast<std::size_t>(quads), 0);
  bursting_prev_.assign(static_cast<std::size_t>(num_servers_), 0);
  fabric_carry_.assign(static_cast<std::size_t>(num_servers_), 0);
  policy_ = net::make_policy(config.buffer, num_servers_);
  queues_per_quadrant_.assign(static_cast<std::size_t>(quads), 0);
  for (int s = 0; s < num_servers_; ++s) {
    ++queues_per_quadrant_[static_cast<std::size_t>(s % quads)];
  }
  queues_.assign(static_cast<std::size_t>(num_servers_), Queue{});

  const double diurnal = workload::diurnal_multiplier(rack.region, hour);
  core::ClockModelConfig clock_cfg = config.clocks;
  util::Rng clock_rng = rng_.fork(0x17);
  core::ClockModel clocks(clock_cfg, num_servers_, clock_rng);

  processes_.reserve(static_cast<std::size_t>(num_servers_));
  clock_offsets_.reserve(static_cast<std::size_t>(num_servers_));
  for (int s = 0; s < num_servers_; ++s) {
    workload::BurstProcessConfig bp;
    bp.line_rate_gbps = config.line_rate_gbps;
    bp.rtt_ms = config.rtt_ms;
    bp.mss = config.mss;
    bp.diurnal = diurnal;
    bp.intensity = rack.intensity;
    const std::uint64_t flow_base =
        (static_cast<std::uint64_t>(rack.rack_id) << 32) |
        (static_cast<std::uint64_t>(s) << 20) | 1u;
    processes_.emplace_back(
        workload::profile_for(rack.server_kind[static_cast<std::size_t>(s)]),
        bp, flow_base, rng_.fork(static_cast<std::uint64_t>(s) + 100));
    clock_offsets_.push_back(clocks.offset(s));
  }
}

void FluidRack::step(sim::SimTime now, bool sampling, FluidRackResult* result,
                     FluidWorkspace& ws) {
  const int quads = static_cast<int>(shared_used_.size());
  // Snapshot shared occupancy (including last step's transient component)
  // so every queue sees the same DT limit this step — packets interleave
  // within the millisecond in reality.
  std::vector<std::int64_t>& shared_snapshot = ws.shared_snapshot_;
  shared_snapshot.resize(shared_used_.size());
  for (std::size_t q = 0; q < shared_used_.size(); ++q) {
    shared_snapshot[q] = shared_used_[q] + quad_transient_[q];
  }
  std::vector<std::int64_t>& new_transient = ws.new_transient_;
  new_transient.assign(shared_used_.size(), 0);

  // Simultaneously bursting servers per quadrant (last step's view): the
  // collision count for the sub-ms micro-drop model below.
  std::vector<int>& quad_bursting = ws.quad_bursting_;
  quad_bursting.assign(shared_used_.size(), 0);
  for (int s = 0; s < num_servers_; ++s) {
    if (bursting_prev_[static_cast<std::size_t>(s)] != 0) {
      ++quad_bursting[static_cast<std::size_t>(s % quads)];
    }
  }

  // Workload demands for this step; optionally shaped by the fabric stage
  // before they reach the ToR downlinks (§8.1).
  std::vector<workload::StepDemand>& demands = ws.demands_;
  demands.resize(static_cast<std::size_t>(num_servers_));
  for (int s = 0; s < num_servers_; ++s) {
    demands[static_cast<std::size_t>(s)] =
        processes_[static_cast<std::size_t>(s)].step();
  }
  if (config_.fabric.enabled) {
    // 1. Smoothing: a slice of each server's arrivals sits in the fabric's
    //    deep buffers for one step (bytes conserved via the carry).
    for (int s = 0; s < num_servers_; ++s) {
      auto& d = demands[static_cast<std::size_t>(s)];
      auto& carry = fabric_carry_[static_cast<std::size_t>(s)];
      const auto held = static_cast<std::int64_t>(
          config_.fabric.smoothing * static_cast<double>(d.bytes));
      const std::int64_t released = carry;
      carry = held;
      d.bytes = d.bytes - held + released;
      // Transit through the fabric's deep buffers also paces the packets:
      // the stream leaves clumpier senders smoother than it found them.
      d.smoothness =
          1.0 - (1.0 - d.smoothness) * (1.0 - config_.fabric.smoothing);
      // Holding back fresh bytes must not leave retx exceeding the total.
      d.retx_bytes = std::min(d.retx_bytes, d.bytes);
    }
    // 2. Uplink cap: the rack's aggregate arrival cannot exceed the trunk;
    //    the excess is discarded upstream (fabric congestion discards) and
    //    retransmitted by the senders like any other loss.
    const auto uplink_per_ms = static_cast<std::int64_t>(
        config_.fabric.uplink_gbps * 1e9 / 8.0 / 1000.0);
    constexpr std::size_t kDemandStride =
        sizeof(workload::StepDemand) / sizeof(std::int64_t);
    std::vector<std::int64_t>& demand_col = ws.demand_col_;
    demand_col.resize(demands.size());
    util::simd::gather_stride_i64(
        reinterpret_cast<const std::int64_t*>(demands.data()), kDemandStride,
        demands.size(), demand_col.data());
    const std::int64_t aggregate =
        util::simd::sum_i64(demand_col.data(), demand_col.size());
    if (aggregate > uplink_per_ms) {
      const double keep = static_cast<double>(uplink_per_ms) /
                          static_cast<double>(aggregate);
      for (int s = 0; s < num_servers_; ++s) {
        auto& d = demands[static_cast<std::size_t>(s)];
        const auto kept =
            static_cast<std::int64_t>(keep * static_cast<double>(d.bytes));
        const std::int64_t trimmed = d.bytes - kept;
        d.bytes = kept;
        d.retx_bytes = std::min(d.retx_bytes, kept);
        if (trimmed > 0) {
          processes_[static_cast<std::size_t>(s)].on_feedback(0.0, trimmed);
          if (result != nullptr) result->fabric_drop_bytes += trimmed;
        }
      }
    }
  }

  // --- admission limits under the configured sharing policy ---
  // Phase 1 walks the servers in order making the policy calls (their
  // internal-state update sequence must match the old fused loop exactly),
  // phase 2 hands the admission arithmetic to the element-wise SIMD kernel,
  // and phase 3 below replays the rest of the per-server pipeline. All the
  // math between the phases is integer, so the split is byte-identical.
  const auto n_servers = static_cast<std::size_t>(num_servers_);
  std::vector<std::int64_t>& demand_bytes = ws.demand_bytes_;
  std::vector<std::int64_t>& limit_v = ws.limit_;
  std::vector<std::int64_t>& qlen_v = ws.qlen_;
  std::vector<std::int64_t>& free_shared_v = ws.free_shared_;
  std::vector<std::int64_t>& accepted_v = ws.accepted_;
  demand_bytes.resize(n_servers);
  limit_v.resize(n_servers);
  qlen_v.resize(n_servers);
  free_shared_v.resize(n_servers);
  accepted_v.resize(n_servers);
  constexpr std::size_t kDemandStride =
      sizeof(workload::StepDemand) / sizeof(std::int64_t);
  util::simd::gather_stride_i64(
      reinterpret_cast<const std::int64_t*>(demands.data()), kDemandStride,
      n_servers, demand_bytes.data());
  for (int s = 0; s < num_servers_; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const Queue& q = queues_[si];
    const int quad = s % quads;
    const workload::StepDemand& d = demands[si];
    free_shared_v[si] = std::max<std::int64_t>(
        shared_capacity_per_quadrant_ -
            shared_snapshot[static_cast<std::size_t>(quad)],
        0);
    net::PolicyQueueState ps;
    ps.queue_len = q.len;
    ps.shared_len = std::max<std::int64_t>(q.len - reserve_, 0);
    ps.free_shared = free_shared_v[si];
    ps.shared_capacity = shared_capacity_per_quadrant_;
    ps.queues_in_quadrant = queues_per_quadrant_[static_cast<std::size_t>(quad)];
    ps.arriving_bytes = d.bytes;
    ps.drain_bytes_per_ms = drain_per_ms_;
    limit_v[si] = reserve_ + policy_->policy_limit(s, ps);
    // The whole step's demand is one arrival observation, accepted or not
    // (kBurstAbsorbDt keys burst freshness off offered demand).
    policy_->on_enqueue(s, d.bytes);
    qlen_v[si] = q.len;
  }
  // The queue drains while it fills, so up to (limit - len) + drain bytes
  // fit within the step: accepted = min(demand, max(limit - len, 0) + drain).
  util::simd::dt_admit_i64(demand_bytes.data(), limit_v.data(), qlen_v.data(),
                           drain_per_ms_, accepted_v.data(), n_servers);

  for (int s = 0; s < num_servers_; ++s) {
    auto& proc = processes_[static_cast<std::size_t>(s)];
    Queue& q = queues_[static_cast<std::size_t>(s)];
    const int quad = s % quads;

    const workload::StepDemand& d = demands[static_cast<std::size_t>(s)];

    const std::int64_t free_shared =
        free_shared_v[static_cast<std::size_t>(s)];
    const std::int64_t limit = limit_v[static_cast<std::size_t>(s)];
    std::int64_t accepted = accepted_v[static_cast<std::size_t>(s)];
    std::int64_t dropped = d.bytes - accepted;

    // Sub-millisecond collision drops: when several bursts share a
    // quadrant, their packet clumps interleave and momentarily poke above
    // the DT limit even though each queue's millisecond average fits.
    // The collision probability grows with the number of co-bursting
    // queues and with the burst's incast degree (many senders arrive in
    // tighter clumps); one collision costs about a clump of packets.
    // This is the mechanism behind Figures 16 and 19.
    const bool hot = accepted > drain_per_ms_ / 2;
    if (hot && quad_bursting[static_cast<std::size_t>(quad)] >
                   (bursting_prev_[static_cast<std::size_t>(s)] ? 1 : 0)) {
      const int others = quad_bursting[static_cast<std::size_t>(quad)] -
                         (bursting_prev_[static_cast<std::size_t>(s)] ? 1 : 0);
      const double incast = std::clamp(d.conns / 40.0, 0.15, 2.0);
      const double load = static_cast<double>(accepted) /
                          static_cast<double>(drain_per_ms_);
      // Paced (adapted) senders spread their packets over the RTT and
      // rarely collide; oblivious incast clumps collide often.  A policy
      // that grants this queue more headroom than deployed DT absorbs
      // clumps that would otherwise poke above the limit (and vice versa
      // for tighter policies like static partitioning).
      const double clumpiness = (1.0 - d.smoothness) * (1.0 - d.smoothness);
      const std::int64_t dt_limit =
          reserve_ + static_cast<std::int64_t>(
                         alpha_ * static_cast<double>(free_shared));
      const double headroom = std::clamp(
          static_cast<double>(dt_limit) /
              static_cast<double>(std::max<std::int64_t>(limit, 1)),
          0.25, 4.0);
      const double p_collision =
          std::min(0.30, 0.08 * others * incast * clumpiness *
                             std::min(load, 1.5) * headroom);
      if (rng_.bernoulli(p_collision)) {
        const auto clump = static_cast<std::int64_t>(
            std::min(static_cast<double>(accepted) * 0.5,
                     d.conns * static_cast<double>(config_.mss) *
                         rng_.uniform(0.5, 2.0)));
        accepted -= clump;
        dropped += clump;
      }
    }
    bursting_prev_[static_cast<std::size_t>(s)] = hot ? 1 : 0;

    // Retransmission content of the accepted bytes (proportional share).
    const std::int64_t accepted_retx =
        d.bytes > 0 ? static_cast<std::int64_t>(
                          static_cast<double>(d.retx_bytes) *
                          static_cast<double>(accepted) /
                          static_cast<double>(d.bytes))
                    : 0;

    // --- ECN marking: fraction of the step the queue spent above K ---
    const std::int64_t q0 = q.len;
    const std::int64_t q1 =
        std::max<std::int64_t>(0, q.len + accepted - drain_per_ms_);
    double mark_frac = 0.0;
    const std::int64_t hi = std::max(q0, q1);
    const std::int64_t lo = std::min(q0, q1);
    if (lo >= ecn_threshold_) {
      mark_frac = 1.0;
    } else if (hi > ecn_threshold_) {
      mark_frac = static_cast<double>(hi - ecn_threshold_) /
                  static_cast<double>(std::max<std::int64_t>(hi - lo, 1));
    }
    const auto marked =
        static_cast<std::int64_t>(mark_frac * static_cast<double>(accepted));

    // --- queue update with composition tracking ---
    const std::int64_t before_total = q.len + accepted;
    q.retx_part += accepted_retx;
    q.ecn_part += marked;
    const std::int64_t delivered = std::min(before_total, drain_per_ms_);
    std::int64_t delivered_retx = 0, delivered_ecn = 0;
    if (before_total > 0) {
      const double frac = static_cast<double>(delivered) /
                          static_cast<double>(before_total);
      delivered_retx = static_cast<std::int64_t>(
          frac * static_cast<double>(q.retx_part));
      delivered_ecn = static_cast<std::int64_t>(
          frac * static_cast<double>(q.ecn_part));
    }
    q.len = before_total - delivered;
    q.retx_part -= delivered_retx;
    q.ecn_part -= delivered_ecn;
    shared_used_[static_cast<std::size_t>(quad)] +=
        std::max<std::int64_t>(q.len - reserve_, 0) -
        std::max<std::int64_t>(q0 - reserve_, 0);
    // ~30% of a step's arrivals sit in the buffer at any instant within
    // the millisecond (sub-ms interleaving), visible to next step's limit.
    new_transient[static_cast<std::size_t>(quad)] += (accepted * 3) / 10;

    // --- congestion feedback to the senders (applied next step) ---
    proc.on_feedback(
        accepted > 0 ? static_cast<double>(marked) / static_cast<double>(accepted)
                     : 0.0,
        dropped);

    // --- measurement: delivered traffic through the real tc filter ---
    if (sampling) {
      core::SegmentBatch batch;
      batch.in_bytes = delivered;
      batch.in_retx_bytes = delivered_retx;
      batch.in_ecn_bytes = delivered_ecn;
      // Server egress is ACK-dominated for this ingress-heavy fleet slice.
      batch.out_bytes = delivered / 32 + 1500;
      batch.sketch[0] = d.sketch[0];
      batch.sketch[1] = d.sketch[1];
      ws.filters_[static_cast<std::size_t>(s)].process_batch(
          0, batch, now + clock_offsets_[static_cast<std::size_t>(s)]);
    }

    if (result != nullptr) {
      result->offered_bytes += d.bytes;
      result->delivered_bytes += delivered;
      result->drop_bytes += dropped;
      result->ecn_bytes += delivered_ecn;
    }
  }
  quad_transient_ = new_transient;
}

const FluidRackResult& FluidRack::run(FluidWorkspace& ws) {
  const auto n_servers = static_cast<std::size_t>(num_servers_);
  core::TcFilterConfig fc;
  fc.num_cpus = config_.filter_cpus;
  fc.num_buckets = config_.samples_per_run;
  for (std::size_t s = 0; s < n_servers; ++s) {
    if (s < ws.filters_.size()) {
      ws.filters_[s].reset(fc);
    } else {
      ws.filters_.emplace_back(fc);
    }
  }

  FluidRackResult& result = ws.result_;
  result.offered_bytes = 0;
  result.delivered_bytes = 0;
  result.drop_bytes = 0;
  result.ecn_bytes = 0;
  result.fabric_drop_bytes = 0;
  sim::SimTime now = 0;
  for (int t = 0; t < config_.warmup_ms; ++t) {
    step(now, /*sampling=*/false, nullptr, ws);
    now += sim::kMillisecond;
  }
  for (std::size_t s = 0; s < n_servers; ++s) {
    ws.filters_[s].enable(sim::kMillisecond);
  }
  // One extra step beyond the bucket count lets late-started (clock-offset)
  // filters fill their last bucket before the window closes.
  for (int t = 0; t <= config_.samples_per_run; ++t) {
    step(now, /*sampling=*/true, &result, ws);
    now += sim::kMillisecond;
  }
  ws.records_.resize(n_servers);
  for (std::size_t s = 0; s < n_servers; ++s) {
    core::RunRecord& r = ws.records_[s];
    r.host = static_cast<net::HostId>(s);
    r.start = ws.filters_[s].start_time();
    r.interval = sim::kMillisecond;
    ws.filters_[s].read_aggregated(r.buckets, ws.tally_);
  }
  core::combine_runs(ws.records_, result.sync);
  return result;
}

FluidRackResult FluidRack::run() {
  FluidWorkspace ws;
  run(ws);
  return std::move(ws.result_);
}

}  // namespace msamp::fleet
