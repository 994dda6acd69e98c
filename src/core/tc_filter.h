// The kernel half of Millisampler: an analog of the eBPF tc filter (§4.1).
//
// Faithful state machine:
//   * attach/detach: a detached filter is completely out of the packet
//     path; an attached-but-disabled filter returns near-immediately;
//   * enable(interval): arms a run; the run's start time is latched from
//     the host-clock timestamp of the FIRST observed packet;
//   * per packet: bucket = (now - start) / interval; if bucket is past the
//     last bucket, the filter clears its own enabled flag (signaling
//     completion to user space) and counts nothing;
//   * all counters are per-CPU to stay lock-free; user space aggregates.
#pragma once

#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "net/packet.h"
#include "sim/time.h"

namespace msamp::core {

/// Compile-time-ish feature selection, mirroring which packet features the
/// eBPF program inspects (flow counting is the one §4.3 ablates: 88ns with
/// it, 84ns without).
struct TcFilterConfig {
  int num_cpus = 32;
  int num_buckets = 2000;
  bool count_flows = true;
};

/// A pre-aggregated batch of segments observed within one time bucket.
/// Used by the fleet-scale fluid simulator as a fast path; semantically
/// identical to the equivalent sequence of `process` calls (asserted in
/// tests/test_tc_filter.cc).
struct SegmentBatch {
  std::int64_t in_bytes = 0;
  std::int64_t in_retx_bytes = 0;
  std::int64_t in_ecn_bytes = 0;
  std::int64_t out_bytes = 0;
  std::int64_t out_retx_bytes = 0;
  /// Pre-hashed 128-bit sketch of the flows active in the batch.
  std::uint64_t sketch[2] = {0, 0};
};

/// The in-kernel filter object.
class TcFilter {
 public:
  explicit TcFilter(const TcFilterConfig& config);

  /// Arms a run with the given sampling interval. Clears all counters.
  void enable(sim::SimDuration interval);

  /// Force-stops a run (user-space timeout path).
  void disable() noexcept { enabled_ = false; }

  bool enabled() const noexcept { return enabled_; }

  /// True once the first packet has latched the run start.
  bool started() const noexcept { return start_ >= 0; }

  /// Host-clock time of the first packet of the run (-1 before start).
  sim::SimTime start_time() const noexcept { return start_; }

  sim::SimDuration interval() const noexcept { return interval_; }

  /// The per-packet program.  `now` is the host-clock timestamp; `cpu` is
  /// the core processing the (soft-irq or transmit) path.  Returns true if
  /// the packet was counted.
  bool process(int cpu, const net::Packet& segment, bool ingress,
               sim::SimTime now);

  /// Batched variant of `process`: folds a whole bucket's worth of traffic
  /// in at once.  Identical start-latch / auto-stop semantics.  Defined
  /// inline: the fluid simulator calls it once per server per millisecond.
  bool process_batch(int cpu, const SegmentBatch& batch, sim::SimTime now) {
    if (!enabled_) return false;
    if (start_ < 0) start_ = now;
    const sim::SimTime elapsed = now - start_;
    const auto bucket = elapsed / interval_;
    if (bucket < 0) return false;
    if (bucket >= config_.num_buckets) {
      enabled_ = false;
      return false;
    }
    RawBucket& row = percpu_[static_cast<std::size_t>(cpu % config_.num_cpus) *
                                 static_cast<std::size_t>(config_.num_buckets) +
                             static_cast<std::size_t>(bucket)];
    row.in_bytes += static_cast<std::uint64_t>(batch.in_bytes);
    row.in_retx_bytes += static_cast<std::uint64_t>(batch.in_retx_bytes);
    row.in_ecn_bytes += static_cast<std::uint64_t>(batch.in_ecn_bytes);
    row.out_bytes += static_cast<std::uint64_t>(batch.out_bytes);
    row.out_retx_bytes += static_cast<std::uint64_t>(batch.out_retx_bytes);
    if (config_.count_flows) {
      row.sketch[0] |= batch.sketch[0];
      row.sketch[1] |= batch.sketch[1];
    }
    return true;
  }

  /// User-space read: sums the per-CPU rows (and ORs the sketches) into
  /// aggregated samples. Valid whether or not the run completed.
  std::vector<BucketSample> read_aggregated() const;

  /// `read_aggregated` into caller-owned buffers: `out` is resized to the
  /// bucket count and overwritten; `tally` is the fold accumulator (used
  /// only with more than one CPU).  Reusing both across runs keeps the
  /// read allocation-free.
  void read_aggregated(std::vector<BucketSample>& out,
                       std::vector<std::uint64_t>& tally) const;

  /// Reconfigures a disabled filter for `config`, keeping its row storage
  /// so one object can serve run after run.  Rows keep the previous run's
  /// counts until `enable` clears them, as it does for every run.
  void reset(const TcFilterConfig& config);

  /// Direct access to a per-CPU row, for tests.
  const RawBucket& raw(int cpu, int bucket) const;

  /// Kernel-side memory footprint in bytes (per §4.3 accounting).
  std::size_t memory_footprint() const noexcept {
    return percpu_.size() * sizeof(RawBucket);
  }

  const TcFilterConfig& config() const noexcept { return config_; }

 private:
  TcFilterConfig config_;
  bool enabled_ = false;
  sim::SimTime start_ = -1;
  sim::SimDuration interval_ = sim::kMillisecond;
  /// Flat [cpu][bucket] array, matching the BPF per-CPU array map layout.
  std::vector<RawBucket> percpu_;
};

}  // namespace msamp::core
