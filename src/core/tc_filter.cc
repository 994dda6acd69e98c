#include "core/tc_filter.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/simd/simd.h"

namespace msamp::core {

// The SIMD row fold reads the per-CPU RawBucket arrays as flat u64 words:
// kRowTallyWords counter words to saturating-add followed by the sketch
// words to OR. Pin the layout so a struct edit cannot silently desync the
// kernel's word schedule.
static_assert(std::is_standard_layout_v<RawBucket>);
static_assert(sizeof(RawBucket) == util::simd::kRowWords * sizeof(std::uint64_t),
              "RawBucket word count drifted from util::simd::kRowWords");
static_assert(offsetof(RawBucket, sketch) ==
                  util::simd::kRowTallyWords * sizeof(std::uint64_t),
              "RawBucket sketch words must follow the counter words");

TcFilter::TcFilter(const TcFilterConfig& config)
    : config_(config),
      percpu_(static_cast<std::size_t>(config.num_cpus) *
              static_cast<std::size_t>(config.num_buckets)) {
  assert(config.num_cpus > 0);
  assert(config.num_buckets > 0);
}

void TcFilter::reset(const TcFilterConfig& config) {
  assert(config.num_cpus > 0);
  assert(config.num_buckets > 0);
  config_ = config;
  percpu_.resize(static_cast<std::size_t>(config.num_cpus) *
                 static_cast<std::size_t>(config.num_buckets));
  enabled_ = false;
  start_ = -1;
  interval_ = sim::kMillisecond;
}

void TcFilter::enable(sim::SimDuration interval) {
  assert(interval > 0);
  for (auto& row : percpu_) row.clear();
  interval_ = interval;
  start_ = -1;
  enabled_ = true;
}

bool TcFilter::process(int cpu, const net::Packet& segment, bool ingress,
                       sim::SimTime now) {
  if (!enabled_) return false;  // the 7ns early-out path of §4.3

  // The first packet of the run latches the start time (§4.1).
  if (start_ < 0) start_ = now;

  const sim::SimTime elapsed = now - start_;
  const auto bucket = elapsed / interval_;
  if (bucket < 0) return false;  // clock stepped backwards; drop the sample
  if (bucket >= config_.num_buckets) {
    // Past the last bucket: clear the enabled flag as the completion signal
    // and stop counting (saves future per-packet work).
    enabled_ = false;
    return false;
  }

  RawBucket& row = percpu_[static_cast<std::size_t>(cpu % config_.num_cpus) *
                               static_cast<std::size_t>(config_.num_buckets) +
                           static_cast<std::size_t>(bucket)];
  const auto bytes = static_cast<std::uint64_t>(segment.bytes);
  if (ingress) {
    row.in_bytes += bytes;
    if (segment.retx_mark) row.in_retx_bytes += bytes;
    if (segment.ce) row.in_ecn_bytes += bytes;
  } else {
    row.out_bytes += bytes;
    if (segment.retx_mark) row.out_retx_bytes += bytes;
  }
  if (config_.count_flows && segment.flow != 0) {
    FlowSketch s;
    s.set_words(row.sketch[0], row.sketch[1]);
    s.add(segment.flow);
    row.sketch[0] = s.word(0);
    row.sketch[1] = s.word(1);
  }
  return true;
}

std::vector<BucketSample> TcFilter::read_aggregated() const {
  std::vector<BucketSample> out;
  std::vector<std::uint64_t> tally;
  read_aggregated(out, tally);
  return out;
}

void TcFilter::read_aggregated(std::vector<BucketSample>& out,
                               std::vector<std::uint64_t>& tally) const {
  const auto buckets = static_cast<std::size_t>(config_.num_buckets);
  const std::size_t row_words = buckets * util::simd::kRowWords;
  // Fold every CPU's bucket array into one accumulator in a single strided
  // pass per CPU: counter words saturating-add, sketch words OR. Counter
  // sums never approach 2^63 (a full day of line-rate bytes is < 2^50), so
  // the saturating u64 fold and the previous int64 += produce identical
  // bytes; the sketch OR is associative.  A single CPU's row array already
  // is that fold (x + 0 == x, x | 0 == x), so it is read in place.
  const auto* words = reinterpret_cast<const std::uint64_t*>(percpu_.data());
  const std::uint64_t* folded = words;
  if (config_.num_cpus > 1) {
    tally.assign(row_words, 0);
    for (int c = 0; c < config_.num_cpus; ++c) {
      util::simd::tally_rows_u64(
          tally.data(), words + static_cast<std::size_t>(c) * row_words,
          row_words);
    }
    folded = tally.data();
  }
  out.resize(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    BucketSample& s = out[b];
    const std::uint64_t* row = folded + b * util::simd::kRowWords;
    s.in_bytes = static_cast<std::int64_t>(row[0]);
    s.in_retx_bytes = static_cast<std::int64_t>(row[1]);
    s.out_bytes = static_cast<std::int64_t>(row[2]);
    s.out_retx_bytes = static_cast<std::int64_t>(row[3]);
    s.in_ecn_bytes = static_cast<std::int64_t>(row[4]);
    FlowSketch sketch;
    sketch.set_words(row[5], row[6]);
    s.connections = sketch.empty() ? 0.0 : sketch.estimate();
  }
}

const RawBucket& TcFilter::raw(int cpu, int bucket) const {
  return percpu_.at(static_cast<std::size_t>(cpu % config_.num_cpus) *
                        static_cast<std::size_t>(config_.num_buckets) +
                    static_cast<std::size_t>(bucket));
}

}  // namespace msamp::core
