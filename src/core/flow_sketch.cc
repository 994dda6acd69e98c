#include "core/flow_sketch.h"

#include <cmath>
#include <cstddef>

namespace msamp::core {
namespace {

// Finalizer from MurmurHash3; good avalanche for sequential flow ids.
std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

void FlowSketch::add(std::uint64_t flow_id) noexcept {
  const std::uint64_t h = mix(flow_id);
  const unsigned bit = static_cast<unsigned>(h & 127u);
  words_[bit >> 6] |= 1ULL << (bit & 63u);
}

std::array<double, FlowSketch::kBits + 1>
FlowSketch::build_estimate_table() noexcept {
  std::array<double, kBits + 1> table{};
  // Fully saturated: report the maximum resolvable estimate.
  table[0] = -static_cast<double>(kBits) * std::log(1.0 / kBits);
  for (int zeros = 1; zeros <= kBits; ++zeros) {
    // libm evaluates the log at run time, exactly as the per-call estimate
    // did; the volatile read keeps the compiler from constant-folding it
    // with its own (possibly differently rounded) arithmetic.
    const volatile double fraction = static_cast<double>(zeros) / kBits;
    table[static_cast<std::size_t>(zeros)] =
        -static_cast<double>(kBits) * std::log(fraction);
  }
  return table;
}

}  // namespace msamp::core
