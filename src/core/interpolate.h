// Series alignment for SyncMillisampler (§4.4): concurrent runs latch their
// start on each host's first packet, so their bucket timestamps differ by
// sub-interval amounts.  To combine them into a single run with uniform
// timestamps we linearly interpolate each series onto a common grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/run_record.h"
#include "sim/time.h"

namespace msamp::core {

/// Resamples `record`'s buckets at times `grid_start + k*record.interval`
/// for k in [0, n).  Each bucket value is treated as a point sample at its
/// bucket start; grid points between two buckets take the linear blend, and
/// grid points outside the record's span are zero.
std::vector<BucketSample> align_series(const RunRecord& record,
                                       sim::SimTime grid_start, std::size_t n);

/// `align_series` into a caller-owned buffer: `out` is resized to `n` and
/// every element overwritten, so a reused buffer never reallocates.
void align_series(const RunRecord& record, sim::SimTime grid_start,
                  std::size_t n, std::vector<BucketSample>& out);

/// Linear blend of two samples (t in [0,1]); exposed for tests.
BucketSample lerp_sample(const BucketSample& a, const BucketSample& b,
                         double t);

/// std::llround without the libm call, for |x| < 2^63: the integer part
/// is exact, and so is `x - trunc(x)` (both share x's sign and exponent
/// range), so comparing that remainder with +-0.5 rounds halves away from
/// zero exactly as llround does.
inline std::int64_t round_half_away(double x) noexcept {
  const auto i = static_cast<std::int64_t>(x);  // truncates toward zero
  const double frac = x - static_cast<double>(i);
  // Branch-free: the remainder's side of +-0.5 is data-dependent noise.
  return i + static_cast<std::int64_t>(frac >= 0.5) -
         static_cast<std::int64_t>(frac <= -0.5);
}

}  // namespace msamp::core
