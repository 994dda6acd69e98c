// Tests for SyncMillisampler series alignment (§4.4 linear interpolation).
#include "core/interpolate.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace msamp::core {
namespace {

RunRecord make_record(sim::SimTime start, std::vector<std::int64_t> in_bytes) {
  RunRecord r;
  r.host = 1;
  r.start = start;
  r.interval = sim::kMillisecond;
  for (std::int64_t v : in_bytes) {
    BucketSample s;
    s.in_bytes = v;
    s.connections = static_cast<double>(v) / 100.0;
    r.buckets.push_back(s);
  }
  return r;
}

TEST(LerpSample, Blend) {
  BucketSample a, b;
  a.in_bytes = 100;
  b.in_bytes = 200;
  a.connections = 1.0;
  b.connections = 3.0;
  const BucketSample mid = lerp_sample(a, b, 0.5);
  EXPECT_EQ(mid.in_bytes, 150);
  EXPECT_DOUBLE_EQ(mid.connections, 2.0);
  EXPECT_EQ(lerp_sample(a, b, 0.0).in_bytes, 100);
  EXPECT_EQ(lerp_sample(a, b, 1.0).in_bytes, 200);
}

TEST(AlignSeries, IdentityWhenAligned) {
  const RunRecord r = make_record(5 * sim::kMillisecond, {10, 20, 30, 40});
  const auto out = align_series(r, 5 * sim::kMillisecond, 4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].in_bytes, 10);
  EXPECT_EQ(out[3].in_bytes, 40);
}

TEST(AlignSeries, HalfBucketShiftBlends) {
  const RunRecord r = make_record(0, {100, 200, 300});
  // Grid shifted by half an interval: outputs are midpoints.
  const auto out = align_series(r, sim::kMillisecond / 2, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].in_bytes, 150);
  EXPECT_EQ(out[1].in_bytes, 250);
}

TEST(AlignSeries, BeforeStartIsZero) {
  const RunRecord r = make_record(10 * sim::kMillisecond, {100, 200});
  const auto out = align_series(r, 0, 5);
  for (const auto& s : out) EXPECT_EQ(s.in_bytes, 0);
}

TEST(AlignSeries, PastEndIsZero) {
  const RunRecord r = make_record(0, {100, 200});
  const auto out = align_series(r, 0, 5);
  EXPECT_EQ(out[0].in_bytes, 100);
  EXPECT_EQ(out[1].in_bytes, 200);
  EXPECT_EQ(out[2].in_bytes, 0);
  EXPECT_EQ(out[4].in_bytes, 0);
}

TEST(AlignSeries, InvalidRecordAllZero) {
  RunRecord r;  // never started
  r.interval = sim::kMillisecond;
  const auto out = align_series(r, 0, 3);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& s : out) EXPECT_EQ(s.in_bytes, 0);
}

TEST(AlignSeries, SubMillisecondSkewSmallError) {
  // A 100µs skew (well-synced NTP) distorts each sample by at most 10%
  // of the bucket-to-bucket delta — the §4.5 validation property.
  const RunRecord r = make_record(100 * sim::kMicrosecond,
                                  {1000, 1000, 1000, 1000});
  const auto out = align_series(r, 0, 4);
  // Constant series stays constant under interpolation (sample 0 precedes
  // the record start and is zero).
  EXPECT_EQ(out[1].in_bytes, 1000);
  EXPECT_EQ(out[2].in_bytes, 1000);
}

TEST(AlignSeries, ConnectionsInterpolated) {
  const RunRecord r = make_record(0, {100, 300});
  const auto out = align_series(r, sim::kMillisecond / 4, 1);
  EXPECT_NEAR(out[0].connections, 1.0 + 0.25 * 2.0, 1e-9);
}

/// Values where rounding is easiest to get wrong: exact halves, their
/// neighbouring doubles, the 2^52 boundary where doubles stop carrying a
/// fraction, zero of both signs, and day-scale byte counts.
std::vector<double> hostile_values() {
  std::vector<double> xs = {0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
                            0.49999999999999994, -0.49999999999999994};
  const double two52 = 4503599627370496.0;  // 2^52
  for (double base : {1.0, 2.0, 1499.0, 1e6, 1.25e9, 3.7e12, 5.4e13,
                      two52 / 2, two52 - 1, two52, two52 + 1, two52 * 2}) {
    for (double x : {base, base + 0.5, -(base + 0.5)}) {
      xs.push_back(x);
      xs.push_back(std::nextafter(x, 0.0));
      xs.push_back(std::nextafter(x, std::numeric_limits<double>::infinity()));
      xs.push_back(
          std::nextafter(x, -std::numeric_limits<double>::infinity()));
    }
  }
  return xs;
}

TEST(Interpolate, RoundHalfAwayMatchesLlround) {
  for (double x : hostile_values()) {
    EXPECT_EQ(round_half_away(x), std::llround(x)) << std::hexfloat << x;
  }
}

TEST(Interpolate, LerpSampleMatchesLlroundReference) {
  // Endpoint pairs and blend factors that put the blended value on, or
  // one double away from, a half: (k, k+1) at t = 0.5 and its neighbours,
  // across byte scales from one packet to a day of line-rate traffic.
  const std::int64_t two52 = std::int64_t{1} << 52;
  std::vector<std::int64_t> bases = {0,       1,        1499,      65535,
                                     1250000, 3700000000000, two52 - 1,
                                     two52,   two52 + 1};
  for (double x : hostile_values()) {
    if (std::fabs(x) < 9e15) bases.push_back(static_cast<std::int64_t>(x));
  }
  const double half = 0.5;
  const std::vector<double> ts = {0.0,
                                  std::nextafter(half, 0.0),
                                  half,
                                  std::nextafter(half, 1.0),
                                  0.25,
                                  0.999999,
                                  1.0};
  auto reference = [](std::int64_t x, std::int64_t y, double t) {
    return static_cast<std::int64_t>(std::llround(
        static_cast<double>(x) +
        t * (static_cast<double>(y) - static_cast<double>(x))));
  };
  for (std::int64_t k : bases) {
    for (std::int64_t step : {std::int64_t{1}, std::int64_t{3},
                              std::int64_t{-1}, std::int64_t{-7}}) {
      for (double t : ts) {
        BucketSample a, b;
        a.in_bytes = k;
        b.in_bytes = k + step;
        a.in_retx_bytes = k / 3;
        b.in_retx_bytes = k / 3 + step;
        a.out_bytes = -k;
        b.out_bytes = -k - step;
        a.out_retx_bytes = step;
        b.out_retx_bytes = 0;
        a.in_ecn_bytes = k / 2;
        b.in_ecn_bytes = k / 2 + 2 * step;
        a.connections = static_cast<double>(k) / 7.0;
        b.connections = 3.25;
        const BucketSample got = lerp_sample(a, b, t);
        EXPECT_EQ(got.in_bytes, reference(a.in_bytes, b.in_bytes, t));
        EXPECT_EQ(got.in_retx_bytes,
                  reference(a.in_retx_bytes, b.in_retx_bytes, t));
        EXPECT_EQ(got.out_bytes, reference(a.out_bytes, b.out_bytes, t));
        EXPECT_EQ(got.out_retx_bytes,
                  reference(a.out_retx_bytes, b.out_retx_bytes, t));
        EXPECT_EQ(got.in_ecn_bytes,
                  reference(a.in_ecn_bytes, b.in_ecn_bytes, t));
        const double conns =
            a.connections + t * (b.connections - a.connections);
        EXPECT_EQ(std::memcmp(&got.connections, &conns, sizeof conns), 0);
      }
    }
  }
}

TEST(AlignSeries, ReusedBufferMatchesFreshResult) {
  // The buffer-reusing overload overwrites every element, so leftovers
  // from a longer, different series never leak into a shorter one.
  const RunRecord big = make_record(0, {9, 8, 7, 6, 5, 4, 3, 2});
  const RunRecord small = make_record(sim::kMillisecond / 3, {100, 200, 300});
  std::vector<BucketSample> buf;
  align_series(big, 0, 8, buf);
  align_series(small, 0, 5, buf);
  const auto fresh = align_series(small, 0, 5);
  ASSERT_EQ(buf.size(), fresh.size());
  EXPECT_EQ(std::memcmp(buf.data(), fresh.data(),
                        fresh.size() * sizeof(BucketSample)),
            0);
  RunRecord never_started;
  align_series(big, 0, 8, buf);
  align_series(never_started, 0, 4, buf);
  ASSERT_EQ(buf.size(), 4u);
  for (const auto& s : buf) EXPECT_EQ(s.in_bytes, 0);
}

}  // namespace
}  // namespace msamp::core
