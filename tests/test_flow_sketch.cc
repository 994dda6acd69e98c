// Tests for the 128-bit flow sketch (§4.2): precision at low counts,
// saturation behavior, and merge semantics.
#include "core/flow_sketch.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msamp::core {
namespace {

TEST(FlowSketch, EmptyEstimatesZero) {
  FlowSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.popcount(), 0);
  EXPECT_DOUBLE_EQ(s.estimate(), 0.0);
}

TEST(FlowSketch, SingleFlow) {
  FlowSketch s;
  s.add(42);
  EXPECT_EQ(s.popcount(), 1);
  EXPECT_NEAR(s.estimate(), 1.0, 0.01);
}

TEST(FlowSketch, DuplicateAddsAreIdempotent) {
  FlowSketch s;
  for (int i = 0; i < 100; ++i) s.add(7);
  EXPECT_EQ(s.popcount(), 1);
}

TEST(FlowSketch, PreciseUpToADozen) {
  // §4.2: "precise up to a dozen connections".
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    FlowSketch s;
    const int n = 12;
    for (int i = 0; i < n; ++i) s.add(rng.next());
    EXPECT_NEAR(s.estimate(), n, 2.5) << "trial " << trial;
  }
}

class SketchAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(SketchAccuracyTest, EstimateTracksTrueCount) {
  const int n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 31 + 1);
  // Average over trials: linear counting is unbiased but noisy per trial.
  double total = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    FlowSketch s;
    for (int i = 0; i < n; ++i) s.add(rng.next());
    total += s.estimate();
  }
  const double mean = total / trials;
  // Tolerance widens with n (the sketch saturates near 500).
  const double tolerance = std::max(2.0, 0.25 * n);
  EXPECT_NEAR(mean, n, tolerance);
}

INSTANTIATE_TEST_SUITE_P(Counts, SketchAccuracyTest,
                         ::testing::Values(1, 3, 8, 16, 32, 64, 128, 250));

TEST(FlowSketch, SaturatesAroundPaperValue) {
  // With far more flows than bits, the estimate pins at -m ln(1/m) ~ 621;
  // the paper describes this as saturating "around 500".
  util::Rng rng(5);
  FlowSketch s;
  for (int i = 0; i < 100000; ++i) s.add(rng.next());
  EXPECT_EQ(s.popcount(), FlowSketch::kBits);
  EXPECT_NEAR(s.estimate(), 621.06, 1.0);
}

TEST(FlowSketch, MergeIsUnion) {
  util::Rng rng(6);
  FlowSketch a, b, u;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t f = rng.next();
    a.add(f);
    u.add(f);
  }
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t f = rng.next();
    b.add(f);
    u.add(f);
  }
  a.merge(b);
  EXPECT_EQ(a.word(0), u.word(0));
  EXPECT_EQ(a.word(1), u.word(1));
}

TEST(FlowSketch, MergeMonotone) {
  FlowSketch a, b;
  a.add(1);
  b.add(2);
  const double before = a.estimate();
  a.merge(b);
  EXPECT_GE(a.estimate(), before);
}

TEST(FlowSketch, ClearResets) {
  FlowSketch s;
  s.add(1);
  s.add(2);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.estimate(), 0.0);
}

TEST(FlowSketch, WordsRoundTrip) {
  FlowSketch s;
  s.add(123);
  s.add(456);
  FlowSketch t;
  t.set_words(s.word(0), s.word(1));
  EXPECT_EQ(t.popcount(), s.popcount());
  EXPECT_DOUBLE_EQ(t.estimate(), s.estimate());
}

TEST(FlowSketch, HashSpreadsAcrossBothWords) {
  util::Rng rng(7);
  FlowSketch s;
  for (int i = 0; i < 1000; ++i) s.add(rng.next());
  EXPECT_GT(std::popcount(s.word(0)), 32);
  EXPECT_GT(std::popcount(s.word(1)), 32);
}

TEST(FlowSketch, EstimateTableMatchesClosedFormBitForBit) {
  // The table must reproduce the libm closed form exactly — estimates land
  // in dataset bytes — for every zero count, including the saturated
  // sketch (0 zeros) and the empty one (128 zeros, where the closed form
  // gives -0.0).
  const double* table = FlowSketch::estimate_table();
  for (int zeros = 0; zeros <= FlowSketch::kBits; ++zeros) {
    const double m = FlowSketch::kBits;
    // Evaluated by libm at run time (volatile defeats constant folding),
    // as FlowSketch::estimate() always evaluated it.
    const volatile double fraction =
        static_cast<double>(zeros) / FlowSketch::kBits;
    const double expected = zeros == 0
                                ? -m * std::log(1.0 / FlowSketch::kBits)
                                : -m * std::log(fraction);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(table[zeros]),
              std::bit_cast<std::uint64_t>(expected))
        << "zeros=" << zeros;

    // And estimate() reads the entry for the sketch's own zero count.
    const int ones = FlowSketch::kBits - zeros;
    const std::uint64_t lo = ones >= 64 ? ~0ULL : (1ULL << ones) - 1;
    const std::uint64_t hi =
        ones <= 64 ? 0 : (ones == 128 ? ~0ULL : (1ULL << (ones - 64)) - 1);
    FlowSketch sketch;
    sketch.set_words(lo, hi);
    ASSERT_EQ(sketch.popcount(), ones);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sketch.estimate()),
              std::bit_cast<std::uint64_t>(expected))
        << "zeros=" << zeros;
  }
}

TEST(FlowSketch, PopcountMatchesStdPopcount) {
  util::Rng rng(11);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t w0 = rng.next();
    const std::uint64_t w1 = trial % 3 == 0 ? 0 : rng.next() & rng.next();
    FlowSketch s;
    s.set_words(w0, w1);
    EXPECT_EQ(s.popcount(), std::popcount(w0) + std::popcount(w1));
  }
}

}  // namespace
}  // namespace msamp::core
