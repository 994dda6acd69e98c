// Property tests for util::simd: every kernel must agree with a naive
// reference on adversarial inputs — unaligned offsets, lengths around
// vector-width multiples, saturation edges, and NaN/inf handling in the
// pinned float fold.  The suites all start with "Simd" so scripts/check.sh
// can select them with a single -R regex under the sanitizers.
#include "util/simd/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/stats.h"

namespace msamp::util::simd {
namespace {

// Lengths straddling the vector widths a compiler may pick: 2 and 4 u64
// lanes (4 is also the fold width), 28 (four tally rows), 64 (one mask
// word), plus ragged tails around each.
const std::vector<std::size_t>& lengths() {
  static const std::vector<std::size_t> kLens = {
      0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 27, 28, 29,
      31, 32, 33, 63, 64, 65, 100, 128, 129};
  return kLens;
}

// Misaligning the data start by 0..3 u64 words exercises the unaligned
// load/store forms of whatever vector code the compiler emits.
constexpr std::size_t kMaxOffset = 4;

std::vector<std::uint64_t> random_u64(Rng& rng, std::size_t n,
                                      bool near_saturation) {
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) {
    const std::uint64_t r = rng.next();
    if (near_saturation && (r & 3u) == 0u) {
      x = ~std::uint64_t{0} - (r >> 60);  // within 15 of UINT64_MAX
    } else {
      x = r;
    }
  }
  return v;
}

std::vector<std::int64_t> random_i64(Rng& rng, std::size_t n) {
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    const std::uint64_t r = rng.next();
    switch (r & 7u) {
      case 0:
        x = std::numeric_limits<std::int64_t>::max();
        break;
      case 1:
        x = std::numeric_limits<std::int64_t>::min();
        break;
      case 2:
        x = 0;
        break;
      default:
        x = static_cast<std::int64_t>(r >> 2) - (1ll << 61);
        break;
    }
  }
  return v;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Inside a TEST body the inherited testing::Test::Run() member hides the
// namespace-level Run type, so the reference below spells it via an alias.
using RunVec = std::vector<Run>;

// The pinned fold DAG from simd.h, restated independently of kernels.cc
// so the kernel is checked against a second reading of the contract.
double pinned_fold(const double* v, std::size_t n) {
  double acc[kFoldLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kFoldLanes <= n; i += kFoldLanes) {
    for (std::size_t j = 0; j < kFoldLanes; ++j) acc[j] += v[i + j];
  }
  double r = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (; i < n; ++i) r += v[i];
  return r;
}

TEST(SimdPath, ActivePathIsTheCompilersLoops) {
  // `msampctl version` prints this as simd-active.
  EXPECT_EQ(active_path(), IsaPath::kAuto);
  EXPECT_STREQ(path_name(active_path()), "auto");
}

TEST(SimdKernels, SaturatingAddU64SaturationEdges) {
  // The saturating u64 add of tally_rows_u64's counter words, at its
  // edges across two rows: exact boundary, one past, both maximal, and
  // zero; the bitmap words OR.
  const std::uint64_t kMax = ~std::uint64_t{0};
  const std::vector<std::uint64_t> a = {kMax, kMax - 1, kMax - 1, 1, 0,
                                        0xf0, 0,  //
                                        kMax, 7, 0, kMax, 3, 0, 0x1};
  const std::vector<std::uint64_t> b = {kMax, 1, 2, kMax - 1, 0,
                                        0x0f, 0,  //
                                        0, kMax - 7, 0, 1, kMax - 2, kMax,
                                        0x1};
  const std::vector<std::uint64_t> want = {kMax, kMax, kMax, kMax, 0,
                                           0xff, 0,  //
                                           kMax, kMax, 0, kMax, kMax, kMax,
                                           0x1};
  std::vector<std::uint64_t> dst(a);
  tally_rows_u64(dst.data(), b.data(), dst.size());
  EXPECT_EQ(dst, want);
}

TEST(SimdKernels, TallyRowsMatchesNaivePerWordFold) {
  Rng rng(0x7a11u);
  const std::uint64_t kMax = ~std::uint64_t{0};
  // Row counts around a 4-row (28-word) cycle, which any u64 vector width
  // divides.
  for (std::size_t rows : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 10u, 16u}) {
    const std::size_t n_words = rows * kRowWords;
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const auto src = random_u64(rng, n_words + off, true);
      const auto dst0 = random_u64(rng, n_words + off, true);
      std::vector<std::uint64_t> want(dst0);
      for (std::size_t i = 0; i < n_words; ++i) {
        if (i % kRowWords < kRowTallyWords) {
          const std::uint64_t s = want[off + i] + src[off + i];
          want[off + i] = s < dst0[off + i] ? kMax : s;
        } else {
          want[off + i] |= src[off + i];
        }
      }
      std::vector<std::uint64_t> dst(dst0);
      tally_rows_u64(dst.data() + off, src.data() + off, n_words);
      EXPECT_EQ(dst, want) << "rows=" << rows << " off=" << off;
    }
  }
}

TEST(SimdKernels, SumI64WrapsWithoutUB) {
  Rng rng(0x51u);
  for (std::size_t n : lengths()) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const auto v = random_i64(rng, n + off);
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<std::uint64_t>(v[off + i]);
      }
      EXPECT_EQ(sum_i64(v.data() + off, n), static_cast<std::int64_t>(acc))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernels, ThresholdMaskStrictCompareAndZeroTail) {
  Rng rng(0x7123u);
  const std::vector<std::int64_t> thresholds = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(), -1, 0, 1, 1 << 20};
  for (std::size_t n : lengths()) {
    const std::size_t words = (n + 63) / 64;
    for (std::int64_t t : thresholds) {
      auto v = random_i64(rng, n);
      // Plant exact-equality values: strict > must leave them unset.
      for (std::size_t i = 0; i < n; i += 3) v[i] = t;
      std::vector<std::uint64_t> want(words, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (v[i] > t) want[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      // Pre-poison the output: the kernel must clear tail bits itself.
      std::vector<std::uint64_t> got(words, ~std::uint64_t{0});
      threshold_mask_i64(v.data(), n, t, got.data());
      EXPECT_EQ(got, want) << "n=" << n << " t=" << t;
    }
  }
}

TEST(SimdKernels, ExtractRunsMatchesNaiveBitScan) {
  Rng rng(0xdeadu);
  for (std::size_t n : lengths()) {
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> mask(words, 0);
    for (auto& w : mask) {
      const std::uint64_t r = rng.next();
      // Mix of sparse, dense, all-zero, and all-one words to hit the
      // word-at-a-time fast paths.
      switch (r & 3u) {
        case 0: w = 0; break;
        case 1: w = ~std::uint64_t{0}; break;
        case 2: w = r; break;
        default: w = r & rng.next() & rng.next(); break;
      }
    }
    // Naive reference: per-bit scan.
    RunVec want;
    for (std::size_t i = 0; i < n; ++i) {
      const bool set = (mask[i / 64] >> (i % 64)) & 1u;
      if (set) {
        if (!want.empty() && want.back().start + want.back().len == i) {
          ++want.back().len;
        } else {
          want.push_back({i, 1});
        }
      }
    }
    const auto got = extract_runs(mask.data(), n);
    ASSERT_EQ(got.size(), want.size()) << "n=" << n;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].start, want[i].start);
      EXPECT_EQ(got[i].len, want[i].len);
    }
  }
}

TEST(SimdKernels, GatherStrideAllPaths) {
  Rng rng(0x6a7u);
  for (std::size_t stride : {1u, 2u, 3u, 6u, 11u}) {
    for (std::size_t n : lengths()) {
      const auto base = random_i64(rng, n * stride + 1);
      std::vector<std::int64_t> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = base[i * stride];
      std::vector<std::int64_t> got(n, -1);
      gather_stride_i64(base.data(), stride, n, got.data());
      EXPECT_EQ(got, want) << "stride=" << stride << " n=" << n;
    }
  }
}

TEST(SimdKernels, DtAdmitMatchesScalarFormula) {
  Rng rng(0xd7u);
  for (std::size_t n : lengths()) {
    std::vector<std::int64_t> demand(n), limit(n), qlen(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Realistic byte counts plus directed negatives: queues deeper than
      // the limit must clamp room to zero, not go negative.
      demand[i] = static_cast<std::int64_t>(rng.uniform_int(1u << 30));
      limit[i] = static_cast<std::int64_t>(rng.uniform_int(1u << 28));
      qlen[i] = static_cast<std::int64_t>(rng.uniform_int(1u << 29));
    }
    for (std::int64_t drain : {std::int64_t{0}, std::int64_t{1 << 16}}) {
      std::vector<std::int64_t> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t room = limit[i] - qlen[i];
        if (room < 0) room = 0;
        room += drain;
        want[i] = demand[i] < room ? demand[i] : room;
      }
      std::vector<std::int64_t> got(n, -1);
      dt_admit_i64(demand.data(), limit.data(), qlen.data(), drain,
                   got.data(), n);
      EXPECT_EQ(got, want) << "n=" << n << " drain=" << drain;
    }
  }
}

TEST(SimdFold, SumF64BitIdenticalToPinnedDagOnAllPaths) {
  Rng rng(0xf01du);
  for (std::size_t n : lengths()) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      std::vector<double> v(n + off);
      for (auto& x : v) x = rng.normal(0.0, 1e6);
      const double want = pinned_fold(v.data() + off, n);
      const double got = sum_f64(v.data() + off, n);
      EXPECT_EQ(bits_of(got), bits_of(want)) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdFold, SumF64SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Deterministic specials: bitwise identity with the pinned DAG.
  const std::vector<std::vector<double>> cases = {
      {},                                  // empty -> +0.0
      {-0.0, -0.0, -0.0, -0.0},            // full group of -0.0
      {-0.0},                              // tail-only -0.0
      {inf, 1.0, 2.0, 3.0, 4.0},           // inf propagates
      {-inf, -inf, 0.0, 5.0},              // -inf propagates
      {1e308, 1e308, -1e308, -1e308},      // overflow then cancel, per-lane
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}  // inexact decimals, ragged tail
  };
  for (const auto& v : cases) {
    const double want = pinned_fold(v.data(), v.size());
    const double got = sum_f64(v.data(), v.size());
    EXPECT_EQ(bits_of(got), bits_of(want)) << "n=" << v.size();
  }
  // NaN in: NaN out (payload propagation is the hardware's business, so
  // only the predicate is pinned, not the payload).
  const std::vector<double> with_nan = {1.0, nan, 2.0, 3.0, 4.0};
  EXPECT_TRUE(std::isnan(sum_f64(with_nan.data(), with_nan.size())));
  // inf + -inf inside one lane chain -> NaN, deterministically.
  const std::vector<double> cancel_inf = {inf, 0.0, 0.0, 0.0, -inf};
  EXPECT_TRUE(std::isnan(sum_f64(cancel_inf.data(), cancel_inf.size())));
}

TEST(SimdFold, CanonicalSumRoutesThroughPinnedFold) {
  Rng rng(0xca40u);
  std::vector<double> v(257);
  for (auto& x : v) x = rng.lognormal(8.0, 2.0);
  const double via_stats = util::canonical_sum(v.data(), v.size());
  const double via_simd = sum_f64(v.data(), v.size());
  EXPECT_EQ(bits_of(via_stats), bits_of(via_simd));
}

}  // namespace
}  // namespace msamp::util::simd
