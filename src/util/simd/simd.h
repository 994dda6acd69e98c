// util::simd — the array kernels of the sampler, fluid-rack, and
// burst-detection hot paths.
//
// Each kernel is one portable C++ loop (src/util/simd/kernels.cc), built
// with the project's normal flags; the compiler vectorizes what it can.
//
// Determinism contract: the integer kernels are exact.  The double fold
// `sum_f64` pins one addition DAG (below) rather than a plain left fold;
// that DAG is what `util::canonical_sum` has always emitted, so the tables
// and bench CSVs built on it keep their bytes.  IEEE-754 addition of the
// same operands in the same order is bit-deterministic, and without
// -ffast-math the compiler may not reassociate it, so the written-out
// lanes are the contract — vectorizing them lane-for-lane (two 2-wide or
// one 4-wide register) leaves the DAG unchanged.
//
// The msamp_lint rule `intrinsics-only-in-simd` flags raw vendor intrinsics
// (intrinsic header includes, `_mm*`/`vld1q_*` identifiers) everywhere in
// the tree, this directory included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace msamp::util::simd {

/// The kernel implementation a build routes to.  There is one: the
/// portable loops, vectorized (or not) by the compiler.  `msampctl
/// version` reports it as `simd-active`.
enum class IsaPath : std::uint8_t { kAuto = 0 };

/// Stable lowercase name for `p` ("auto").
const char* path_name(IsaPath p) noexcept;

/// The path kernel calls route to (always kAuto).
IsaPath active_path() noexcept;

// ---------------------------------------------------------------------------
// u64 bucket tally kernel (core::TcFilter per-CPU counter arrays).
// ---------------------------------------------------------------------------

/// Word layout of one core::RawBucket row: kRowTallyWords counter words
/// followed by (kRowWords - kRowTallyWords) bitmap words. tally_rows_u64
/// folds a per-CPU array of such rows into `dst`: counter words
/// saturating-add (clamped to UINT64_MAX), bitmap words bitwise-OR.
/// `n_words` must be a multiple of kRowWords.
inline constexpr std::size_t kRowWords = 7;
inline constexpr std::size_t kRowTallyWords = 5;
void tally_rows_u64(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n_words) noexcept;

// ---------------------------------------------------------------------------
// i64 scan kernels (analysis::detect_bursts, fleet::FluidRack).
// ---------------------------------------------------------------------------

/// Sum of v[0..n) mod 2^64 (two's-complement wrap, no UB).
std::int64_t sum_i64(const std::int64_t* v, std::size_t n) noexcept;

/// Writes ceil(n/64) mask words: bit i of the mask is set iff
/// v[i] > threshold (strict). Bits at positions >= n are zero.
void threshold_mask_i64(const std::int64_t* v, std::size_t n,
                        std::int64_t threshold,
                        std::uint64_t* mask_words) noexcept;

/// A maximal run of consecutive set bits in a threshold mask.
struct Run {
  std::size_t start = 0;
  std::size_t len = 0;
};

/// Extracts all maximal runs of set bits from `mask_words` covering bit
/// positions [0, n).
std::vector<Run> extract_runs(const std::uint64_t* mask_words, std::size_t n);

/// out[i] = base[i * stride_words], i in [0, n) — strided column gather out
/// of an array-of-structs (e.g. BucketSample::in_bytes).
void gather_stride_i64(const std::int64_t* base, std::size_t stride_words,
                       std::size_t n, std::int64_t* out) noexcept;

/// Element-wise DT admission arithmetic over rack queue arrays:
///   accepted[i] = min(demand[i], max(limit[i] - queue_len[i], 0) + drain)
void dt_admit_i64(const std::int64_t* demand, const std::int64_t* limit,
                  const std::int64_t* queue_len, std::int64_t drain,
                  std::int64_t* accepted, std::size_t n) noexcept;

// ---------------------------------------------------------------------------
// Canonical double fold (util::stats::canonical_sum backend).
// ---------------------------------------------------------------------------

/// Number of independent accumulator lanes in the pinned fold DAG.
inline constexpr std::size_t kFoldLanes = 4;

/// Fixed-width lane-then-tree fold over v[0..n). The pinned DAG
/// (W = kFoldLanes):
///   lane j accumulates serially:  acc[j] += v[W*i + j]
///   tree combine:                 r = (acc[0] + acc[2]) + (acc[1] + acc[3])
///   tail (n % W trailing values): r += v[k], serially, left to right
/// W stays 4 whatever the vector width; changing the DAG changes the bytes
/// of every reader table and bench CSV that sums through canonical_sum.
double sum_f64(const double* v, std::size_t n) noexcept;

}  // namespace msamp::util::simd
