// The util::simd kernels: one portable loop each, compiled with the
// project's normal flags (see simd.h for the contracts).
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd/simd.h"

namespace msamp::util::simd {

const char* path_name(IsaPath) noexcept {
  // Narrower than the `value` header of `msampctl version`, so the padded
  // row always has a blank after the name: perfbench's cluster_day set-up
  // looks the name up with a blank on each side.
  return "auto";
}

IsaPath active_path() noexcept { return IsaPath::kAuto; }

void tally_rows_u64(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n_words) noexcept {
  std::size_t word_in_row = 0;
  for (std::size_t i = 0; i < n_words; ++i) {
    if (word_in_row < kRowTallyWords) {
      const std::uint64_t s = dst[i] + src[i];
      dst[i] = s < dst[i] ? ~std::uint64_t{0} : s;
    } else {
      dst[i] |= src[i];
    }
    if (++word_in_row == kRowWords) word_in_row = 0;
  }
}

std::int64_t sum_i64(const std::int64_t* v, std::size_t n) noexcept {
  // Accumulate in unsigned so wrap-around is defined behavior.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::uint64_t>(v[i]);
  }
  return static_cast<std::int64_t>(acc);
}

void threshold_mask_i64(const std::int64_t* v, std::size_t n,
                        std::int64_t threshold,
                        std::uint64_t* mask_words) noexcept {
  // Each word is built from compare results shifted into place, with no
  // branch on the data; a partial last word leaves its high bits zero.
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = n - base < 64 ? n - base : 64;
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < len; ++b) {
      word |= static_cast<std::uint64_t>(v[base + b] > threshold) << b;
    }
    mask_words[base / 64] = word;
  }
}

std::vector<Run> extract_runs(const std::uint64_t* mask_words, std::size_t n) {
  std::vector<Run> runs;
  bool open = false;
  std::size_t start = 0;
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = mask_words[w];
    const std::size_t base = w * 64;
    if (word == 0) {
      if (open) {
        runs.push_back({start, base - start});
        open = false;
      }
      continue;
    }
    if (word == ~std::uint64_t{0} && base + 64 <= n) {
      if (!open) {
        start = base;
        open = true;
      }
      continue;
    }
    for (std::size_t b = 0; b < 64 && base + b < n; ++b) {
      if ((word >> b) & 1u) {
        if (!open) {
          start = base + b;
          open = true;
        }
      } else if (open) {
        runs.push_back({start, base + b - start});
        open = false;
      }
    }
  }
  if (open) runs.push_back({start, n - start});
  return runs;
}

void gather_stride_i64(const std::int64_t* base, std::size_t stride_words,
                       std::size_t n, std::int64_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = base[i * stride_words];
}

void dt_admit_i64(const std::int64_t* demand, const std::int64_t* limit,
                  const std::int64_t* queue_len, std::int64_t drain,
                  std::int64_t* accepted, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t room = limit[i] - queue_len[i];
    if (room < 0) room = 0;
    room += drain;
    accepted[i] = demand[i] < room ? demand[i] : room;
  }
}

double sum_f64(const double* v, std::size_t n) noexcept {
  // The pinned lane-then-tree DAG documented in simd.h: four serial
  // accumulator chains, a fixed tree combine, then a serial tail.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + kFoldLanes <= n; i += kFoldLanes) {
    acc0 += v[i];
    acc1 += v[i + 1];
    acc2 += v[i + 2];
    acc3 += v[i + 3];
  }
  double r = (acc0 + acc2) + (acc1 + acc3);
  for (; i < n; ++i) r += v[i];
  return r;
}

}  // namespace msamp::util::simd
