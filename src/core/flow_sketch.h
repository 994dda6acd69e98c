// 128-bit direct-bitmap flow sketch (Estan-Varghese linear counting),
// exactly as Millisampler uses per time bucket (§4.2): stateless, precise
// up to about a dozen concurrent connections, saturating around 500.
#pragma once

#include <array>
#include <cstdint>

namespace msamp::core {

/// A 128-bit bitmap counting distinct flow ids.
class FlowSketch {
 public:
  /// Number of bits in the sketch.
  static constexpr int kBits = 128;

  /// Marks a flow as active (hashes the id to one of 128 bits).
  void add(std::uint64_t flow_id) noexcept;

  /// Merges another sketch (bitwise OR) — used when aggregating per-CPU
  /// sketches for the same time bucket.
  void merge(const FlowSketch& other) noexcept {
    words_[0] |= other.words_[0];
    words_[1] |= other.words_[1];
  }

  /// Linear-counting estimate of the number of distinct flows added:
  /// n ≈ -m * ln(zero_bits / m).  When every bit is set the estimate
  /// saturates at -m*ln(1/m) ≈ 621 (the paper's "around 500" regime).
  /// The estimate depends only on the zero count, so it is a lookup in
  /// `estimate_table()`.
  double estimate() const noexcept {
    return estimate_table()[kBits - popcount()];
  }

  /// Number of set bits.
  int popcount() const noexcept {
    return popcount64(words_[0]) + popcount64(words_[1]);
  }

  /// The estimate for every zero count: entry z is the closed form above
  /// evaluated with z zero bits (kBits + 1 entries; entry kBits is the
  /// empty sketch's -0.0).  Built once, on first use, by evaluating that
  /// libm expression, so a lookup is bit-identical to computing it
  /// (tests/test_flow_sketch.cc checks every entry).
  static const double* estimate_table() noexcept {
    static const std::array<double, kBits + 1> table = build_estimate_table();
    return table.data();
  }

  bool empty() const noexcept { return words_[0] == 0 && words_[1] == 0; }
  void clear() noexcept { words_[0] = words_[1] = 0; }

  /// Raw word access for serialization.
  std::uint64_t word(int i) const noexcept { return words_[i & 1]; }
  void set_words(std::uint64_t w0, std::uint64_t w1) noexcept {
    words_[0] = w0;
    words_[1] = w1;
  }

 private:
  static std::array<double, kBits + 1> build_estimate_table() noexcept;

  /// Branch-free bit count.  std::popcount compiles to a libgcc call on
  /// targets built without the popcnt instruction; this stays inline.
  static constexpr int popcount64(std::uint64_t x) noexcept {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
  }

  std::uint64_t words_[2] = {0, 0};
};

}  // namespace msamp::core
