#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/simd/simd.h"

namespace msamp::util {

void StreamingStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::merge(const StreamingStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double StreamingStats::stddev() const noexcept {
  return std::sqrt(variance());
}

double percentile_inplace(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double percentile(std::vector<double> samples, double p) {
  return percentile_inplace(samples, p);
}

BoxSummary box_summary(std::vector<double>& samples) {
  BoxSummary b;
  b.count = samples.size();
  if (samples.empty()) return b;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double p) {
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
  };
  b.min = samples.front();
  b.max = samples.back();
  b.p25 = at(25.0);
  b.median = at(50.0);
  b.p75 = at(75.0);
  b.p90 = at(90.0);
  double sum = 0.0;
  for (double x : samples) sum += x;
  b.mean = sum / static_cast<double>(samples.size());
  return b;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> samples,
                                    std::size_t max_points) {
  std::vector<CdfPoint> out;
  if (samples.empty() || max_points == 0) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t points = std::min(max_points, n);
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    // Pick the order statistic at evenly spaced cumulative probabilities,
    // always including the max so the CDF reaches 100%.
    const std::size_t idx =
        (points == 1) ? n - 1 : (i * (n - 1)) / (points - 1);
    out.push_back({samples[idx],
                   100.0 * static_cast<double>(idx + 1) /
                       static_cast<double>(n)});
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      width_((hi - lo) / static_cast<double>(bins == 0 ? 1 : bins)),
      counts_(bins == 0 ? 1 : bins, 0) {}

std::size_t Histogram::bin_index(double x) const noexcept {
  if (x < lo_) return 0;
  const auto idx = static_cast<std::size_t>((x - lo_) / width_);
  return idx >= counts_.size() ? counts_.size() - 1 : idx;
}

void Histogram::add(double x) noexcept {
  ++counts_[bin_index(x)];
  ++total_;
}

double Histogram::bin_center(std::size_t bin) const {
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + static_cast<double>(bin) * width_;
}

double safe_ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

double canonical_sum(const double* data, std::size_t n) noexcept {
  // The contract is the fixed-width lane-then-tree DAG pinned in
  // util::simd::sum_f64 (tests/test_simd.cc checks it bit for bit against
  // an independent copy of the DAG).
  return simd::sum_f64(data, n);
}

double canonical_sum(const std::vector<double>& data) noexcept {
  return canonical_sum(data.data(), data.size());
}

double canonical_mean(const std::vector<double>& data) noexcept {
  if (data.empty()) return 0.0;
  return canonical_sum(data) / static_cast<double>(data.size());
}

}  // namespace msamp::util
