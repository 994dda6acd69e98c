// Shared plumbing of the measuring program: run options, the result report
// (metrics with units and sample counts, output-check values, failures),
// wall/CPU/RSS probes, order statistics and content digests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the timed phase
  bool trace = false;
  std::string work_dir;  ///< scratch directory for datasets and traces
  std::string msampctl;  ///< built `msampctl`, for the cluster workers
  int lanes = 1;  ///< busy lanes besides the sink/coordinator thread: the
                  ///< affinity mask's CPUs less one, at least 1
};

/// One reported number.  `samples` is how many observations it summarizes
/// (1 for a single measurement or a count).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Everything a run reports.  Metrics are end-to-end numbers in an
/// untraced run and per-layer numbers in a traced one; `checks` are the
/// output values a speed-only change must leave unchanged.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1);
  /// Adds `<name>.p50` and the highest percentile of `values` that has at
  /// least ten samples beyond it (when there are enough samples).
  void timing(const std::string& name, std::vector<double> values,
              const std::string& unit);
  void check_value(const std::string& name, const std::string& value);
  /// Records one attempted operation; a false `ok` counts it as failed and
  /// keeps `what` as the reason.
  void attempt(bool ok, const std::string& what = "");
  void fail(const std::string& what) { attempt(false, what); }
  /// Records `n` operations that completed.
  void succeeded(std::uint64_t n) { attempted_ += n; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// The whole report as one JSON object.
  std::string to_json(const Options& opt) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> checks_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Adds peak_rss_mb, the larger of this process's lifetime peak RSS and
/// that of its largest child, and the two separately.  (A per-repetition
/// peak swings by a third between runs of one seed with the allocator's
/// and the lanes' timing; the lifetime peak settles.)
void report_rss(Report& report);

/// Adds error_rate: failed / attempted operations so far.
void report_error_rate(Report& report);

/// Monotonic wall clock in seconds (arbitrary epoch).
double now_s();

/// User+system CPU seconds of this process plus its reaped children.
double cpu_now_s();
/// User+system CPU seconds of the calling thread.
double thread_cpu_s();

/// Peak resident set size in MB of this process and of its largest reaped
/// child (getrusage ru_maxrss), over their whole lifetime.
double peak_rss_self_mb();
double peak_rss_children_mb();

/// Order statistics over a copy of `v` (linear interpolation between
/// closest ranks); 0 for an empty vector.
double percentile(std::vector<double> v, double p);
double median(const std::vector<double>& v);

/// The highest of p99.9/p99/p95/p90/p75 that leaves at least ten of `n`
/// samples above it, or 0 when even p75 does not.
double tail_percentile(std::size_t n);

/// 64-bit FNV-1a, incrementally.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t len);
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof(v));
  }
  std::string hex() const;
};

/// FNV-1a digest of a file's bytes; empty string when it cannot be read.
std::string file_digest(const std::string& path);

/// Fixed-precision decimal, for check values that must compare as text.
std::string fixed(double v, int decimals);

}  // namespace perfbench
