// In-memory span recorder for the traced run.  A span is (name, start,
// end, parent, window id); spans are kept in memory and written out when
// the run ends.  Spans wrap calls into the library's public functions from
// the benchmark's own code — the library itself is not instrumented.
//
// A span's parent defaults to the innermost span open on the same thread;
// spans opened on another thread (the fleet runner's sink consumer) name
// their parent explicitly.  Self time is a span's duration minus the part
// of it its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Report;
struct Options;

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds, steady clock
    double end = 0.0;
    int parent = -1;
    std::int64_t window = -1;  ///< canonical window id, -1 if none
  };

  /// Opens a span; returns its id.  `parent` < -1 means "the innermost
  /// span open on this thread".
  int begin(const std::string& name, std::int64_t window = -1,
            int parent = -2);
  void end(int id);

  /// RAII span; a null tracer makes it a no-op, so untraced code paths
  /// share the traced ones.
  class Scope {
   public:
    Scope(Tracer* t, const std::string& name, std::int64_t window = -1,
          int parent = -2)
        : t_(t), id_(t != nullptr ? t->begin(name, window, parent) : -1) {}
    ~Scope() {
      if (t_ != nullptr) t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer* t_;
    int id_;
  };

  /// Durations (ms) of every closed span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Per span name: count, total and self milliseconds.
  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> totals() const;

  std::size_t size() const;

  /// Writes every span as CSV (id,parent,name,window,start_us,end_us,
  /// self_us), start times relative to the first span.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<double> self_times() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Adds `self_ms.<span name>` (mean self time per span) for every span
/// name, and the span count.
void report_self_times(const Tracer& tracer, Report& report);

/// Writes the spans to `<work_dir>/trace_<workload>.csv`.
void write_trace(const Tracer& tracer, const Options& opt, Report& report);

}  // namespace perfbench
