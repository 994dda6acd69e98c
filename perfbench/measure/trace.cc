#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common.h"

namespace perfbench {
namespace {

/// Open spans of the current thread, innermost last.
thread_local std::vector<int> t_open;

}  // namespace

int Tracer::begin(const std::string& name, std::int64_t window, int parent) {
  if (parent < -1) parent = t_open.empty() ? -1 : t_open.back();
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent, window});
  const int id = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const double t = now_s();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  const auto it = std::find(t_open.rbegin(), t_open.rend(), id);
  if (it != t_open.rend()) t_open.erase(std::next(it).base());
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end - s.start) * 1e3);
  }
  return out;
}

std::vector<double> Tracer::self_times() const {
  // Children grouped by parent; each parent's self time is its duration
  // minus the union of its children's intervals clipped to it.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = self_times();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms += (spans_[i].end - spans_[i].start) * 1e3;
    t.self_ms += self[i] * 1e3;
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times();
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "id,parent,name,window,start_us,end_us,self_us\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), ",%.3f,%.3f,%.3f\n",
                  (s.start - t0) * 1e6, (s.end - t0) * 1e6, self[i] * 1e6);
    out << i << "," << s.parent << "," << s.name << "," << s.window << buf;
  }
  return static_cast<bool>(out);
}

void report_self_times(const Tracer& tracer, Report& report) {
  for (const auto& [name, t] : tracer.totals()) {
    report.metric("self_ms." + name,
                  t.self_ms / static_cast<double>(std::max<std::size_t>(t.count, 1)),
                  "ms", t.count);
  }
  report.metric("trace.spans", static_cast<double>(tracer.size()), "count");
}

void write_trace(const Tracer& tracer, const Options& opt, Report& report) {
  const std::string path = opt.work_dir + "/trace_" + opt.workload + ".csv";
  report.attempt(tracer.write_csv(path), "cannot write " + path);
}

}  // namespace perfbench
