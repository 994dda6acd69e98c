#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::timing(const std::string& name, std::vector<double> values,
                    const std::string& unit) {
  const std::size_t n = values.size();
  if (n == 0) return;
  metric(name + ".p50", median(values), unit, n);
  const double p = tail_percentile(n);
  if (p > 0.0) {
    std::ostringstream label;
    label << name << ".p" << p;
    metric(label.str(), percentile(std::move(values), p), unit, n);
  }
}

void Report::check_value(const std::string& name, const std::string& value) {
  checks_[name] = value;
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 50) failures_.push_back(what);
  }
}

std::string Report::to_json(const Options& opt) const {
  std::ostringstream os;
  os << "{\"workload\": \"" << json_escape(opt.workload)
     << "\", \"seed\": " << opt.seed << ", \"trace\": "
     << (opt.trace ? 1 : 0) << ", \"lanes\": " << opt.lanes
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << "\"" << json_escape(name)
       << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
       << json_escape(m.unit) << "\", \"samples\": " << m.samples << "}";
    first = false;
  }
  os << "}, \"checks\": {";
  first = true;
  for (const auto& [name, v] : checks_) {
    os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": \""
       << json_escape(v) << "\"";
    first = false;
  }
  os << "}, \"failures\": [";
  first = true;
  for (const auto& f : failures_) {
    os << (first ? "" : ", ") << "\"" << json_escape(f) << "\"";
    first = false;
  }
  os << "]}";
  return os.str();
}

void report_rss(Report& report) {
  const double self = peak_rss_self_mb();
  const double children = peak_rss_children_mb();
  report.metric("peak_rss_mb", std::max(self, children), "MB");
  report.metric("rss_self_mb", self, "MB");
  report.metric("rss_children_mb", children, "MB");
}

void report_error_rate(Report& report) {
  report.metric("error_rate",
                static_cast<double>(report.failed()) /
                    static_cast<double>(
                        std::max<std::uint64_t>(report.attempted(), 1)),
                "ratio", report.attempted());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv_s(self.ru_utime) + tv_s(self.ru_stime) +
         tv_s(children.ru_utime) + tv_s(children.ru_stime);
}

double thread_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double peak_rss_self_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double peak_rss_children_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0.0;
}

void Digest::add(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  Digest d;
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    d.add(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return d.hex();
}

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace perfbench
