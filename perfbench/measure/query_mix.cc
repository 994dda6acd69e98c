// query_mix: one closed-loop client querying a day built during set-up
// (the fleet_day shape with a quarter of its racks, at a fixed seed).
// Each round sends every query kind once, in a seeded order and with
// seeded parameters: the dataset-level aggregations of fleet/aggregate.h,
// a filtered WindowView scan (as `msampctl query` does) and a burst
// listing rendered through util::Table into a null stream.
#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "fleet/aggregate.h"
#include "fleet/dataset_view.h"
#include "fleet_common.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/diurnal.h"
#include "workloads.h"

namespace perfbench {

namespace fleet = msamp::fleet;
namespace analysis = msamp::analysis;

namespace {

constexpr int kSetupReps = 3;
/// Alternating untraced/traced slices of the traced run's query loop.
constexpr int kOverheadSlices = 10;

/// The day every query_mix run serves.  The run's seed drives the client
/// (query order and parameters); the day itself is fixed, because every
/// query's cost follows the day's size and a seeded day's burst count
/// swings by a third between seeds.  It has a quarter of the fleet_day
/// racks (a 2.4 MB file against 9 MB): in runs alternating the two sizes
/// on a shared host, the whole day's query rate fell by 35 % within two
/// minutes while the quarter day's fell by 6 %.
constexpr std::uint64_t kDaySeed = 42;
constexpr int kDayRacksPerRegion = 4;

/// A stream that discards its text but digests it.
class DigestBuf : public std::streambuf {
 public:
  Digest digest;

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) {
      const char c = static_cast<char>(ch);
      digest.add(&c, 1);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    digest.add(s, static_cast<std::size_t>(n));
    return n;
  }
};

enum Kind {
  kTable2,
  kLossByContention,
  kLossByLength,
  kLossByConnections,
  kBusyHour,
  kWindowScan,
  kRender,
  kNumKinds
};

constexpr std::array<const char*, kNumKinds> kKindNames = {
    "table2",        "loss_by_contention", "loss_by_length",
    "loss_by_connections", "busy_hour",    "window_scan",
    "render"};

/// One query's answer: a digest of its result values and how many records
/// it read.
struct Answer {
  Digest digest;
  std::size_t records = 0;
  bool ok = true;
  std::string why;
};

void add_buckets(Digest& d, const std::vector<fleet::LossBucket>& buckets) {
  for (const auto& b : buckets) {
    d.add_value(b.lo);
    d.add_value(b.hi);
    d.add_value(b.bursts);
    d.add_value(b.lossy);
  }
}

/// The query set over one mapped day.
class QuerySet {
 public:
  QuerySet(const fleet::DatasetView& view, const fleet::ClassMap& classes)
      : view_(view), classes_(classes) {}

  /// Draws parameters for `kind` from `rng` and returns a key naming them.
  Answer run(Kind kind, msamp::util::Rng& rng, std::string* key) const {
    const auto cls = static_cast<analysis::RackClass>(
        rng.uniform_int(analysis::kNumRackClasses));
    const auto filter = static_cast<fleet::BurstFilter>(rng.uniform_int(3));
    const int region = static_cast<int>(rng.uniform_int(3)) - 1;  // -1 = any
    const int hour = static_cast<int>(rng.uniform_int(view_.config().hours));
    Answer a;
    *key = std::string(kKindNames[kind]);
    switch (kind) {
      case kTable2: {
        const auto rows = fleet::table2_summary(view_, classes_);
        long total = 0;
        for (const auto& r : rows) {
          a.digest.add_value(r.bursts);
          a.digest.add_value(r.contended);
          a.digest.add_value(r.lossy);
          total += r.bursts;
        }
        a.records = view_.bursts().size();
        a.ok = total == static_cast<long>(view_.bursts().size());
        a.why = "table2_summary totals " + std::to_string(total) +
                " != burst count " + std::to_string(view_.bursts().size());
        break;
      }
      case kLossByContention: {
        const int bin = 1 << rng.uniform_int(3);
        *key += "/" + std::to_string(static_cast<int>(cls)) + "/" +
                std::to_string(bin);
        add_buckets(a.digest,
                    fleet::loss_by_contention(view_, classes_, cls, bin, 32));
        a.records = view_.bursts().size();
        break;
      }
      case kLossByLength: {
        const int max_len = 10 + 10 * static_cast<int>(rng.uniform_int(2));
        *key += "/" + std::to_string(static_cast<int>(cls)) + "/" +
                std::to_string(static_cast<int>(filter)) + "/" +
                std::to_string(max_len);
        add_buckets(a.digest, fleet::loss_by_length(view_, classes_, cls,
                                                    filter, max_len));
        a.records = view_.bursts().size();
        break;
      }
      case kLossByConnections: {
        const int bin = 5 * (1 + static_cast<int>(rng.uniform_int(2)));
        *key += "/" + std::to_string(static_cast<int>(cls)) + "/" +
                std::to_string(static_cast<int>(filter)) + "/" +
                std::to_string(bin);
        add_buckets(a.digest, fleet::loss_by_connections(
                                  view_, classes_, cls, filter, bin, 16));
        a.records = view_.bursts().size();
        break;
      }
      case kBusyHour: {
        const auto r = static_cast<msamp::workload::RegionId>(
            region < 0 ? 0 : region);
        const int h = rng.bernoulli(0.5) ? msamp::workload::kBusyHour : hour;
        *key += "/" + std::to_string(static_cast<int>(r)) + "/" +
                std::to_string(h);
        for (double v : fleet::busy_hour_contention(view_, r, h)) {
          a.digest.add_value(v);
        }
        a.records = view_.rack_runs().size();
        break;
      }
      case kWindowScan: {
        const int want_class =
            rng.bernoulli(0.5) ? -1 : static_cast<int>(cls);
        const int want_hour = rng.bernoulli(0.5) ? -1 : hour;
        *key += "/" + std::to_string(region) + "/" +
                std::to_string(want_hour) + "/" + std::to_string(want_class);
        long runs = 0, server_runs = 0, bursts = 0, contended = 0, lossy = 0;
        std::vector<double> contentions;
        for (std::size_t i = 0; i < view_.num_windows(); ++i) {
          const fleet::WindowView w = view_.window(i);
          ++a.records;
          if (region >= 0 && w.key.region != region) continue;
          if (want_hour >= 0 && w.key.hour != want_hour) continue;
          if (want_class >= 0 &&
              static_cast<int>(view_.class_of(w.key.rack_id)) != want_class) {
            continue;
          }
          runs += static_cast<long>(w.rack_run.size());
          server_runs += static_cast<long>(w.server_runs.size());
          bursts += static_cast<long>(w.bursts.size());
          for (auto c : w.bursts.contended) contended += c ? 1 : 0;
          for (auto l : w.bursts.lossy) lossy += l ? 1 : 0;
          if (w.has_run) contentions.push_back(w.rack_run.avg_contention[0]);
          a.records += w.server_runs.size() + w.bursts.size();
        }
        for (long v : {runs, server_runs, bursts, contended, lossy}) {
          a.digest.add_value(v);
        }
        a.digest.add_value(msamp::util::canonical_sum(contentions));
        break;
      }
      case kRender: {
        const int r = region < 0 ? 0 : region;
        *key += "/" + std::to_string(r) + "/" + std::to_string(hour);
        msamp::util::Table table({"window", "rack", "class", "hour",
                                  "len (ms)", "volume (B)", "max contention",
                                  "avg conns", "contended", "lossy"});
        for (std::size_t i = 0; i < view_.num_windows(); ++i) {
          const fleet::WindowView w = view_.window(i);
          if (w.key.region != r || w.key.hour != hour) continue;
          for (std::size_t b = 0; b < w.bursts.size(); ++b) {
            table.row()
                .cell(static_cast<long long>(w.index))
                .cell(static_cast<long long>(w.bursts.rack_id[b]))
                .cell(std::string(analysis::rack_class_name(
                    view_.class_of(w.bursts.rack_id[b]))))
                .cell(static_cast<long long>(w.bursts.hour[b]))
                .cell(static_cast<long long>(w.bursts.len_ms[b]))
                .cell(w.bursts.volume_bytes[b], 0)
                .cell(static_cast<long long>(w.bursts.max_contention[b]))
                .cell(w.bursts.avg_conns[b], 1)
                .cell(w.bursts.contended[b] ? "yes" : "no")
                .cell(w.bursts.lossy[b] ? "yes" : "no");
          }
        }
        DigestBuf sink;
        std::ostream out(&sink);
        table.print(out);
        a.digest = sink.digest;
        a.records = table.rows();
        break;
      }
      case kNumKinds:
        break;
    }
    return a;
  }

 private:
  const fleet::DatasetView& view_;
  const fleet::ClassMap& classes_;
};

/// The closed loop: runs rounds of all kinds for `seconds`.  Per kind,
/// the latency of every query; every answer's digest must match the first
/// answer to the same parameters.
struct LoopResult {
  std::vector<double> latency_ms;
  std::array<std::vector<double>, kNumKinds> by_kind;
  std::size_t records = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

LoopResult closed_loop(const QuerySet& qs, std::uint64_t seed, double seconds,
                       Tracer* tracer, std::map<std::string, std::string>& seen,
                       Report& report) {
  LoopResult out;
  msamp::util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<int> order(kNumKinds);
  for (int k = 0; k < kNumKinds; ++k) order[static_cast<std::size_t>(k)] = k;
  const double c0 = cpu_now_s();
  const double t0 = now_s();
  const double t_end = t0 + seconds;
  while (now_s() < t_end) {
    rng.shuffle(order);
    for (int k : order) {
      const auto kind = static_cast<Kind>(k);
      std::string key;
      const double q0 = now_s();
      Answer a;
      {
        Tracer::Scope span(tracer, std::string("query.") + kKindNames[kind]);
        a = qs.run(kind, rng, &key);
      }
      const double ms = (now_s() - q0) * 1e3;
      out.latency_ms.push_back(ms);
      out.by_kind[kind].push_back(ms);
      out.records += a.records;
      const std::string digest = a.digest.hex();
      const auto [it, fresh] = seen.emplace(key, digest);
      report.attempt(a.ok && it->second == digest,
                     a.ok ? "query " + key + " answered " + digest +
                                " after " + it->second
                          : a.why);
    }
  }
  out.wall_s = now_s() - t0;
  out.cpu_s = cpu_now_s() - c0;
  return out;
}

}  // namespace

void run_query_mix(const Options& opt, Report& report) {
  fleet::FleetConfig cfg = day_config(kDaySeed, opt.lanes);
  cfg.racks_per_region = kDayRacksPerRegion;
  const std::string path = opt.work_dir + "/query_day.bin";
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;

  // Set-up, several times: build the day, save it, map it, classify racks.
  // Every build must produce the same bytes.
  std::vector<double> setup_s;
  std::string first_digest;
  DayRun day;
  fleet::DatasetView view;
  fleet::ClassMap classes;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = now_s();
    day = generate_day(cfg, path, tr, report);
    view = fleet::DatasetView();
    {
      Tracer::Scope span(tr, "fleet.open_mapped");
      if (auto st = fleet::Dataset::open_mapped(path, &view); !st) {
        report.fail("open_mapped: " + st.to_string());
        return;
      }
    }
    {
      Tracer::Scope span(tr, "fleet.class_map");
      classes = fleet::build_class_map(view);
    }
    setup_s.push_back(now_s() - t0);
    if (i == 0) first_digest = day.digest;
    report.attempt(day.digest == first_digest,
                   "query_mix set-up built different days");
  }
  check_day_outputs(day, report, "query_day");
  report.check_value("query_day.bursts", std::to_string(view.bursts().size()));

  const QuerySet qs(view, classes);
  std::map<std::string, std::string> seen;
  if (!opt.trace) {
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
    const LoopResult loop =
        closed_loop(qs, opt.seed, opt.seconds, nullptr, seen, report);
    const auto n = static_cast<double>(loop.latency_ms.size());
    // The loop's mean rate: round times cluster by which hour's bursts the
    // render query lists, so a median round jumps between clusters.
    report.metric("queries_per_s", n / loop.wall_s, "1/s",
                  loop.latency_ms.size());
    report.timing("query_ms", loop.latency_ms, "ms");
    report.metric("cpu_ms_per_query", loop.cpu_s * 1e3 / n, "ms",
                  loop.latency_ms.size());
    report.metric("query.records_per_s",
                  static_cast<double>(loop.records) / loop.wall_s, "1/s",
                  loop.latency_ms.size());
    report.metric("util.cpu_util", loop.cpu_s / loop.wall_s, "ratio");
    for (int k = 0; k < kNumKinds; ++k) {
      report.timing(std::string("query.") + kKindNames[static_cast<std::size_t>(k)] + "_ms",
                    loop.by_kind[static_cast<std::size_t>(k)], "ms");
    }
    report_rss(report);
    report_error_rate(report);
  } else {
    report.timing("fleet.open_mapped_ms",
                  tracer.durations_ms("fleet.open_mapped"), "ms");
    report.timing("fleet.class_map_ms", tracer.durations_ms("fleet.class_map"),
                  "ms");
    report.timing("fleet.save_ms", tracer.durations_ms("fleet.save"), "ms");
    // Untraced and traced slices of the loop alternate, each slice sending
    // the same seeded queries; the ratio of their median query rates is
    // the tracing overhead.
    std::vector<double> plain_qps, traced_qps;
    LoopResult traced;
    for (int i = 0; i < kOverheadSlices; ++i) {
      const double slice_s = opt.seconds / (4.0 * kOverheadSlices);
      const LoopResult plain =
          closed_loop(qs, opt.seed, slice_s, nullptr, seen, report);
      plain_qps.push_back(static_cast<double>(plain.latency_ms.size()) /
                          plain.wall_s);
      const LoopResult t =
          closed_loop(qs, opt.seed, slice_s, &tracer, seen, report);
      traced_qps.push_back(static_cast<double>(t.latency_ms.size()) /
                           t.wall_s);
      traced.latency_ms.insert(traced.latency_ms.end(), t.latency_ms.begin(),
                               t.latency_ms.end());
      traced.records += t.records;
      traced.wall_s += t.wall_s;
      traced.cpu_s += t.cpu_s;
    }
    report.metric("trace.untraced_queries_per_s", median(plain_qps), "1/s",
                  plain_qps.size());
    report.metric("trace.traced_queries_per_s", median(traced_qps), "1/s",
                  traced_qps.size());
    report.metric("trace.overhead_pct",
                  100.0 * (median(plain_qps) / median(traced_qps) - 1.0), "%",
                  traced_qps.size());
    report.metric("util.cpu_util", traced.cpu_s / traced.wall_s, "ratio");
    for (int k = 0; k < kNumKinds; ++k) {
      const std::string name =
          std::string("query.") + kKindNames[static_cast<std::size_t>(k)];
      report.timing(name + "_ms", tracer.durations_ms(name), "ms");
    }
    report.metric("query.records_per_s",
                  static_cast<double>(traced.records) / traced.wall_s, "1/s",
                  traced.latency_ms.size());
    // The day's windows replayed and cross-checked, as on fleet_day.
    replay_windows(cfg, path, opt.seconds / 2, opt.seed, tracer, report);
    report_self_times(tracer, report);
    write_trace(tracer, opt, report);
    report_rss(report);
  }
  report.metric("query.distinct_keys", static_cast<double>(seen.size()),
                "count");
  // One probe per kind with parameters drawn from the seed alone, so its
  // answer can be compared across runs.
  for (int k = 0; k < kNumKinds; ++k) {
    msamp::util::Rng rng(opt.seed);
    std::string key;
    const Answer a = qs.run(static_cast<Kind>(k), rng, &key);
    report.attempt(a.ok, a.why);
    report.check_value("query." + key, a.digest.hex());
  }
}

}  // namespace perfbench
