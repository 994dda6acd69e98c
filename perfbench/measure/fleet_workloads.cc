// fleet_day and cluster_day: the same benchmark day generated in-process
// on the thread pool (run_fleet -> DatasetBuilder -> Dataset::save) and
// through the cluster coordinator with single-threaded worker processes
// (SpillSink shards -> merge_shards).  Both must write the same bytes.
#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/process.h"
#include "fleet/fleet_runner.h"
#include "fleet/merge.h"
#include "fleet/shard.h"
#include "fleet/spill_sink.h"
#include "fleet_common.h"
#include "util/simd/simd.h"
#include "workloads.h"

namespace perfbench {

namespace fleet = msamp::fleet;
namespace cluster = msamp::cluster;
namespace fs = std::filesystem;

namespace {

/// Repetitions of a set-up step whose median is reported as setup_s.
constexpr int kSetupReps = 101;
/// Timed repetitions always run at least this many times, even past the
/// time budget, so a median exists.
constexpr int kMinReps = 3;

void report_setup(Report& report, const std::vector<double>& setup_s) {
  report.metric("setup_s", median(setup_s), "s", setup_s.size());
}

// --------------------------------------------------------------- fleet_day

/// What fleet_day sets up before generating: the rack placement and the
/// dataset builder (which distils the rack table).  The lane pool is left
/// out: on a shared host, starting and joining its threads varied more
/// from run to run than placement and the builder cost together.
double fleet_setup_once(const fleet::FleetConfig& cfg) {
  const double t0 = now_s();
  {
    const auto racks = fleet::fleet_racks(cfg);
    const fleet::DatasetBuilder builder(cfg);
  }
  return now_s() - t0;
}

}  // namespace

void run_fleet_day(const Options& opt, Report& report) {
  const fleet::FleetConfig cfg = day_config(opt.seed, opt.lanes);
  const std::string path = opt.work_dir + "/fleet_day.bin";
  if (!opt.trace) {
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; ++i) {
      setup_s.push_back(fleet_setup_once(cfg));
    }
    report_setup(report, setup_s);
    std::vector<double> windows_per_s, cpu_ms, day_s, util;
    DayRun last = generate_day(cfg, path, nullptr, report);  // warm-up
    const std::string first_digest = last.digest;
    const double t_end = now_s() + opt.seconds;
    for (int rep = 0; rep < kMinReps || now_s() < t_end; ++rep) {
      last = generate_day(cfg, path, nullptr, report);
      const auto windows = static_cast<double>(last.windows);
      windows_per_s.push_back(windows / last.wall_s);
      cpu_ms.push_back(last.cpu_s * 1e3 / windows);
      day_s.push_back(last.wall_s);
      util.push_back(last.cpu_s / (last.wall_s * (opt.lanes + 1)));
      report.succeeded(last.windows);
      report.attempt(last.digest == first_digest,
                     "fleet_day repetition " + std::to_string(rep) +
                         " wrote a different dataset");
    }
    report_rss(report);
    report.metric("windows_per_s", median(windows_per_s), "1/s",
                  windows_per_s.size());
    report.metric("cpu_ms_per_window", median(cpu_ms), "ms", cpu_ms.size());
    report.timing("day_s", day_s, "s");
    report.metric("util.cpu_util", median(util), "ratio", util.size());
    check_day_outputs(last, report);
    report_error_rate(report);
    return;
  }

  Tracer tracer;
  report.metric("workload.placement_ms", time_placement(cfg, &tracer), "ms");
  // Untraced and traced days alternate; their difference is the overhead
  // of tracing at the sink/progress boundaries.
  std::vector<double> plain_wps, traced_wps, util;
  DayRun day;
  for (int rep = 0; rep < 2; ++rep) {
    Report scratch;
    const DayRun plain = generate_day(cfg, path, nullptr, scratch);
    plain_wps.push_back(static_cast<double>(plain.windows) / plain.wall_s);
    day = generate_day(cfg, path, &tracer, report);
    traced_wps.push_back(static_cast<double>(day.windows) / day.wall_s);
    util.push_back(day.cpu_s / (day.wall_s * (opt.lanes + 1)));
    report.attempt(plain.digest == day.digest,
                   "traced and untraced days wrote different datasets");
  }
  report.metric("trace.untraced_windows_per_s", median(plain_wps), "1/s",
                plain_wps.size());
  report.metric("trace.traced_windows_per_s", median(traced_wps), "1/s",
                traced_wps.size());
  report.metric("trace.overhead_pct",
                100.0 * (median(plain_wps) / median(traced_wps) - 1.0), "%",
                plain_wps.size());
  report.metric("util.cpu_util", median(util), "ratio", util.size());
  report.timing("fleet.save_ms", tracer.durations_ms("fleet.save"), "ms");
  report.metric("fleet.bytes_per_window",
                static_cast<double>(day.bytes) /
                    static_cast<double>(std::max<std::size_t>(day.windows, 1)),
                "bytes", day.windows);
  replay_windows(cfg, path, opt.seconds, opt.seed, tracer, report);
  check_day_outputs(day, report);
  report_self_times(tracer, report);
  write_trace(tracer, opt, report);
  report_rss(report);
}

// ------------------------------------------------------------- cluster_day

namespace {

/// An ostream that timestamps each complete line written to it.
class TimestampedLog : public std::streambuf {
 public:
  struct Line {
    double at = 0.0;
    std::string text;
  };
  std::vector<Line> lines;

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return ch;
    if (ch == '\n') {
      lines.push_back({now_s(), partial_});
      partial_.clear();
    } else {
      partial_ += static_cast<char>(ch);
    }
    return ch;
  }

 private:
  std::string partial_;
};

/// Per-shard schedule reconstructed from the coordinator's log: first
/// spawn to done, and the number of attempts.
struct ShardTimes {
  double started = -1.0;
  double done = -1.0;
  int attempts = 0;
};

std::map<int, ShardTimes> parse_shards(
    const std::vector<TimestampedLog::Line>& lines) {
  std::map<int, ShardTimes> out;
  for (const auto& l : lines) {
    // "cluster: shard I/N attempt K started (pid P)" / "... done (attempt K)"
    int index = 0, count = 0, attempt = 0;
    if (std::sscanf(l.text.c_str(), "cluster: shard %d/%d attempt %d started",
                    &index, &count, &attempt) == 3) {
      ShardTimes& s = out[index];
      if (s.started < 0) s.started = l.at;
      s.attempts = std::max(s.attempts, attempt);
    } else if (std::sscanf(l.text.c_str(), "cluster: shard %d/%d done",
                           &index, &count) == 2) {
      out[index].done = l.at;
    }
  }
  return out;
}

/// The worker argv: the built msampctl in its worker role, single-threaded,
/// with the CLI-expressible fields of `cfg` (the default policy flags).
std::vector<std::string> worker_command(const Options& opt,
                                        const fleet::FleetConfig& cfg,
                                        const fleet::ShardSpec& shard,
                                        std::uint32_t attempt,
                                        const std::string& out) {
  return {opt.msampctl,
          "worker",
          "--seed",
          std::to_string(cfg.seed),
          "--racks",
          std::to_string(cfg.racks_per_region),
          "--hours",
          std::to_string(cfg.hours),
          "--samples",
          std::to_string(cfg.samples_per_run),
          "--threads",
          "1",
          "--shard",
          std::to_string(shard.index) + "/" + std::to_string(shard.count),
          "--out",
          out,
          "--attempt",
          std::to_string(attempt)};
}

struct ClusterRun {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< self + reaped workers
  std::string digest;
  std::vector<TimestampedLog::Line> log;
  fleet::MergeStats stats;
};

ClusterRun run_cluster_once(const Options& opt, const fleet::FleetConfig& cfg,
                            const std::string& out, bool keep_shards) {
  ClusterRun r;
  std::error_code ec;
  fs::remove(out, ec);
  cluster::ClusterConfig cc;
  cc.fleet = cfg;
  cc.workers = opt.lanes;
  cc.out_path = out;
  cc.shard_dir = opt.work_dir + "/cluster_shards";
  cc.keep_shards = keep_shards;
  cc.spawn_command = [&opt, &cfg](const fleet::ShardSpec& shard,
                                  std::uint32_t attempt,
                                  const std::string& shard_out) {
    return worker_command(opt, cfg, shard, attempt, shard_out);
  };
  TimestampedLog buf;
  std::ostream log(&buf);
  const double c0 = cpu_now_s();
  const double t0 = now_s();
  cluster::Coordinator coordinator(cc);
  r.ok = coordinator.run(nullptr, &log, &r.error);
  r.wall_s = now_s() - t0;
  r.cpu_s = cpu_now_s() - c0;
  r.stats = coordinator.stats();
  r.digest = r.ok ? file_digest(out) : "";
  r.log = std::move(buf.lines);
  return r;
}

/// Counts the windows, and every worker attempt beyond a shard's first as a
/// failed operation.
void account_cluster_run(const ClusterRun& r, Report& report) {
  report.attempt(r.ok, "cluster run failed: " + r.error);
  report.succeeded(r.stats.windows);
  for (const auto& [index, s] : parse_shards(r.log)) {
    for (int a = 1; a < s.attempts; ++a) {
      report.fail("shard " + std::to_string(index) + " needed attempt " +
                  std::to_string(a + 1));
    }
  }
}

/// cluster_day set-up: start the worker binary once (`msampctl version`,
/// whose SIMD path must match this process's) and place the racks.
double cluster_setup_once(const Options& opt, const fleet::FleetConfig& cfg,
                          Report& report, bool record) {
  const double t0 = now_s();
  cluster::ChildProcess child;
  std::string err, out;
  if (!child.spawn({opt.msampctl, "version"}, &err)) {
    report.fail("cannot start " + opt.msampctl + ": " + err);
    return 0.0;
  }
  while (child.read_available(&out)) {
    pollfd fd{child.stdout_fd(), POLLIN, 0};
    ::poll(&fd, 1, 100);
  }
  int status = 0;
  while (!child.try_wait(&status)) {
    ::poll(nullptr, 0, 1);
  }
  const auto racks = fleet::fleet_racks(cfg);
  const double dt = now_s() - t0;
  if (record) {
    const std::string active =
        msamp::util::simd::path_name(msamp::util::simd::active_path());
    const bool same = out.find("simd-active") != std::string::npos &&
                      out.find(" " + active + " ") != std::string::npos;
    report.attempt(cluster::exited_ok(status) && same && !racks.empty(),
                   "worker binary's `version` disagrees with this process "
                   "(simd-active " + active + ")");
  }
  return dt;
}

/// Shard 0 of the cluster day generated in-process on one lane into a
/// SpillSink, as a worker does.  With a tracer the sink is wrapped in a
/// TracingSink and the call is a span.
struct ShardRun {
  double wall_s = 0.0;
  std::vector<double> calls_ms, waits_ms;  ///< traced only
};

ShardRun spill_shard0(const fleet::FleetConfig& cfg, std::uint32_t shards,
                      const std::string& path, Tracer* tracer,
                      Report& report) {
  ShardRun out;
  const fleet::ShardSpec spec{0, shards};
  const double t0 = now_s();
  {
    Tracer::Scope shard_span(tracer, "cluster.shard0");
    fleet::SpillSink spill(cfg, spec, path);
    if (tracer == nullptr) {
      fleet::run_fleet(cfg, spec, spill);
    } else {
      TracingSink sink(spill, *tracer, shard_span.id());
      fleet::run_fleet(cfg, spec, sink);
      out.calls_ms = sink.calls_ms();
      out.waits_ms = sink.waits_ms();
    }
    Tracer::Scope span(tracer, "fleet.finalize");
    if (auto st = spill.finalize(); !st) {
      report.fail("SpillSink::finalize: " + st.to_string());
    }
  }
  out.wall_s = now_s() - t0;
  return out;
}

}  // namespace

void run_cluster_day(const Options& opt, Report& report) {
  const fleet::FleetConfig cfg = day_config(opt.seed, 1);
  const std::string out = opt.work_dir + "/cluster_day.bin";
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_s.push_back(cluster_setup_once(opt, cfg, report, i == 0));
  }
  const double busy = opt.lanes + 1;  // workers + the coordinator

  if (!opt.trace) {
    std::vector<double> windows_per_s, cpu_ms, day_s, util;
    const ClusterRun warm = run_cluster_once(opt, cfg, out, false);
    account_cluster_run(warm, report);
    const std::string first_digest = warm.digest;
    const double t_end = now_s() + opt.seconds;
    for (int rep = 0; warm.ok && (rep < kMinReps || now_s() < t_end); ++rep) {
      const ClusterRun r = run_cluster_once(opt, cfg, out, false);
      account_cluster_run(r, report);
      if (!r.ok) break;
      const auto windows = static_cast<double>(r.stats.windows);
      windows_per_s.push_back(windows / r.wall_s);
      cpu_ms.push_back(r.cpu_s * 1e3 / windows);
      day_s.push_back(r.wall_s);
      util.push_back(r.cpu_s / (r.wall_s * busy));
      report.attempt(r.digest == first_digest,
                     "cluster_day repetition " + std::to_string(rep) +
                         " wrote a different dataset");
    }
    report_rss(report);
    report_setup(report, setup_s);
    report.metric("windows_per_s", median(windows_per_s), "1/s",
                  windows_per_s.size());
    report.metric("cpu_ms_per_window", median(cpu_ms), "ms", cpu_ms.size());
    report.timing("day_s", day_s, "s");
    report.metric("util.cpu_util", median(util), "ratio", util.size());
  } else {
    Tracer tracer;
    report.metric("workload.placement_ms", time_placement(cfg, &tracer), "ms");
    // A cluster day whose shards are kept for the separately timed merge;
    // the coordinator's log is timestamped.
    const ClusterRun r = run_cluster_once(opt, cfg, out, true);
    account_cluster_run(r, report);
    std::vector<double> shard_s;
    double attempts = 0.0;
    const auto shards = parse_shards(r.log);
    for (const auto& [index, s] : shards) {
      if (s.done >= s.started && s.started >= 0) {
        shard_s.push_back(s.done - s.started);
      }
      attempts += s.attempts;
    }
    if (!shard_s.empty()) {
      report.metric("cluster.shard_s.max",
                    *std::max_element(shard_s.begin(), shard_s.end()), "s",
                    shard_s.size());
      report.metric("cluster.shard_s.min",
                    *std::min_element(shard_s.begin(), shard_s.end()), "s",
                    shard_s.size());
    }
    report.metric("cluster.attempts_per_shard",
                  attempts / static_cast<double>(std::max<std::size_t>(
                                 shards.size(), 1)),
                  "count", shards.size());
    report.metric("util.cpu_util", r.cpu_s / (r.wall_s * busy), "ratio");

    // The streaming merge, timed on the kept shard files.
    std::vector<std::string> shard_paths;
    for (int i = 0; i < opt.lanes; ++i) {
      shard_paths.push_back(opt.work_dir + "/cluster_shards/shard-" +
                            std::to_string(i) + ".bin");
    }
    const std::string remerged = opt.work_dir + "/cluster_remerged.bin";
    {
      Tracer::Scope span(&tracer, "fleet.merge");
      fleet::MergeStats stats;
      if (auto st = fleet::merge_shards(shard_paths, remerged, &stats); !st) {
        report.fail("merge_shards: " + st.to_string());
      }
    }
    report.attempt(file_digest(remerged) == r.digest,
                   "re-merging the kept shards changed the bytes");
    report.timing("fleet.merge_ms", tracer.durations_ms("fleet.merge"), "ms");

    // Shard 0 in-process on one lane, alternately into a plain SpillSink
    // and through a TracingSink, until the time budget is spent: the ratio
    // of their medians is the overhead of tracing.  Every file must equal
    // the worker's shard 0.
    const std::string shard0 = opt.work_dir + "/cluster_shard0.bin";
    const std::string worker_shard0 = file_digest(shard_paths[0]);
    const auto shard_count = static_cast<std::uint32_t>(opt.lanes);
    std::vector<double> plain_s, traced_s, calls_ms, waits_ms;
    const double t_end = now_s() + opt.seconds;
    for (int rep = 0; rep < kMinReps || now_s() < t_end; ++rep) {
      plain_s.push_back(
          spill_shard0(cfg, shard_count, shard0, nullptr, report).wall_s);
      report.attempt(file_digest(shard0) == worker_shard0,
                     "the in-process shard 0 differs from the worker's");
      const ShardRun traced =
          spill_shard0(cfg, shard_count, shard0, &tracer, report);
      traced_s.push_back(traced.wall_s);
      calls_ms.insert(calls_ms.end(), traced.calls_ms.begin(),
                      traced.calls_ms.end());
      waits_ms.insert(waits_ms.end(), traced.waits_ms.begin(),
                      traced.waits_ms.end());
      report.attempt(file_digest(shard0) == worker_shard0,
                     "the traced in-process shard 0 differs from the worker's");
    }
    const double shard_windows =
        static_cast<double>(calls_ms.size()) /
        static_cast<double>(traced_s.size());
    report.metric("trace.untraced_windows_per_s",
                  shard_windows / median(plain_s), "1/s", plain_s.size());
    report.metric("trace.traced_windows_per_s",
                  shard_windows / median(traced_s), "1/s", traced_s.size());
    report.metric("trace.overhead_pct",
                  100.0 * (median(traced_s) / median(plain_s) - 1.0), "%",
                  traced_s.size());
    report.timing("fleet.sink_ms_per_window", calls_ms, "ms");
    report.timing("fleet.sink_wait_ms", waits_ms, "ms");
    report.timing("fleet.finalize_ms", tracer.durations_ms("fleet.finalize"),
                  "ms");
    std::error_code ec;
    fs::remove_all(opt.work_dir + "/cluster_shards", ec);

    replay_windows(cfg, out, opt.seconds, opt.seed, tracer, report);
    report_self_times(tracer, report);
    write_trace(tracer, opt, report);
    report_rss(report);
  }

  // The same day in-process on the pool: byte-identical to the cluster's.
  Report scratch;
  const DayRun ref = generate_day(day_config(opt.seed, opt.lanes),
                                  opt.work_dir + "/cluster_reference.bin",
                                  nullptr, scratch);
  const std::string cluster_digest = file_digest(out);
  report.attempt(ref.digest == cluster_digest && !ref.digest.empty(),
                 "cluster_day and the in-process day differ (" +
                     cluster_digest + " vs " + ref.digest + ")");
  check_day_outputs(ref, report);
  if (!opt.trace) report_error_rate(report);
}

}  // namespace perfbench
