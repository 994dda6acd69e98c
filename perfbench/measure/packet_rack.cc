// packet_rack: racks at packet level — sim::Simulator, net::Rack,
// PacketRackDriver DCTCP traffic and a core::Sampler per server (TcFilter
// per packet) — then combine_runs and the contention/burst analyses.
// Each rack has the shape of bench_crosscheck_fluid_vs_packet: 16 servers,
// 400 1ms buckets per sampler run, 500 ms of offered traffic, simulated
// until the event queue drains.  A round simulates a panel of racks, each
// seeded from (seed, k), so the seed-to-seed swing of one rack's traffic
// evens out.  Every round at one seed must reproduce each rack's event
// count and byte statistics exactly.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "analysis/loss_assoc.h"
#include "core/sampler.h"
#include "core/sync_controller.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/diurnal.h"
#include "workload/packet_rack_driver.h"
#include "workloads.h"

namespace perfbench {

namespace core = msamp::core;
namespace analysis = msamp::analysis;
namespace sim = msamp::sim;
namespace workload = msamp::workload;

namespace {

constexpr int kServers = 16;
constexpr int kSamples = 400;  ///< 1ms buckets per sampler run
constexpr int kTrafficMs = kSamples + 100;
constexpr int kGraceMs = 50;
constexpr int kRacksPerLane = 4;  ///< panel size, per lane
constexpr int kMinRounds = 2;
constexpr int kSetupReps = 11;

/// One rack collection's outputs and timings.
struct PacketRun {
  double sim_s = 0.0;   ///< Simulator::run, until the event queue drains
  double wall_s = 0.0;  ///< the whole collection, build to analysis
  double cpu_s = 0.0;   ///< CPU of the lane that ran it
  int reported = 0;     ///< samplers that delivered their run
  std::uint64_t events = 0;
  std::int64_t delivered = 0, retx = 0, drop = 0;
  std::size_t bursts = 0;
  std::string outputs;  ///< the values that must repeat exactly
};

/// The seed picks the rack's task mix; traffic draws from the same seed.
std::vector<workload::TaskKind> task_mix(std::uint64_t seed) {
  msamp::util::Rng rng(seed);
  const workload::TaskKind kinds[] = {
      workload::TaskKind::kMlTraining, workload::TaskKind::kCache,
      workload::TaskKind::kWeb, workload::TaskKind::kStorage};
  std::vector<workload::TaskKind> tasks;
  for (int s = 0; s < kServers; ++s) tasks.push_back(kinds[s % 4]);
  rng.shuffle(tasks);
  return tasks;
}

/// The rack under test: topology, one Sampler per server and the
/// PacketRackDriver traffic, ready to start.
struct Bench {
  sim::Simulator simulator;
  std::unique_ptr<msamp::net::Rack> rack;
  std::vector<std::unique_ptr<core::Sampler>> samplers;
  std::unique_ptr<workload::PacketRackDriver> traffic;

  Bench(std::uint64_t seed, Tracer* tracer) {
    {
      Tracer::Scope span(tracer, "net.rack_build");
      msamp::net::RackConfig rack_cfg;
      rack_cfg.num_servers = kServers;
      rack_cfg.num_remote_hosts = 48;
      rack = std::make_unique<msamp::net::Rack>(simulator, rack_cfg);
      core::SamplerConfig sampler_cfg;
      sampler_cfg.filter.num_buckets = kSamples;
      sampler_cfg.filter.num_cpus = 2;
      sampler_cfg.grace = kGraceMs * sim::kMillisecond;
      for (int s = 0; s < kServers; ++s) {
        samplers.push_back(std::make_unique<core::Sampler>(
            simulator, rack->server(s), 0, sampler_cfg));
      }
    }
    Tracer::Scope span(tracer, "workload.traffic_build");
    workload::PacketRackDriverConfig traffic_cfg;
    traffic_cfg.server_tasks = task_mix(seed);
    traffic_cfg.intensity = 1.8;
    traffic_cfg.diurnal =
        workload::diurnal_multiplier(workload::RegionId::kRegA, 6);
    traffic = std::make_unique<workload::PacketRackDriver>(
        simulator, *rack, traffic_cfg, msamp::util::Rng(seed));
  }
};

/// The seed of rack k of the panel at `seed`.
std::uint64_t rack_seed(std::uint64_t seed, std::size_t k) {
  return seed * 1000003 + k;
}

/// Set-up cost: building (and tearing down) every rack of the panel.
double build_panel_once(std::uint64_t seed, std::size_t panel) {
  const double t0 = now_s();
  for (std::size_t k = 0; k < panel; ++k) {
    const Bench bench(rack_seed(seed, k), nullptr);
  }
  return now_s() - t0;
}

PacketRun run_once(std::uint64_t seed, Tracer* tracer) {
  PacketRun out;
  const double c0 = thread_cpu_s();
  const double t0 = now_s();
  Tracer::Scope rack_span(tracer, "packet.rack");
  Bench bench(seed, tracer);
  sim::Simulator& simulator = bench.simulator;

  std::vector<core::RunRecord> records(kServers);
  int& reported = out.reported;
  for (int s = 0; s < kServers; ++s) {
    bench.samplers[static_cast<std::size_t>(s)]->start_run(
        sim::kMillisecond,
        [&records, &reported, s](const core::RunRecord& r) {
          records[static_cast<std::size_t>(s)] = r;
          ++reported;
        });
  }
  {
    Tracer::Scope span(tracer, "sim.run");
    const double r0 = now_s();
    bench.traffic->start(kTrafficMs * sim::kMillisecond);
    simulator.run();
    out.sim_s = now_s() - r0;
  }
  out.events = simulator.dispatched();
  out.delivered = bench.traffic->total_delivered();
  out.retx = bench.traffic->total_retx_bytes();
  out.drop = bench.rack->tor().mmu().total_dropped_bytes();

  core::SyncRun sync;
  {
    Tracer::Scope span(tracer, "core.combine_runs");
    sync = core::combine_runs(records);
  }
  const analysis::BurstDetectConfig cfg{.line_rate_gbps = 12.5,
                                        .interval = sim::kMillisecond};
  analysis::ContentionSummary cs;
  {
    Tracer::Scope span(tracer, "analysis.contention");
    cs = analysis::summarize_contention(analysis::contention_series(sync, cfg));
  }
  std::size_t lossy = 0, bursty = 0;
  {
    Tracer::Scope span(tracer, "analysis.bursts");
    for (const auto& series : sync.series) {
      const auto found = analysis::detect_bursts(series, cfg);
      const auto stats = analysis::server_run_stats(series, found, cfg);
      bursty += stats.bursty ? 1 : 0;
      out.bursts += found.size();
      if (found.empty()) continue;
      for (bool l : analysis::lossy_bursts(series, found, {})) lossy += l;
    }
  }
  out.cpu_s = thread_cpu_s() - c0;
  out.wall_s = now_s() - t0;
  out.outputs = std::to_string(out.events) + "/" +
                std::to_string(out.delivered) + "/" +
                std::to_string(out.retx) + "/" + std::to_string(out.drop) +
                "/" + std::to_string(sync.num_samples()) + "/" +
                std::to_string(out.bursts) + "/" + std::to_string(lossy) +
                "/" + std::to_string(bursty) + "/" + fixed(cs.avg, 6);
  return out;
}

/// One pass over the panel, racks spread over the lanes: rack k is seeded
/// from (seed, k).
struct Round {
  std::vector<PacketRun> racks;
  double wall_s = 0.0, mb = 0.0, cpu_s = 0.0;
};

Round run_round(std::uint64_t seed, std::size_t panel, Tracer* tracer,
                msamp::util::ThreadPool& pool) {
  Round round;
  round.racks.resize(panel);
  const double t0 = now_s();
  pool.parallel_for(panel, [&](std::size_t k) {
    round.racks[k] = run_once(rack_seed(seed, k), tracer);
  });
  round.wall_s = now_s() - t0;
  for (const PacketRun& r : round.racks) {
    round.mb += static_cast<double>(r.delivered) / 1e6;
    round.cpu_s += r.cpu_s;
  }
  return round;
}

/// Every rack of `r` must have collected all its samplers' runs and
/// reproduced its outputs in `first`.
void check_outputs(const Round& r, const Round& first, Report& report) {
  for (std::size_t k = 0; k < r.racks.size(); ++k) {
    const PacketRun& p = r.racks[k];
    report.attempt(p.reported == kServers,
                   "packet_rack rack " + std::to_string(k) + ": " +
                       std::to_string(p.reported) + " of " +
                       std::to_string(kServers) + " samplers reported");
    report.attempt(p.outputs == first.racks[k].outputs,
                   "packet_rack rack " + std::to_string(k) + " produced " +
                       p.outputs + " after " + first.racks[k].outputs);
  }
}

/// The panel's totals, and a digest of every rack's outputs.
void record_outputs(const Round& r, Report& report) {
  std::uint64_t events = 0;
  std::int64_t delivered = 0, retx = 0, drop = 0;
  Digest d;
  for (const PacketRun& p : r.racks) {
    events += p.events;
    delivered += p.delivered;
    retx += p.retx;
    drop += p.drop;
    d.add(p.outputs.data(), p.outputs.size());
  }
  report.check_value("sim.events", std::to_string(events));
  report.check_value("transport.delivered_bytes", std::to_string(delivered));
  report.check_value("transport.retx_bytes", std::to_string(retx));
  report.check_value("net.drop_bytes", std::to_string(drop));
  report.check_value("packet.outputs_digest", d.hex());
}

}  // namespace

void run_packet_rack(const Options& opt, Report& report) {
  const auto panel = static_cast<std::size_t>(kRacksPerLane * opt.lanes);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_s.push_back(build_panel_once(opt.seed, panel));
  }
  msamp::util::ThreadPool pool(opt.lanes);
  const double t_end = now_s() + opt.seconds;
  if (!opt.trace) {
    // Each rack's collection and CPU time is the median over rounds; the
    // panel's rates are totals over those medians, so a slow stretch of
    // the host only costs the racks that ran during it one sample each.
    // The rates are per lane: how fast one collection runs beside the
    // others.
    std::vector<std::vector<double>> wall_s(panel), cpu_s(panel);
    std::vector<double> rack_s;
    Round first;
    int rounds = 0;
    for (; rounds < kMinRounds || now_s() < t_end; ++rounds) {
      Round r = run_round(opt.seed, panel, nullptr, pool);
      check_outputs(r, rounds == 0 ? r : first, report);
      for (std::size_t k = 0; k < panel; ++k) {
        wall_s[k].push_back(r.racks[k].wall_s);
        cpu_s[k].push_back(r.racks[k].cpu_s);
        rack_s.push_back(r.racks[k].wall_s);
      }
      if (rounds == 0) first = std::move(r);
    }
    double wall_total = 0.0, cpu_total = 0.0;
    for (std::size_t k = 0; k < panel; ++k) {
      wall_total += median(wall_s[k]);
      cpu_total += median(cpu_s[k]);
    }
    // Simulated rack-milliseconds: each rack's offered-traffic span (the
    // event queue drains long after it, on transport timers alone).
    const double sim_ms = static_cast<double>(panel) * kTrafficMs;
    record_outputs(first, report);
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
    report.metric("sim_ms_per_s", sim_ms / wall_total, "1/s", rack_s.size());
    report.metric("sim_mb_per_s", first.mb / wall_total, "1/s",
                  rack_s.size());
    report.metric("cpu_ms_per_sim_mb", cpu_total * 1e3 / first.mb, "ms",
                  rack_s.size());
    report.timing("rack_s", rack_s, "s");
    report_rss(report);
    report_error_rate(report);
    return;
  }

  // Untraced and traced rounds alternate; their difference is the
  // overhead of tracing.
  Tracer tracer;
  std::vector<double> plain_rate, traced_rate;
  Round first, traced;
  for (int rep = 0; rep < 1 || now_s() < t_end; ++rep) {
    Round plain = run_round(opt.seed, panel, nullptr, pool);
    check_outputs(plain, rep == 0 ? plain : first, report);
    if (rep == 0) first = plain;
    traced = run_round(opt.seed, panel, &tracer, pool);
    check_outputs(traced, first, report);
    plain_rate.push_back(plain.mb / plain.wall_s);
    traced_rate.push_back(traced.mb / traced.wall_s);
  }
  record_outputs(first, report);
  std::vector<double> events, bursts, ns_per_event;
  for (const PacketRun& p : traced.racks) {
    events.push_back(static_cast<double>(p.events));
    bursts.push_back(static_cast<double>(p.bursts));
    ns_per_event.push_back(p.sim_s * 1e9 / static_cast<double>(p.events));
  }
  report.metric("sim.events", median(events), "count", events.size());
  report.timing("sim.ns_per_event", ns_per_event, "ns");
  report.timing("sim.run_ms", tracer.durations_ms("sim.run"), "ms");
  report.timing("net.rack_build_ms", tracer.durations_ms("net.rack_build"),
                "ms");
  report.timing("workload.traffic_build_ms",
                tracer.durations_ms("workload.traffic_build"), "ms");
  report.timing("core.sampler_combine_ms",
                tracer.durations_ms("core.combine_runs"), "ms");
  report.timing("core.combine_runs_ms", tracer.durations_ms("core.combine_runs"),
                "ms");
  report.timing("analysis.contention_ms",
                tracer.durations_ms("analysis.contention"), "ms");
  report.timing("analysis.bursts_ms", tracer.durations_ms("analysis.bursts"),
                "ms");
  report.metric("analysis.bursts_per_window", median(bursts), "count",
                bursts.size());
  report.metric("util.cpu_util", traced.cpu_s / (traced.wall_s * opt.lanes),
                "ratio");
  report.metric("trace.untraced_sim_mb_per_s", median(plain_rate), "1/s",
                plain_rate.size());
  report.metric("trace.traced_sim_mb_per_s", median(traced_rate), "1/s",
                traced_rate.size());
  report.metric("trace.overhead_pct",
                100.0 * (median(plain_rate) / median(traced_rate) - 1.0), "%",
                plain_rate.size());
  report_self_times(tracer, report);
  write_trace(tracer, opt, report);
  report_rss(report);
}

}  // namespace perfbench
