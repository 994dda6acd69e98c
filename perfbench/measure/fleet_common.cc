#include "fleet_common.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "analysis/loss_assoc.h"
#include "core/clock_model.h"
#include "core/sync_controller.h"
#include "core/tc_filter.h"
#include "fleet/aggregate.h"
#include "fleet/dataset_view.h"
#include "fleet/fleet_runner.h"
#include "fleet/fluid_rack.h"
#include "fleet/shard.h"
#include "util/rng.h"

namespace perfbench {

namespace fleet = msamp::fleet;
namespace core = msamp::core;
namespace analysis = msamp::analysis;
namespace sim = msamp::sim;

namespace {

constexpr int kRacksPerRegion = 16;
constexpr int kHours = 24;
constexpr int kSamples = 700;

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

/// The window RNG exactly as the fleet runner derives it: keyed on
/// (seed, rack_id, hour), never on execution order.
msamp::util::Rng window_rng(std::uint64_t seed, int rack_id, int hour) {
  return msamp::util::Rng(fnv_step(
      fnv_step(seed, static_cast<std::uint64_t>(rack_id) + 1000003),
      static_cast<std::uint64_t>(hour) + 17));
}

/// A 128-bit flow sketch with about `connections` bits set, so the replayed
/// tally folds a realistic sketch into each bucket.
void sketch_from(double connections, std::uint64_t out[2]) {
  const int bits = std::clamp(static_cast<int>(connections + 0.5), 0, 128);
  out[0] = bits >= 64 ? ~0ULL : (bits == 0 ? 0ULL : (~0ULL >> (64 - bits)));
  out[1] = bits <= 64 ? 0ULL : (~0ULL >> (128 - bits));
}

}  // namespace

TracingSink::TracingSink(fleet::WindowSink& inner, Tracer& tracer, int parent)
    : inner_(inner), tracer_(tracer), parent_(parent), last_(now_s()) {}

void TracingSink::on_window(std::size_t window,
                            fleet::WindowRecords&& records) {
  const double t0 = now_s();
  waits_ms_.push_back((t0 - last_) * 1e3);
  {
    Tracer::Scope span(&tracer_, "fleet.sink",
                       static_cast<std::int64_t>(window), parent_);
    inner_.on_window(window, std::move(records));
  }
  last_ = now_s();
  calls_ms_.push_back((last_ - t0) * 1e3);
}

fleet::FleetConfig day_config(std::uint64_t seed, int lanes) {
  fleet::FleetConfig cfg;
  cfg.seed = seed;
  cfg.racks_per_region = kRacksPerRegion;
  cfg.hours = kHours;
  cfg.samples_per_run = kSamples;
  cfg.threads = lanes;
  return cfg;
}

double time_placement(const fleet::FleetConfig& cfg, Tracer* tracer) {
  const double t0 = now_s();
  {
    Tracer::Scope span(tracer, "workload.placement");
    const auto racks = fleet::fleet_racks(cfg);
  }
  return (now_s() - t0) * 1e3;
}

DayRun generate_day(const fleet::FleetConfig& cfg, const std::string& path,
                    Tracer* tracer, Report& report) {
  DayRun out;
  const double c0 = cpu_now_s();
  const double t0 = now_s();
  fleet::Dataset ds;
  {
    Tracer::Scope day(tracer, "fleet.day");
    fleet::DatasetBuilder builder(cfg);
    if (tracer == nullptr) {
      fleet::run_fleet(cfg, fleet::ShardSpec{}, builder);
    } else {
      TracingSink sink(builder, *tracer, day.id());
      std::vector<double> progress_at;
      double last_fraction = 0.0;
      bool monotone = true;
      fleet::run_fleet(cfg, fleet::ShardSpec{}, sink, [&](double f) {
        monotone = monotone && f > last_fraction;
        last_fraction = f;
        progress_at.push_back(now_s());
      });
      report.attempt(monotone && last_fraction == 1.0 &&
                         progress_at.size() == sink.calls_ms().size(),
                     "run_fleet progress was not a strictly increasing "
                     "stream ending at 1.0 with one call per window");
      std::vector<double> gaps;
      for (std::size_t i = 1; i < progress_at.size(); ++i) {
        gaps.push_back((progress_at[i] - progress_at[i - 1]) * 1e3);
      }
      report.timing("fleet.sink_ms_per_window", sink.calls_ms(), "ms");
      report.timing("fleet.sink_wait_ms", sink.waits_ms(), "ms");
      report.timing("fleet.window_done_gap_ms", gaps, "ms");
    }
    ds = builder.take();
  }
  {
    Tracer::Scope save(tracer, "fleet.save");
    if (auto st = ds.save(path); !st) {
      report.fail("Dataset::save: " + st.to_string());
    }
  }
  out.wall_s = now_s() - t0;
  out.cpu_s = cpu_now_s() - c0;
  out.windows = ds.window_counts.size();
  std::error_code ec;
  out.bytes = std::filesystem::file_size(path, ec);
  out.digest = file_digest(path);
  return out;
}

void check_day_outputs(const DayRun& day, Report& report,
                       const std::string& prefix) {
  report.check_value(prefix + ".digest", day.digest);
  report.check_value(prefix + ".bytes", std::to_string(day.bytes));
  report.check_value(prefix + ".windows", std::to_string(day.windows));
}

void replay_windows(const fleet::FleetConfig& cfg,
                    const std::string& dataset_path, double budget_s,
                    std::uint64_t seed, Tracer& tracer, Report& report) {
  fleet::DatasetView view;
  {
    Tracer::Scope span(&tracer, "fleet.open_mapped");
    if (auto st = fleet::Dataset::open_mapped(dataset_path, &view); !st) {
      report.fail("open_mapped: " + st.to_string());
      return;
    }
  }
  {
    Tracer::Scope span(&tracer, "fleet.class_map");
    const fleet::ClassMap classes = fleet::build_class_map(view);
    report.attempt(classes.size() == view.racks().size(),
                   "build_class_map lost racks");
  }
  report.timing("fleet.class_map_ms", tracer.durations_ms("fleet.class_map"),
                "ms");
  const std::vector<msamp::workload::RackMeta> racks = fleet::fleet_racks(cfg);
  const analysis::BurstDetectConfig burst_cfg = cfg.burst_config();
  const std::size_t total = view.num_windows();

  // A seeded visiting order over the whole day.
  std::vector<std::size_t> order(total);
  std::iota(order.begin(), order.end(), std::size_t{0});
  msamp::util::Rng pick(seed ^ 0x5eedULL);
  pick.shuffle(order);

  constexpr std::size_t kMinWindows = 8;
  std::vector<double> tc_batch_ns, ns_per_server_ms;
  std::size_t replayed = 0, bursts_total = 0, mismatches = 0;
  const double t_end = now_s() + budget_s;
  for (std::size_t w : order) {
    if (replayed >= kMinWindows && now_s() >= t_end) break;
    const int hour = static_cast<int>(w / racks.size());
    const auto& rack = racks[w % racks.size()];
    const auto wid = static_cast<std::int64_t>(w);
    Tracer::Scope window_span(&tracer, "replay.window", wid);

    const msamp::util::Rng rng = window_rng(cfg.seed, rack.rack_id, hour);
    std::unique_ptr<fleet::FluidRack> fluid;
    {
      Tracer::Scope span(&tracer, "fleet.fluid_ctor", wid);
      fluid = std::make_unique<fleet::FluidRack>(rack, cfg, hour, rng);
    }
    fleet::FluidRackResult res;
    {
      Tracer::Scope span(&tracer, "fleet.fluid_run", wid);
      const double t0 = now_s();
      res = fluid->run();
      const double steps =
          static_cast<double>(rack.server_kind.size()) *
          static_cast<double>(cfg.warmup_ms + cfg.samples_per_run + 1);
      ns_per_server_ms.push_back((now_s() - t0) * 1e9 / steps);
    }
    const core::SyncRun& sync = res.sync;
    const auto n_servers = static_cast<int>(sync.num_servers());

    // The measurement half of the window, replayed from its aligned
    // series: per-server filters with the window's clock skews.
    msamp::util::Rng clock_seed = rng;
    msamp::util::Rng clock_rng = clock_seed.fork(0x17);
    const core::ClockModel clocks(cfg.clocks, n_servers, clock_rng);
    std::vector<core::RunRecord> records(static_cast<std::size_t>(n_servers));
    {
      core::TcFilterConfig fc;
      fc.num_cpus = cfg.filter_cpus;
      fc.num_buckets = cfg.samples_per_run;
      std::vector<std::unique_ptr<core::TcFilter>> filters;
      for (int s = 0; s < n_servers; ++s) {
        filters.push_back(std::make_unique<core::TcFilter>(fc));
      }
      {
        Tracer::Scope span(&tracer, "core.tc_batch", wid);
        const double t0 = now_s();
        std::size_t calls = 0;
        for (auto& f : filters) f->enable(sim::kMillisecond);
        for (std::size_t k = 0; k < sync.num_samples(); ++k) {
          const sim::SimTime now =
              sync.grid_start + static_cast<sim::SimTime>(k) * sim::kMillisecond;
          for (int s = 0; s < n_servers; ++s) {
            const core::BucketSample& b =
                sync.series[static_cast<std::size_t>(s)][k];
            core::SegmentBatch batch;
            batch.in_bytes = b.in_bytes;
            batch.in_retx_bytes = b.in_retx_bytes;
            batch.in_ecn_bytes = b.in_ecn_bytes;
            batch.out_bytes = b.out_bytes;
            sketch_from(b.connections, batch.sketch);
            filters[static_cast<std::size_t>(s)]->process_batch(
                0, batch, now + clocks.offset(s));
            ++calls;
          }
        }
        tc_batch_ns.push_back((now_s() - t0) * 1e9 /
                              static_cast<double>(std::max<std::size_t>(calls, 1)));
      }
      Tracer::Scope span(&tracer, "core.read_aggregated", wid);
      for (int s = 0; s < n_servers; ++s) {
        auto& r = records[static_cast<std::size_t>(s)];
        const auto& f = *filters[static_cast<std::size_t>(s)];
        r.host = static_cast<msamp::net::HostId>(s);
        r.start = f.start_time();
        r.interval = sim::kMillisecond;
        r.buckets = f.read_aggregated();
      }
    }
    {
      Tracer::Scope span(&tracer, "core.combine_runs", wid);
      const core::SyncRun again = core::combine_runs(records);
      if (again.num_servers() != sync.num_servers()) {
        report.fail("replayed combine_runs lost servers");
      }
    }

    // Distillation on the window's own sync run, as simulate_window does.
    analysis::ContentionSummary cs;
    {
      Tracer::Scope span(&tracer, "analysis.contention", wid);
      const std::vector<int> contention =
          analysis::contention_series(sync, burst_cfg);
      cs = analysis::summarize_contention(contention);
    }
    std::size_t bursts = 0, bursty_servers = 0, lossy_bursts = 0;
    {
      Tracer::Scope span(&tracer, "analysis.bursts", wid);
      for (const auto& series : sync.series) {
        const auto found = analysis::detect_bursts(series, burst_cfg);
        const auto stats = analysis::server_run_stats(series, found, burst_cfg);
        bursts += found.size();
        bursty_servers += stats.bursty ? 1 : 0;
        if (found.empty()) continue;
        for (bool l : analysis::lossy_bursts(series, found, cfg.loss)) {
          lossy_bursts += l ? 1 : 0;
        }
      }
    }
    bursts_total += bursts;
    ++replayed;

    // Cross-check against the dataset's records for this window.
    const fleet::WindowView wv = view.window(w);
    bool same = wv.has_run == (sync.num_samples() > 0) &&
                wv.bursts.size() == bursts &&
                wv.server_runs.size() == sync.num_servers();
    if (same) {
      std::size_t stored_bursty = 0, stored_lossy = 0;
      for (auto b : wv.server_runs.bursty) stored_bursty += b ? 1 : 0;
      for (auto l : wv.bursts.lossy) stored_lossy += l ? 1 : 0;
      same = stored_bursty == bursty_servers && stored_lossy == lossy_bursts;
    }
    if (same && wv.has_run) {
      same = wv.rack_run.avg_contention[0] == static_cast<float>(cs.avg) &&
             wv.rack_run.p90_contention[0] == cs.p90 &&
             wv.rack_run.max_contention[0] == cs.max &&
             wv.rack_run.min_active_contention[0] == cs.min_active &&
             wv.rack_run.usable[0] == (cs.usable() ? 1 : 0) &&
             wv.key.rack_id == static_cast<std::uint32_t>(rack.rack_id) &&
             wv.key.hour == hour;
    }
    if (!same) ++mismatches;
    report.attempt(same, "replayed window " + std::to_string(w) +
                             " disagrees with the dataset (contention "
                             "summary or burst count)");
  }

  report.metric("replay.windows", static_cast<double>(replayed), "count");
  report.metric("replay.mismatches", static_cast<double>(mismatches), "count");
  report.timing("fleet.fluid_ctor_ms", tracer.durations_ms("fleet.fluid_ctor"),
                "ms");
  report.timing("fleet.fluid_run_ms", tracer.durations_ms("fleet.fluid_run"),
                "ms");
  report.timing("fleet.fluid_ns_per_server_ms", ns_per_server_ms, "ns");
  report.timing("core.tc_batch_ns", tc_batch_ns, "ns");
  report.timing("core.read_aggregated_ms",
                tracer.durations_ms("core.read_aggregated"), "ms");
  report.timing("core.combine_runs_ms",
                tracer.durations_ms("core.combine_runs"), "ms");
  report.timing("analysis.contention_ms",
                tracer.durations_ms("analysis.contention"), "ms");
  report.timing("analysis.bursts_ms", tracer.durations_ms("analysis.bursts"),
                "ms");
  report.metric("analysis.bursts_per_window",
                static_cast<double>(bursts_total) /
                    static_cast<double>(std::max<std::size_t>(replayed, 1)),
                "count", replayed);
  report.timing("fleet.open_mapped_ms",
                tracer.durations_ms("fleet.open_mapped"), "ms");
}

}  // namespace perfbench
