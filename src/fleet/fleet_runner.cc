#include "fleet/fleet_runner.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <ranges>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/burst_stats.h"
#include "analysis/contention.h"
#include "analysis/loss_assoc.h"
#include "fleet/dataset_view.h"
#include "fleet/fluid_rack.h"
#include "fleet/spill_sink.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/diurnal.h"
#include "workload/placement.h"

namespace msamp::fleet {
namespace {

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

/// Captures a Figure-5-style exemplar from a sync run.
ExemplarRun make_exemplar(const core::SyncRun& sync,
                          const std::vector<int>& contention,
                          const analysis::BurstDetectConfig& cfg,
                          std::uint32_t rack_id, float avg) {
  ExemplarRun ex;
  ex.rack_id = rack_id;
  ex.avg_contention = avg;
  ex.num_servers = static_cast<std::uint16_t>(sync.num_servers());
  ex.num_samples = static_cast<std::uint16_t>(sync.num_samples());
  const std::int64_t threshold = analysis::burst_threshold_bytes(cfg);
  ex.raster.reserve(static_cast<std::size_t>(ex.num_servers) * ex.num_samples);
  for (const auto& series : sync.series) {
    for (const auto& s : series) {
      ex.raster.push_back(s.in_bytes > threshold ? 1 : 0);
    }
  }
  ex.contention.reserve(contention.size());
  for (int c : contention) {
    ex.contention.push_back(static_cast<std::uint16_t>(c));
  }
  return ex;
}

/// Simulates one window and runs the analysis pipeline on it.  Depends
/// only on (config, rack, hour) — the RNG forks from the master seed keyed
/// on (rack_id, hour), never on execution order — so windows can run on
/// any thread in any order.
WindowRecords simulate_window(const FleetConfig& config,
                              const analysis::BurstDetectConfig& burst_cfg,
                              const workload::RackMeta& rack, int hour,
                              FluidWorkspace& workspace) {
  WindowRecords out;
  util::Rng rng(fnv_step(fnv_step(config.seed, static_cast<std::uint64_t>(
                                                   rack.rack_id) +
                                                   1000003),
                         static_cast<std::uint64_t>(hour) + 17));
  FluidRack fluid(rack, config, hour, rng);
  const FluidRackResult& res = fluid.run(workspace);
  const core::SyncRun& sync = res.sync;
  if (sync.num_samples() == 0) return out;
  out.has_run = true;

  const std::vector<int> contention =
      analysis::contention_series(sync, burst_cfg);
  const analysis::ContentionSummary cs =
      analysis::summarize_contention(contention);

  RackRunRecord& rr = out.rack_run;
  rr.rack_id = static_cast<std::uint32_t>(rack.rack_id);
  rr.region = static_cast<std::uint8_t>(rack.region);
  rr.hour = static_cast<std::uint8_t>(hour);
  rr.usable = cs.usable() ? 1 : 0;
  rr.avg_contention = static_cast<float>(cs.avg);
  rr.min_active_contention = static_cast<std::uint16_t>(cs.min_active);
  rr.p90_contention = static_cast<std::uint16_t>(cs.p90);
  rr.max_contention = static_cast<std::uint16_t>(cs.max);
  rr.in_bytes = static_cast<double>(res.delivered_bytes);
  rr.drop_bytes = static_cast<double>(res.drop_bytes);
  rr.ecn_bytes = static_cast<double>(res.ecn_bytes);

  for (std::size_t s = 0; s < sync.num_servers(); ++s) {
    const auto& series = sync.series[s];
    const auto bursts = analysis::detect_bursts(series, burst_cfg);
    const auto stats = analysis::server_run_stats(series, bursts, burst_cfg);
    ServerRunRecord sr;
    sr.rack_id = rr.rack_id;
    sr.region = rr.region;
    sr.hour = rr.hour;
    sr.bursty = stats.bursty ? 1 : 0;
    sr.avg_util = static_cast<float>(stats.avg_util);
    sr.util_inside = static_cast<float>(stats.util_inside);
    sr.util_outside = static_cast<float>(stats.util_outside);
    sr.bursts_per_sec = static_cast<float>(stats.bursts_per_sec);
    sr.conns_inside = static_cast<float>(stats.conns_inside);
    sr.conns_outside = static_cast<float>(stats.conns_outside);
    out.server_runs.push_back(sr);

    if (bursts.empty()) continue;
    const auto lossy = analysis::lossy_bursts(series, bursts, config.loss);
    for (std::size_t b = 0; b < bursts.size(); ++b) {
      BurstRecord rec;
      rec.rack_id = rr.rack_id;
      rec.region = rr.region;
      rec.hour = rr.hour;
      rec.len_ms = static_cast<std::uint16_t>(bursts[b].len);
      rec.volume_bytes = static_cast<float>(bursts[b].volume_bytes);
      const std::size_t b_lo = bursts[b].start;
      const std::size_t b_hi =
          std::min(bursts[b].start + bursts[b].len, contention.size());
      int max_cont = 0;
      for (std::size_t k = b_lo; k < b_hi; ++k) {
        max_cont = std::max(max_cont, contention[k]);
      }
      const double conns = util::canonical_sum_over(
          std::views::iota(b_lo, b_hi),
          [&](std::size_t k) { return series[k].connections; });
      rec.max_contention = static_cast<std::uint16_t>(max_cont);
      rec.avg_conns =
          static_cast<float>(conns / static_cast<double>(bursts[b].len));
      rec.contended = max_cont >= 2 ? 1 : 0;
      rec.lossy = lossy[b] ? 1 : 0;
      out.bursts.push_back(rec);
    }
  }

  // Exemplar candidates for Figure 5 (captured during the busy hour).
  // Which candidate actually lands in the Dataset is decided by the sink's
  // canonical-order fold: the first qualifying window wins, exactly as in
  // a serial hour-by-hour, rack-by-rack sweep.
  if (hour == workload::kBusyHour) {
    const double high_cut = config.classify.high_threshold;
    if (cs.avg > 0.1 && cs.avg < high_cut / 4.0 && cs.max <= 4) {
      out.exemplar_kind |= kLowExemplar;
    }
    if (cs.avg > high_cut) {
      out.exemplar_kind |= kHighExemplar;
    }
    if (out.exemplar_kind != 0) {
      out.exemplar = make_exemplar(sync, contention, burst_cfg, rr.rack_id,
                                   rr.avg_contention);
    }
  }
  return out;
}

}  // namespace

// Bump whenever the workload/placement/fluid model changes in a way that
// alters generated data for an unchanged config, so stale disk caches are
// regenerated.  The rules:
//  - model/behavior change (same config, different records) -> bump this;
//  - new config knob entering the data -> add it to fingerprint() below
//    (which re-keys every cache on its own; no version bump needed) —
//    msamp_lint's fingerprint-coverage rule fails the build until every
//    FleetConfig field is either hashed here or `// fingerprint-exempt:`
//    at its declaration (docs/STATIC_ANALYSIS.md);
//  - wire-format change -> bump kVersion in dataset.cc instead.
// (Parallelization and sharding intentionally did NOT bump this: any
// thread count or shard split produces the same bytes as the serial
// sweep, so old caches stay valid across execution strategies.)
constexpr std::uint64_t kModelVersion = 9;

std::uint64_t FleetConfig::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_step(h, kModelVersion);
  h = fnv_step(h, seed);
  h = fnv_step(h, static_cast<std::uint64_t>(racks_per_region));
  h = fnv_step(h, static_cast<std::uint64_t>(servers_per_rack));
  h = fnv_step(h, static_cast<std::uint64_t>(hours));
  h = fnv_step(h, static_cast<std::uint64_t>(samples_per_run));
  h = fnv_step(h, static_cast<std::uint64_t>(warmup_ms));
  h = fnv_step(h, static_cast<std::uint64_t>(line_rate_gbps * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.total_bytes));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.alpha * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.ecn_threshold));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.reserve_per_queue));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.quadrants));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.burst_alpha_boost * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.delay.target_delay_ms * 1e6));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.delay.min_gain * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.delay.max_gain * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.delay.drain_gbps * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(filter_cpus));
  h = fnv_step(h, static_cast<std::uint64_t>(classify.high_threshold * 100));
  h = fnv_step(h, static_cast<std::uint64_t>(buffer.policy));
  h = fnv_step(h, fabric.enabled ? 1u : 0u);
  h = fnv_step(h, static_cast<std::uint64_t>(fabric.uplink_gbps));
  h = fnv_step(h, static_cast<std::uint64_t>(fabric.smoothing * 1000));
  h = fnv_step(h, static_cast<std::uint64_t>(rtt_ms * 1e6));
  h = fnv_step(h, static_cast<std::uint64_t>(mss));
  h = fnv_step(h, static_cast<std::uint64_t>(loss.rtt_shift_samples));
  h = fnv_step(h, static_cast<std::uint64_t>(loss.lag_samples));
  h = fnv_step(h, static_cast<std::uint64_t>(clocks.offset_stddev));
  h = fnv_step(h, static_cast<std::uint64_t>(clocks.offset_max));
  // `threads` is deliberately absent: thread count never changes the data
  // (and neither does the shard split — see docs/PERFORMANCE.md).
  return h;
}

void run_fleet(const FleetConfig& config, const ShardSpec& shard,
               WindowSink& sink, std::function<void(double)> progress) {
  if (!shard.valid()) {
    throw std::invalid_argument("invalid shard spec " +
                                std::to_string(shard.index) + "/" +
                                std::to_string(shard.count));
  }
  const std::vector<workload::RackMeta> racks = fleet_racks(config);
  const analysis::BurstDetectConfig burst_cfg = config.burst_config();

  // --- this shard's slice of the canonical window sequence ---
  // Window w covers hour (w / racks) and rack (w % racks): the same
  // hour-major, rack-minor order the serial sweep used.  Each window is
  // simulated independently (its RNG is keyed on (seed, rack_id, hour))
  // on whichever pool lane picks it up; completed windows are handed to
  // the sink strictly in canonical order.
  const std::size_t total_windows =
      racks.size() * static_cast<std::size_t>(config.hours);
  const std::size_t begin = shard.begin(total_windows);
  const std::size_t end = shard.end(total_windows);
  const std::size_t shard_windows = end - begin;

  util::ThreadPool pool(config.threads);
  const auto lanes = static_cast<std::size_t>(pool.size());
  // One workspace per lane: a lane runs one window at a time, so its
  // window buffers are allocated once and reused for every window it runs.
  std::vector<FluidWorkspace> workspaces(lanes);

  // In-order commit.  Lanes claim windows from the pool's shared counter
  // and simulate them out of order; a finished window parks in a bounded
  // reorder window of `capacity` slots (slot = index % capacity).  The
  // lane that parks the window at the cursor commits: it alone advances
  // the cursor, handing that window and every ready window behind it to
  // the sink in canonical order, until it finds the cursor's slot empty;
  // the next lane to park the window at the cursor takes over.  So sink
  // calls are serial and strictly canonical — the bytes cannot depend on
  // which lane ran which window, or in what order.  The committer releases
  // `mu` around each sink call, so a slow sink stalls only its own lane.
  // A lane that claims a window a full reorder window ahead of the cursor
  // waits on `slot_freed` until the cursor catches up, which bounds peak
  // memory at `capacity` window records independent of shard (or day)
  // size.  The window at the cursor never waits, so the run always makes
  // progress.
  const std::size_t capacity = std::max<std::size_t>(8 * lanes, 64);
  std::mutex mu;  // guards everything below
  std::vector<WindowRecords> slots(capacity);
  std::vector<unsigned char> ready(capacity, 0);
  std::condition_variable slot_freed;
  std::size_t cursor = 0;     // shard-relative index of the sink's next window
  std::size_t completed = 0;  // windows simulated so far (for progress)
  // Set when a window, the progress callback or the sink throws: waiting
  // lanes wake and leave, no later window reaches the sink, and
  // parallel_for rethrows the first exception on the calling thread.
  bool aborted = false;

  pool.parallel_for(
      shard_windows,
      std::function<void(int, std::size_t)>([&](int lane, std::size_t i) {
        {
          std::unique_lock<std::mutex> lock(mu);
          slot_freed.wait(lock,
                          [&] { return aborted || i < cursor + capacity; });
          if (aborted) return;
        }
        const std::size_t w = begin + i;
        const int hour = static_cast<int>(w / racks.size());
        WindowRecords records;
        try {
          records = simulate_window(config, burst_cfg, racks[w % racks.size()],
                                    hour,
                                    workspaces[static_cast<std::size_t>(lane)]);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mu);
            aborted = true;
          }
          slot_freed.notify_all();
          throw;
        }
        std::unique_lock<std::mutex> lock(mu);
        try {
          if (aborted) return;
          slots[i % capacity] = std::move(records);
          ready[i % capacity] = 1;
          if (progress) {
            // Called under `mu`, so serialized and strictly increasing:
            // each completion bumps the counter exactly once, and
            // total/total is exactly 1.0.
            ++completed;
            progress(static_cast<double>(completed) /
                     static_cast<double>(shard_windows));
          }
          if (i != cursor) return;
          while (!aborted && ready[cursor % capacity] != 0) {
            const std::size_t slot = cursor % capacity;
            const std::size_t window = begin + cursor;
            WindowRecords next = std::exchange(slots[slot], WindowRecords{});
            ready[slot] = 0;
            lock.unlock();
            sink.on_window(window, std::move(next));
            lock.lock();
            ++cursor;
            slot_freed.notify_all();
          }
        } catch (...) {
          if (!lock.owns_lock()) lock.lock();
          aborted = true;
          lock.unlock();
          slot_freed.notify_all();
          throw;
        }
      }));
  if (progress && shard_windows == 0) progress(1.0);
}

Dataset run_fleet(const FleetConfig& config,
                  std::function<void(double)> progress) {
  DatasetBuilder builder(config);
  run_fleet(config, ShardSpec{}, builder, std::move(progress));
  return builder.take();
}

namespace {

/// Serves the shared cache file for `config`: reuses it when the
/// fingerprint matches and it covers the full day (a partial shard file
/// is never silently served), otherwise regenerates it through a
/// SpillSink (bounded RSS even at cluster scale) and maps the result.
/// Callers hold the shared_* mutex.
util::Status ensure_cache_file(const FleetConfig& config,
                               const std::string& cache_path,
                               DatasetView* view) {
  if (Dataset::open_mapped(cache_path, view) &&
      view->fingerprint() == config.fingerprint() &&
      view->shard().full_range()) {
    return util::Status::ok();
  }
  SpillSink sink(config, ShardSpec{}, cache_path);
  run_fleet(config, ShardSpec{}, sink);
  if (auto st = sink.finalize(); !st) return st;
  auto st = Dataset::open_mapped(cache_path, view);
  if (st && view->fingerprint() != config.fingerprint()) {
    return util::Status::error("freshly generated cache has the wrong "
                               "fingerprint",
                               cache_path);
  }
  return st;
}

}  // namespace

const DatasetView& shared_view(const FleetConfig& config,
                               const std::string& cache_path) {
  static std::mutex mu;
  static std::unique_ptr<DatasetView> cached;
  static std::uint64_t cached_fingerprint = 0;
  std::lock_guard<std::mutex> lock(mu);
  if (cached && cached->ok() && cached_fingerprint == config.fingerprint()) {
    return *cached;
  }
  auto view = std::make_unique<DatasetView>();
  if (auto st = ensure_cache_file(config, cache_path, view.get()); !st) {
    throw std::runtime_error("shared_view: " + st.to_string());
  }
  cached = std::move(view);
  cached_fingerprint = config.fingerprint();
  return *cached;
}

std::uint64_t model_version() noexcept { return kModelVersion; }

}  // namespace msamp::fleet
