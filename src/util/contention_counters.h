// Always-on contention observability counters (Tier-0 trylock-probe
// design): every counter is a relaxed atomic increment on a path that was
// already synchronizing, so the probe adds no fences and no jitter —
// cheap enough to leave on in production builds.
//
// Two hard rules keep these trustworthy:
//
//  1. Every event counter has a denominator.  `lock_contended` alone says
//     nothing; `lock_contended / (lock_fast + lock_contended)` is a rate
//     you can compare across thread counts and hosts.
//  2. Counters are observability-only.  They measure execution, and
//     execution (which lane won a CAS, how often a trylock failed) is
//     exactly what the determinism contract says must never reach output
//     bytes.  msamp_lint's `counters-not-in-output` rule bans snapshot
//     reads from every output path; the one sanctioned reader is
//     bench/bench_pool_contention.cc (docs/OBSERVABILITY.md).
//
// ContentionCounters is the live struct (atomics, written by the
// instrumented paths); ContentionSnapshot is the plain-value copy a
// reader takes with `snapshot()`.  Snapshots of a live workload are
// monotonic but not transactionally consistent across fields — fine for
// rates, meaningless for exact cross-field identities mid-run.
#pragma once

#include <atomic>
#include <cstdint>

namespace msamp::util {

/// Plain-value copy of a ContentionCounters at one point in time, with
/// the derived rates.  All rates return 0.0 when their denominator is 0.
struct ContentionSnapshot {
  // Trylock probe: each mutex acquisition on an instrumented path first
  // try_locks; success is the uncontended fast path, failure falls back
  // to a blocking lock() and counts as contended.
  std::uint64_t lock_fast = 0;       ///< try_lock succeeded (no contention)
  std::uint64_t lock_contended = 0;  ///< try_lock failed, had to block

  // CAS loops (e.g. the pool's shared index-claim counter).
  std::uint64_t cas_attempts = 0;  ///< claim operations (denominator)
  std::uint64_t cas_retries = 0;   ///< failed compare_exchange iterations

  // Condition-variable traffic on the instrumented paths.
  std::uint64_t waits = 0;     ///< times a thread blocked in a cv wait
  std::uint64_t notifies = 0;  ///< notify_one/notify_all calls issued

  std::uint64_t lock_acquisitions() const noexcept {
    return lock_fast + lock_contended;
  }
  double lock_contention_rate() const noexcept {
    return ratio(lock_contended, lock_acquisitions());
  }
  double cas_retry_rate() const noexcept {
    return ratio(cas_retries, cas_attempts + cas_retries);
  }

 private:
  static double ratio(std::uint64_t num, std::uint64_t den) noexcept {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }
};

/// The live counters an instrumented component embeds.  Increments are
/// relaxed (no ordering is implied or needed — the instrumented paths
/// carry their own synchronization); `snapshot()` is safe from any thread
/// at any time.
struct ContentionCounters {
  std::atomic<std::uint64_t> lock_fast{0};
  std::atomic<std::uint64_t> lock_contended{0};
  std::atomic<std::uint64_t> cas_attempts{0};
  std::atomic<std::uint64_t> cas_retries{0};
  std::atomic<std::uint64_t> waits{0};
  std::atomic<std::uint64_t> notifies{0};

  /// Records one mutex acquisition probed via try_lock.
  void count_lock(bool fast) noexcept {
    (fast ? lock_fast : lock_contended)
        .fetch_add(1, std::memory_order_relaxed);
  }

  ContentionSnapshot snapshot() const noexcept {
    ContentionSnapshot s;
    s.lock_fast = lock_fast.load(std::memory_order_relaxed);
    s.lock_contended = lock_contended.load(std::memory_order_relaxed);
    s.cas_attempts = cas_attempts.load(std::memory_order_relaxed);
    s.cas_retries = cas_retries.load(std::memory_order_relaxed);
    s.waits = waits.load(std::memory_order_relaxed);
    s.notifies = notifies.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace msamp::util
