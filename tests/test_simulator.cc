// Tests for the discrete-event engine: ordering, clamping, cancellation,
// the move-only inline `sim::Callback`, and a differential property test
// against the earlier priority_queue + tombstone engine.
#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace msamp::sim {
namespace {

TEST(Simulator, FiresInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(30, [&] { order.push_back(3); });
  simulator.schedule_at(10, [&] { order.push_back(1); });
  simulator.schedule_at(20, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30);
}

TEST(Simulator, EqualTimesFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInRelative) {
  Simulator simulator;
  SimTime fired = -1;
  simulator.schedule_at(100, [&] {
    simulator.schedule_in(50, [&] { fired = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired, 150);
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator simulator;
  SimTime fired = -1;
  simulator.schedule_at(100, [&] {
    simulator.schedule_at(10, [&] { fired = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired, 100);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator simulator;
  bool fired = false;
  simulator.schedule_in(-5, [&] { fired = true; });
  simulator.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator simulator;
  bool fired = false;
  const auto id = simulator.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(simulator.cancel(id));
  simulator.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIsNoop) {
  Simulator simulator;
  EXPECT_FALSE(simulator.cancel(0));
  EXPECT_FALSE(simulator.cancel(12345));
}

TEST(Simulator, DoubleCancelReturnsFalse) {
  Simulator simulator;
  const auto id = simulator.schedule_at(10, [] {});
  EXPECT_TRUE(simulator.cancel(id));
  EXPECT_FALSE(simulator.cancel(id));
  simulator.run();
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(10, [&] { ++fired; });
  simulator.schedule_at(20, [&] { ++fired; });
  simulator.schedule_at(30, [&] { ++fired; });
  simulator.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.now(), 20);
  simulator.run_until(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(simulator.now(), 100);
}

TEST(Simulator, DispatchedCounts) {
  Simulator simulator;
  for (int i = 0; i < 5; ++i) simulator.schedule_at(i, [] {});
  simulator.run();
  EXPECT_EQ(simulator.dispatched(), 5u);
}

TEST(Simulator, EventsScheduledDuringRun) {
  Simulator simulator;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 100) simulator.schedule_in(1, step);
  };
  simulator.schedule_at(0, step);
  simulator.run();
  EXPECT_EQ(chain, 100);
  EXPECT_EQ(simulator.now(), 99);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator simulator;
  int fired = 0;
  const auto id = simulator.schedule_at(10, [&] { ++fired; });
  simulator.run();
  ASSERT_EQ(fired, 1);
  EXPECT_FALSE(simulator.cancel(id));
  // The next event reuses the freed storage; the stale id must not reach it.
  simulator.schedule_at(20, [&] { ++fired; });
  EXPECT_FALSE(simulator.cancel(id));
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelOwnIdFromInsideCallbackIsNoop) {
  Simulator simulator;
  std::uint64_t id = 0;
  bool result = true;
  id = simulator.schedule_at(5, [&] { result = simulator.cancel(id); });
  simulator.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(simulator.dispatched(), 1u);
}

TEST(Simulator, IdsAreNeverZero) {
  Simulator simulator;
  for (int i = 0; i < 100; ++i) {
    const auto id = simulator.schedule_at(i, [] {});
    EXPECT_NE(id, 0u);
    if (i % 2 == 0) simulator.cancel(id);
  }
  simulator.run();
}

TEST(Simulator, PendingCountsLiveEvents) {
  Simulator simulator;
  const auto a = simulator.schedule_at(10, [] {});
  simulator.schedule_at(20, [] {});
  simulator.schedule_at(30, [] {});
  EXPECT_EQ(simulator.pending(), 3u);
  EXPECT_TRUE(simulator.cancel(a));
  EXPECT_EQ(simulator.pending(), 2u);
  // A timer re-armed many times (an RTO on every ACK) holds one entry.
  std::uint64_t timer = 0;
  for (int i = 0; i < 1000; ++i) {
    if (timer != 0) {
      EXPECT_TRUE(simulator.cancel(timer));
    }
    timer = simulator.schedule_at(100 + i, [] {});
  }
  EXPECT_EQ(simulator.pending(), 3u);
  simulator.run_until(20);
  EXPECT_EQ(simulator.pending(), 2u);
  simulator.run();
  EXPECT_EQ(simulator.pending(), 0u);
  EXPECT_EQ(simulator.dispatched(), 3u);
}

// --- sim::Callback -----------------------------------------------------

// Counts destructions of the instance that owns the capture (moved-from
// shells do not count), so "destroyed exactly once" is checkable.
struct Probe {
  std::vector<int>* destroyed;
  int index;
  bool owner = true;
  Probe(std::vector<int>* d, int i) : destroyed(d), index(i) {}
  Probe(Probe&& o) noexcept
      : destroyed(o.destroyed), index(o.index), owner(o.owner) {
    o.owner = false;
  }
  Probe(const Probe&) = delete;
  ~Probe() {
    if (owner) ++(*destroyed)[static_cast<std::size_t>(index)];
  }
};

TEST(Callback, LargeCaptureFallsBackToHeap) {
  std::array<std::int64_t, 16> big{};  // 128 bytes, over kInlineBytes
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::int64_t>(i * i);
  }
  std::int64_t sum = 0;
  auto fn = [big, &sum] {
    for (auto v : big) sum += v;
  };
  static_assert(!Callback::fits_inline<decltype(fn)>());
  Simulator simulator;
  simulator.schedule_at(1, std::move(fn));
  simulator.run();
  EXPECT_EQ(sum, 1240);
}

TEST(Callback, PacketSizedCaptureIsInline) {
  struct Pod {
    std::int64_t v[9];
  };
  Pod pod{};
  pod.v[8] = 42;
  std::int64_t seen = 0;
  auto fn = [pod, p = &seen] { *p = pod.v[8]; };
  static_assert(sizeof(fn) == 80 && Callback::fits_inline<decltype(fn)>());
  Callback cb(std::move(fn));
  Callback moved(std::move(cb));
  EXPECT_FALSE(static_cast<bool>(cb));
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(Callback, MoveOnlyCapture) {
  Simulator simulator;
  int seen = 0;
  auto owned = std::make_unique<int>(7);
  simulator.schedule_at(3, [p = std::move(owned), &seen] { seen = *p; });
  // Grow the slot table so the pending callback is relocated.
  for (int i = 0; i < 64; ++i) simulator.schedule_at(4 + i, [] {});
  simulator.run();
  EXPECT_EQ(seen, 7);
}

TEST(Callback, CapturesDestroyedExactlyOnce) {
  // Inline and heap-stored captures, each fired, cancelled, or still
  // pending when the Simulator goes away.
  std::vector<int> destroyed(6, 0);
  int fired = 0;
  {
    Simulator simulator;
    std::array<char, 128> pad{};
    auto inline_cb = [&fired](int i, std::vector<int>* d) {
      return [probe = Probe(d, i), &fired] { ++fired; };
    };
    auto heap_cb = [&fired, pad](int i, std::vector<int>* d) {
      return [probe = Probe(d, i), pad, &fired] { fired += 1 + pad[0]; };
    };
    simulator.schedule_at(1, inline_cb(0, &destroyed));
    const auto c1 = simulator.schedule_at(2, inline_cb(1, &destroyed));
    simulator.schedule_at(50, inline_cb(2, &destroyed));
    simulator.schedule_at(1, heap_cb(3, &destroyed));
    const auto c4 = simulator.schedule_at(2, heap_cb(4, &destroyed));
    simulator.schedule_at(50, heap_cb(5, &destroyed));
    for (int i = 0; i < 6; ++i) EXPECT_EQ(destroyed[i], 0) << i;
    EXPECT_TRUE(simulator.cancel(c1));
    EXPECT_TRUE(simulator.cancel(c4));
    EXPECT_EQ(destroyed[1], 1);  // a cancelled capture goes at once
    EXPECT_EQ(destroyed[4], 1);
    simulator.run_until(10);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(destroyed[0], 1);
    EXPECT_EQ(destroyed[3], 1);
    EXPECT_EQ(destroyed[2], 0);
    EXPECT_EQ(destroyed[5], 0);
  }
  for (int i = 0; i < 6; ++i) EXPECT_EQ(destroyed[i], 1) << i;
}

TEST(Callback, MoveAssignReleasesPreviousTarget) {
  std::vector<int> destroyed(2, 0);
  Callback a([probe = Probe(&destroyed, 0)] {});
  Callback b([probe = Probe(&destroyed, 1)] {});
  a = std::move(b);
  EXPECT_EQ(destroyed[0], 1);
  EXPECT_EQ(destroyed[1], 0);
  a.reset();
  EXPECT_EQ(destroyed[1], 1);
  EXPECT_FALSE(static_cast<bool>(a));
}

// --- differential property test ----------------------------------------

// The engine this one replaced: std::priority_queue of copied events,
// cancellation by a sorted tombstone list skipped on pop.  Kept verbatim
// as the ordering oracle.  The one known difference: it reports cancelling
// an event that is no longer pending as a success, both for a fired id and
// for a cancelled id whose tombstone has already been popped.
class ReferenceSimulator {
 public:
  using Callback = std::function<void()>;
  SimTime now() const noexcept { return now_; }
  std::uint64_t schedule_at(SimTime when, Callback cb) {
    if (when < now_) when = now_;
    const std::uint64_t id = next_seq_++;
    queue_.push(Event{when, id, std::move(cb)});
    return id;
  }
  std::uint64_t schedule_in(SimDuration delay, Callback cb) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }
  bool cancel(std::uint64_t id) {
    if (id == 0 || id >= next_seq_) return false;
    const auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id);
    if (it != cancelled_.end() && *it == id) return false;
    cancelled_.insert(it, id);
    return true;
  }
  void run_until(SimTime limit) {
    while (!queue_.empty() && queue_.top().when <= limit) pop_one();
    if (now_ < limit) now_ = limit;
  }
  void run() {
    while (!queue_.empty()) pop_one();
  }
  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  void pop_one() {
    Event ev = queue_.top();
    queue_.pop();
    const auto it =
        std::lower_bound(cancelled_.begin(), cancelled_.end(), ev.seq);
    if (it != cancelled_.end() && *it == ev.seq) {
      cancelled_.erase(it);
      return;
    }
    now_ = ev.when;
    ++dispatched_;
    ev.cb();
  }
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<std::uint64_t> cancelled_;
};

// Drives one engine through a seeded script.  Events are named by handle
// (their scheduling index), since the two engines hand out different ids.
// Every choice an event makes when it fires comes from its own script
// word, so both engines see the same decisions as long as they fire the
// same events in the same order; the trace records everything observable.
template <typename Engine>
class Harness {
 public:
  static constexpr std::size_t kMaxHandles = 1500;
  enum Tag : std::int64_t { kFire = 1, kCancel, kCancelStale, kClock };
  enum State : std::uint8_t { kPending, kFired, kCancelled };

  explicit Harness(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::int64_t> drive() {
    for (int step = 0; step < 400; ++step) {
      const auto op = rng_.uniform_int(10);
      if (op < 5) {
        schedule(rng_.next());
      } else if (op < 7) {
        cancel_handle(rng_.next());
      } else if (op < 9) {
        engine_.run_until(engine_.now() +
                          static_cast<SimDuration>(rng_.uniform_int(40)) - 5);
        record_clock();
      } else {
        // Ids that were never handed out.
        record_cancel(engine_.cancel(0));
        record_cancel(engine_.cancel(0xdead0000fffffff0ull));
      }
    }
    engine_.run();
    record_clock();
    return trace_;
  }

  /// Results of cancelling fired or already-cancelled events, which must
  /// all be false (checked for the engine under test only).
  const std::vector<bool>& stale_cancels() const { return stale_cancels_; }

 private:
  void schedule(std::uint64_t script) {
    if (ids_.size() >= kMaxHandles) return;
    const std::size_t handle = ids_.size();
    const auto delay = static_cast<SimDuration>(script % 24) - 4;  // some < 0
    ids_.push_back(0);
    state_.push_back(kPending);
    std::uint64_t id;
    if (script % 5 == 0) {
      // A capture too big for the inline buffer.
      std::array<std::uint64_t, 12> pad{};
      pad[11] = script;
      id = add(delay, script, [this, handle, pad] { fire(handle, pad[11]); });
    } else {
      id = add(delay, script, [this, handle, script] { fire(handle, script); });
    }
    ids_[handle] = id;
  }

  template <typename F>
  std::uint64_t add(SimDuration delay, std::uint64_t script, F&& fn) {
    // Half absolute (past times clamp to now), half relative.
    if ((script >> 8) % 2 == 0) {
      return engine_.schedule_at(engine_.now() + delay, std::forward<F>(fn));
    }
    return engine_.schedule_in(delay, std::forward<F>(fn));
  }

  void fire(std::size_t handle, std::uint64_t script) {
    state_[handle] = kFired;
    trace_.insert(trace_.end(),
                  {kFire, static_cast<std::int64_t>(handle), engine_.now(),
                   static_cast<std::int64_t>(engine_.dispatched())});
    std::uint64_t x = script >> 16;
    const auto children = x % 3;
    x /= 3;
    for (std::uint64_t c = 0; c < children; ++c) {
      schedule(x * 0x9e3779b97f4a7c15ull + c + 1);
    }
    if (x % 3 == 0) cancel_handle(x >> 8);  // another, possibly pending, event
  }

  void cancel_handle(std::uint64_t pick) {
    if (ids_.empty()) return;
    const auto handle = static_cast<std::size_t>(pick % ids_.size());
    const bool result = engine_.cancel(ids_[handle]);
    if (state_[handle] != kPending) {
      stale_cancels_.push_back(result);
      trace_.insert(trace_.end(),
                    {kCancelStale, static_cast<std::int64_t>(handle)});
      return;
    }
    if (result) state_[handle] = kCancelled;
    trace_.insert(trace_.end(),
                  {kCancel, static_cast<std::int64_t>(handle), result ? 1 : 0});
  }

  void record_cancel(bool result) {
    trace_.insert(trace_.end(), {kCancel, -1, result ? 1 : 0});
  }

  void record_clock() {
    trace_.insert(trace_.end(),
                  {kClock, engine_.now(),
                   static_cast<std::int64_t>(engine_.dispatched())});
  }

  util::Rng rng_;
  Engine engine_;
  std::vector<std::uint64_t> ids_;
  std::vector<State> state_;
  std::vector<bool> stale_cancels_;
  std::vector<std::int64_t> trace_;
};

TEST(Simulator, MatchesReferenceEngineOnRandomScripts) {
  std::size_t stale_cancels = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Harness<ReferenceSimulator> reference(seed);
    Harness<Simulator> engine(seed);
    const auto expected = reference.drive();
    const auto actual = engine.drive();
    const auto diff =
        std::mismatch(actual.begin(), actual.end(), expected.begin(),
                      expected.end());
    ASSERT_TRUE(diff.first == actual.end() && diff.second == expected.end())
        << "seed " << seed << ": traces differ at entry "
        << (diff.first - actual.begin()) << " of " << expected.size();
    for (const bool r : engine.stale_cancels()) {
      EXPECT_FALSE(r) << "seed " << seed;
    }
    stale_cancels += engine.stale_cancels().size();
  }
  // The scripts do reach the fired / double-cancelled cases.
  EXPECT_GT(stale_cancels, 100u);
}

TEST(SimTimeHelpers, Conversions) {
  EXPECT_DOUBLE_EQ(to_ms(kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(to_sec(kSecond), 1.0);
  // 12.5 Gb/s for 1ms = 1.5625 MB.
  EXPECT_NEAR(bytes_in(kMillisecond, 12.5), 1562500.0, 1.0);
  // 1500B at 12.5Gb/s = 960ns.
  EXPECT_EQ(serialize_time(1500, 12.5), 960);
}

}  // namespace
}  // namespace msamp::sim
