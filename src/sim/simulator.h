// Minimal discrete-event simulator: a clock plus an indexed heap of live
// events.  The packet-level rack simulator (src/net, src/transport) and
// the validation tools (src/workload) are built on it.
//
// Only pending events occupy the queue: cancelling an event removes its
// key from the heap and destroys its callback at once, so timers that are
// re-armed on every ACK or GRO segment leave nothing behind.  Callbacks
// live in a slot table beside the heap and are stored inline (no malloc)
// when their captures fit in `Callback::kInlineBytes`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace msamp::sim {

/// Move-only type-erased `void()` callable.  Captures of up to
/// `kInlineBytes` with a non-throwing move are stored in place; larger or
/// throwing-move ones go to the heap.  A moved-from or default-constructed
/// Callback is empty; invoking an empty one is undefined.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 88;

  Callback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): like std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Destroys the held callable (if any); the Callback becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool fits_inline() noexcept {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs `*src` into `dst` and destroys `*src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**static_cast<Fn**>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* self) noexcept { delete *static_cast<Fn**>(self); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Discrete-event scheduler.  Single-threaded; events at equal timestamps
/// fire in scheduling (FIFO) order so runs are fully deterministic.
class Simulator {
 public:
  using Callback = sim::Callback;

  /// Current simulation time.
  SimTime now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `when` (clamped to `now()`).
  /// Returns a nonzero id usable with `cancel`.
  std::uint64_t schedule_at(SimTime when, Callback cb);

  /// Schedules `cb` to run `delay` from now.
  std::uint64_t schedule_in(SimDuration delay, Callback cb) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  /// Cancels a pending event and destroys its callback. Cancelling an
  /// already-fired, already-cancelled, unknown or zero id is a no-op.
  /// Returns true if the event was pending.
  bool cancel(std::uint64_t id);

  /// Runs events until the queue is empty or `limit` is reached (whichever
  /// first); the clock ends at the last fired event (or `limit`).
  void run_until(SimTime limit);

  /// Runs all pending events.
  void run();

  /// Number of events waiting to fire (cancelled events are not counted).
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Total events dispatched, for tests and perf accounting.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  // Heap entry, ordered by (when, seq): seq is a global scheduling counter,
  // so equal timestamps fire FIFO and the order is a strict total one.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Bookkeeping for one event slot, kept apart from the callbacks so the
  // sifts touch a dense array.  An id names (generation, slot); the
  // generation advances whenever the slot is freed, so stale ids miss.
  struct Slot {
    std::uint32_t heap_pos;  // kFree when the slot holds no pending event
    std::uint32_t generation;
  };
  static constexpr std::uint32_t kFree = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  static bool earlier(const Key& a, const Key& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void place(std::size_t pos, const Key& key) noexcept {
    heap_[pos] = key;
    slots_[key.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos, Key key) noexcept;
  void sift_down(std::size_t pos, Key key) noexcept;
  // Removes the key at heap position `pos` and frees its slot, returning
  // the slot's callback.
  Callback take(std::size_t pos);
  void dispatch_top();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::vector<Key> heap_;  // 4-ary min-heap of pending events
  std::vector<Slot> slots_;
  std::vector<Callback> callbacks_;  // parallel to slots_
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace msamp::sim
