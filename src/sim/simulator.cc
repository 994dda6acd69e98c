#include "sim/simulator.h"

namespace msamp::sim {

std::uint64_t Simulator::schedule_at(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{kFree, 0});
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{when, next_seq_++, slot});
  return (std::uint64_t{slots_[slot].generation} << 32) | (slot + 1ull);
}

bool Simulator::cancel(std::uint64_t id) {
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0 || low > slots_.size()) return false;
  const Slot& s = slots_[low - 1];
  if (s.heap_pos == kFree || s.generation != (id >> 32)) return false;
  take(s.heap_pos);  // the callback is destroyed here, unfired
  return true;
}

void Simulator::sift_up(std::size_t pos, Key key) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!earlier(key, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void Simulator::sift_down(std::size_t pos, Key key) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], key)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, key);
}

Callback Simulator::take(std::size_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  const Key moved = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // Refill the hole with the last key; it may belong above or below.
    if (pos > 0 && earlier(moved, heap_[(pos - 1) / kArity])) {
      sift_up(pos, moved);
    } else {
      sift_down(pos, moved);
    }
  }
  slots_[slot].heap_pos = kFree;
  ++slots_[slot].generation;
  free_slots_.push_back(slot);
  return std::move(callbacks_[slot]);
}

void Simulator::dispatch_top() {
  now_ = heap_.front().when;
  ++dispatched_;
  // The callback leaves its slot before it runs: it may schedule events,
  // which can reuse the slot or grow the slot table.
  Callback cb = take(0);
  cb();
}

void Simulator::run_until(SimTime limit) {
  while (!heap_.empty() && heap_.front().when <= limit) dispatch_top();
  if (now_ < limit) now_ = limit;
}

void Simulator::run() {
  while (!heap_.empty()) dispatch_top();
}

}  // namespace msamp::sim
