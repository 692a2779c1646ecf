#include "sim/simulator.hpp"

namespace eternal::sim {

namespace {

std::uint32_t slot_of(EventId id) noexcept { return static_cast<std::uint32_t>(id.value); }
std::uint32_t generation_of(EventId id) noexcept {
  return static_cast<std::uint32_t>(id.value >> 32);
}

}  // namespace

EventId Simulator::schedule_at(TimePoint when, Callback fn) {
  if (when < now_) when = now_;
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.when = when;
  s.seq = next_seq_++;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{when, s.seq, slot});
  return EventId{(std::uint64_t{slots_[slot].generation} << 32) | slot};
}

void Simulator::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return;
  const Slot& s = slots_[slot];
  if (s.generation != generation_of(id) || s.heap_pos == kNone) return;
  remove_at(s.heap_pos);
  release_slot(slot);
}

EventId Simulator::reschedule(EventId id, TimePoint when) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return EventId{};
  Slot& s = slots_[slot];
  if (s.generation != generation_of(id) || s.heap_pos == kNone) return EventId{};
  if (when < now_) when = now_;
  // cancel + schedule would release the slot and take it straight back off
  // the free list, bumping its generation; do the same, minus the detour.
  if (++s.generation == 0) s.generation = 1;
  s.when = when;
  s.seq = next_seq_++;
  const HeapEntry moved{when, s.seq, slot};
  // Later than the heap key (the usual case: a timeout pushed back): the
  // slot alone records it, and settle_top() re-keys the entry if it ever
  // reaches the top. Earlier: the entry must rise now.
  if (!earlier(heap_[s.heap_pos], moved)) sift_up(s.heap_pos, moved);
  return EventId{(std::uint64_t{s.generation} << 32) | slot};
}

bool Simulator::settle_top() noexcept {
  // Every heap key is at or before its slot's key, so once the top entry is
  // current it is the earliest pending event.
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_.front().slot;
    const Slot& s = slots_[slot];
    if (heap_.front().seq == s.seq) return true;
    sift_down(0, HeapEntry{s.when, s.seq, slot});
  }
  return false;
}

void Simulator::fire_top() {
  const HeapEntry top = heap_.front();
  remove_at(0);
  // Move the callable out and recycle its slot before running it: the
  // handler may schedule (growing the slab) or cancel its own, now stale,
  // handle.
  Callback fn = std::move(slots_[top.slot].fn);
  release_slot(top.slot);
  now_ = top.when;
  ++executed_;
  fn();
}

bool Simulator::step() {
  if (!settle_top()) return false;
  fire_top();
  return true;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t n = 0;
  for (; n < limit && settle_top(); ++n) fire_top();
  return n;
}

void Simulator::run_until(TimePoint deadline) {
  while (settle_top() && heap_.front().when <= deadline) fire_top();
  if (now_ < deadline) now_ = deadline;
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNone) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.heap_pos = kNone;
  if (++s.generation == 0) s.generation = 1;  // 0 would alias EventId{}
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::place(std::size_t pos, const HeapEntry& e) noexcept {
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_up(std::size_t pos, HeapEntry e) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::size_t pos, HeapEntry e) noexcept {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Simulator::remove_at(std::size_t pos) noexcept {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && earlier(last, heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

}  // namespace eternal::sim
