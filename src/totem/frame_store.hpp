// Totem's held Data frames, indexed by sequence number.
//
// A member keeps every frame from its garbage-collection horizon (aru minus
// gc_margin) up to the highest sequence number it has received: undelivered
// frames wait here for the gap below them to close, and delivered ones stay
// to serve retransmission requests. Sequence numbers are dense, so the store
// is a window over a ring of slots: find and insert are O(1) index
// arithmetic, garbage collection trims the front, and the reformation
// paths erase above a base and walk the window in order.
//
// The window spans lowest..highest held sequence number, gaps included, so
// memory is proportional to that span (a few thousand frames under the
// default gc_margin), not to the number of frames held; the ring grows by a
// quarter when the span outgrows it and never shrinks. Sequence number 0
// is never assigned by the protocol and marks an empty slot.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "totem/frames.hpp"

namespace eternal::totem {

class FrameStore {
 public:
  /// The frame held at `seq`, or null.
  const DataFrame* find(std::uint64_t seq) const noexcept {
    if (!holds_slot(seq)) return nullptr;
    const DataFrame& f = ring_[index(seq)];
    return f.seq != 0 ? &f : nullptr;
  }
  DataFrame* find(std::uint64_t seq) noexcept {
    return const_cast<DataFrame*>(std::as_const(*this).find(seq));
  }
  bool contains(std::uint64_t seq) const noexcept { return find(seq) != nullptr; }

  /// Takes `f` under f.seq unless a frame is already held there (or f.seq
  /// is 0). Returns whether it was stored.
  bool emplace(DataFrame&& f);

  /// Drops every frame with a sequence number below `seq` (GC behind aru).
  void erase_below(std::uint64_t seq);

  /// Drops every frame with a sequence number above `seq`; returns how many.
  std::size_t erase_above(std::uint64_t seq);

  void clear() { erase_above(0); }

  std::size_t size() const noexcept { return count_; }

  /// Calls `fn(const DataFrame&)` on each held frame with lo <= seq <= hi,
  /// in ascending order, until `fn` returns false.
  template <typename Fn>
  void for_each(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    if (count_ == 0) return;
    if (lo < base_) lo = base_;
    if (hi > highest()) hi = highest();
    for (std::uint64_t seq = lo; seq <= hi; ++seq) {
      const DataFrame& f = ring_[index(seq)];
      if (f.seq != 0 && !fn(f)) return;
    }
  }

 private:
  std::uint64_t highest() const noexcept { return base_ + span_ - 1; }
  bool holds_slot(std::uint64_t seq) const noexcept {
    return seq >= base_ && seq - base_ < span_;
  }
  /// ring_ index of `seq`; `seq` must lie within [base_, base_ + capacity).
  std::size_t index(std::uint64_t seq) const noexcept {
    const std::size_t i = head_ + static_cast<std::size_t>(seq - base_);
    return i < ring_.size() ? i : i - ring_.size();
  }
  /// Empties every held slot in [lo, hi] (within the window); leaves the
  /// window bounds to the caller.
  void drop(std::uint64_t lo, std::uint64_t hi);
  /// Grows the ring (keeping order, head_ back at 0) to hold `span` slots.
  void reserve_span(std::uint64_t span);

  std::vector<DataFrame> ring_;  ///< slot array (empty until the first insert)
  std::size_t head_ = 0;         ///< ring_ index of base_
  std::uint64_t base_ = 0;       ///< lowest held seq (when non-empty)
  std::uint64_t span_ = 0;       ///< base_..highest(), gaps included; 0 when empty
  std::size_t count_ = 0;        ///< frames held
};

}  // namespace eternal::totem
