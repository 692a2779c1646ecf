#include "totem/frame_store.hpp"

#include <algorithm>

namespace eternal::totem {

bool FrameStore::emplace(DataFrame&& f) {
  const std::uint64_t seq = f.seq;
  if (seq == 0) return false;
  if (count_ == 0) {
    reserve_span(1);
    base_ = seq;
    span_ = 1;
  } else if (seq < base_) {
    // Below the window (a retransmission under the GC horizon, or a frame
    // behind a window that started high): grow at the front.
    const std::uint64_t span = highest() - seq + 1;
    reserve_span(span);
    const std::size_t shift = static_cast<std::size_t>(base_ - seq);
    head_ = head_ >= shift ? head_ - shift : head_ + ring_.size() - shift;
    base_ = seq;
    span_ = span;
  } else if (seq > highest()) {
    reserve_span(seq - base_ + 1);
    span_ = seq - base_ + 1;
  } else if (ring_[index(seq)].seq != 0) {
    return false;
  }
  ring_[index(seq)] = std::move(f);
  ++count_;
  return true;
}

void FrameStore::erase_below(std::uint64_t seq) {
  if (count_ == 0 || seq <= base_) return;
  if (seq > highest()) {
    clear();
    return;
  }
  drop(base_, seq - 1);
  // The frame at highest() survives, so the window stays non-empty; keep it
  // tight by starting it at the lowest frame still held.
  std::uint64_t next = seq;
  while (ring_[index(next)].seq == 0) ++next;
  head_ = index(next);
  span_ -= next - base_;
  base_ = next;
}

std::size_t FrameStore::erase_above(std::uint64_t seq) {
  if (count_ == 0 || seq >= highest()) return 0;
  const std::size_t before = count_;
  drop(std::max(seq + 1, base_), highest());
  if (count_ == 0) {
    span_ = 0;
  } else {
    std::uint64_t top = seq;
    while (ring_[index(top)].seq == 0) --top;
    span_ = top - base_ + 1;
  }
  return before - count_;
}

void FrameStore::drop(std::uint64_t lo, std::uint64_t hi) {
  for (std::uint64_t s = lo; s <= hi; ++s) {
    DataFrame& f = ring_[index(s)];
    if (f.seq != 0) {
      // seq 0 marks the slot empty; dropping the payload releases this
      // slot's reference on the received buffer.
      f.seq = 0;
      f.payload = util::SharedBytes();
      --count_;
    }
  }
}

void FrameStore::reserve_span(std::uint64_t span) {
  if (span <= ring_.size()) return;
  std::vector<DataFrame> next(std::max<std::uint64_t>(span + span / 4, 64));
  for (std::uint64_t seq = base_; seq < base_ + span_; ++seq) {
    next[seq - base_] = std::move(ring_[index(seq)]);
  }
  ring_ = std::move(next);
  head_ = 0;
}

}  // namespace eternal::totem
