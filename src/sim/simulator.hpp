// Deterministic discrete-event simulation core.
//
// Everything above the physical layer — Totem token rotation, ORB dispatch,
// replica execution, fault injection, recovery — runs as events on this one
// queue, in virtual time. Two runs with the same seed execute the identical
// event sequence, which is what makes the recovery experiments replayable.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/trace.hpp"
#include "sim/callback.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace eternal::sim {

using util::Duration;
using util::TimePoint;

/// Handle to a scheduled event, usable to cancel it (e.g. a fault-detector
/// timeout that is superseded by a heartbeat). Encodes the event's slot and
/// that slot's generation: once the event fires or is cancelled the slot's
/// generation moves on, so a stale handle can never reach a later occupant.
/// The default-constructed handle names no event.
struct EventId {
  std::uint64_t value = 0;
  auto operator<=>(const EventId&) const = default;
};

/// The event queue and virtual clock.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which keeps runs deterministic without relying on container tie-breaks.
///
/// Storage is a slab of slots (one per pending event, recycled through a
/// free list) plus an indexed binary min-heap on (when, seq). Scheduling
/// allocates nothing once the slab has grown to the peak pending count and
/// the callable fits Callback's inline buffer; cancel() finds the heap entry
/// through its slot and removes it in O(log n), with no hashing.
///
/// A slot holds its event's (when, seq); the heap entry's key is never
/// later. reschedule() to a later key only rewrites the slot, in O(1); the
/// heap entry is re-keyed when it reaches the top (see settle_top), before
/// anything fires, so every event still fires at its slot's (when, seq).
class Simulator {
 public:
  Simulator() { recorder_.bind_clock(&now_); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimePoint now() const noexcept { return now_; }

  /// Observability handle shared by every layer running on this simulator.
  /// Detached (and near-free) until a System attaches metrics/trace/span
  /// sinks. Span timestamps come from this virtual clock, so same-seed runs
  /// produce identical span trees (see obs/spans.hpp).
  obs::Recorder& recorder() noexcept { return recorder_; }
  const obs::Recorder& recorder() const noexcept { return recorder_; }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to zero.
  EventId schedule(Duration delay, Callback fn) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at an absolute instant (clamped to `now()`).
  EventId schedule_at(TimePoint when, Callback fn);

  /// Schedules `fn` at the current instant, after every event already queued
  /// for now() (the FIFO tie-break). The deterministic yield point the
  /// execution engine uses to drain a backlog of parked work one event at a
  /// time instead of recursing through it.
  EventId defer(Callback fn) {
    return schedule(Duration(0), std::move(fn));
  }

  /// Cancels a pending event; cancelling an already-fired, already-cancelled
  /// or never-issued event is a harmless no-op (the common race with
  /// timeouts). The event's callable is destroyed immediately.
  void cancel(EventId id);

  /// Moves a pending event to `when` (clamped to now()), keeping its
  /// callable. The event is re-keyed in place with a fresh FIFO sequence
  /// number, so it fires exactly where cancel(id) followed by scheduling the
  /// same callable at `when` would put it: same (when, seq) order, same
  /// slot, same event count. Returns the event's new handle (`id` goes
  /// stale, as after a cancel), or EventId{} when `id` is not pending — the
  /// caller then schedules afresh. Moving an event later is O(1) (the heap
  /// catches up lazily); moving it earlier sifts it up.
  EventId reschedule(EventId id, TimePoint when);

  /// Runs the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Runs events until the queue empties or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = kDefaultEventLimit);

  /// Runs events with timestamps <= `deadline`, then sets now() = deadline.
  void run_until(TimePoint deadline);

  /// Runs for `d` of virtual time from now.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Number of events executed so far (diagnostic).
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// True when no events are pending.
  bool idle() const noexcept { return heap_.empty(); }

  static constexpr std::size_t kDefaultEventLimit = 50'000'000;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;  // no heap position / no slot

  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;   // FIFO tie-break: scheduling order
    std::uint32_t slot;  // index into slots_
  };
  struct Slot {
    Callback fn;
    TimePoint when{};                 // the event's key; the heap entry's
    std::uint64_t seq = 0;            // key is this or an earlier, stale one
    std::uint32_t generation = 1;    // bumped on release; never 0
    std::uint32_t heap_pos = kNone;  // index into heap_ while pending
    std::uint32_t next_free = kNone;  // free-list link while released
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  /// Re-keys stale entries at the top of the heap under their slots' keys
  /// until the top is current. Fires, counts and advances nothing. Returns
  /// false when no event is pending.
  bool settle_top() noexcept;
  /// Runs the top event. Precondition: settle_top() returned true.
  void fire_top();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  void place(std::size_t pos, const HeapEntry& e) noexcept;
  void sift_up(std::size_t pos, HeapEntry e) noexcept;
  void sift_down(std::size_t pos, HeapEntry e) noexcept;
  void remove_at(std::size_t pos) noexcept;

  TimePoint now_{};
  obs::Recorder recorder_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;  // first released slot, if any
  std::vector<HeapEntry> heap_;
};

}  // namespace eternal::sim
