// Discrete-event core: ordering, cancellation, handle generations, and a
// randomized differential check against a (when, seq)-ordered reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace eternal::sim {
namespace {

using util::Duration;
using util::TimePoint;

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration(300), [&] { order.push_back(3); });
  sim.schedule(Duration(100), [&] { order.push_back(1); });
  sim.schedule(Duration(200), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint(300));
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration(50), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(Duration(10), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownOrFiredIsNoop) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(Duration(10), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  sim.cancel(id);              // already fired
  sim.cancel(EventId{99999});  // never existed
}

TEST(Simulator, NestedSchedulingDuringEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration(10), [&] {
    order.push_back(1);
    sim.schedule(Duration(5), [&] { order.push_back(2); });
    sim.schedule(Duration::zero(), [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), TimePoint(15));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule(Duration(100), [&] { ++count; });
  sim.schedule(Duration(200), [&] { ++count; });
  sim.run_until(TimePoint(150));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), TimePoint(150));
  sim.run_until(TimePoint(250));
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_until(TimePoint(1000));
  int count = 0;
  sim.schedule(Duration(100), [&] { ++count; });
  sim.run_for(Duration(50));
  EXPECT_EQ(count, 0);
  sim.run_for(Duration(50));
  EXPECT_EQ(count, 1);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.run_until(TimePoint(500));
  TimePoint fired_at{};
  sim.schedule(Duration(-100), [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, TimePoint(500));
}

TEST(Simulator, RunHonorsEventLimit) {
  Simulator sim;
  std::function<void()> reschedule = [&] { sim.schedule(Duration(1), reschedule); };
  sim.schedule(Duration(1), reschedule);
  const std::size_t executed = sim.run(1000);
  EXPECT_EQ(executed, 1000u);
}

TEST(Simulator, IdleReflectsPendingWork) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  const EventId id = sim.schedule(Duration(5), [] {});
  EXPECT_FALSE(sim.idle());
  sim.cancel(id);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(Duration(1), [&] { ++count; });
  sim.schedule(Duration(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, StaleHandleDoesNotCancelSlotsNextOccupant) {
  Simulator sim;
  const EventId first = sim.schedule(Duration(10), [] {});
  sim.cancel(first);  // frees the slot
  bool fired = false;
  const EventId second = sim.schedule(Duration(10), [&] { fired = true; });
  EXPECT_NE(first, second);  // same slot, new generation
  sim.cancel(first);         // stale: must not touch `second`
  sim.run();
  EXPECT_TRUE(fired);

  // The same holds for a handle whose event already fired.
  int count = 0;
  const EventId fired_id = sim.schedule(Duration(1), [&] { ++count; });
  sim.run();
  sim.schedule(Duration(1), [&] { ++count; });
  sim.cancel(fired_id);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, HandlerMayCancelItselfAndSameInstantSibling) {
  Simulator sim;
  std::vector<int> order;
  EventId self{};
  EventId sibling{};
  self = sim.schedule(Duration(5), [&] {
    order.push_back(1);
    sim.cancel(self);     // already running: a no-op
    sim.cancel(sibling);  // queued for this same instant: removed
    sim.schedule(Duration::zero(), [&] { order.push_back(3); });
  });
  sibling = sim.schedule(Duration(5), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, DefaultAndNeverIssuedIdsAreNoops) {
  Simulator sim;
  sim.cancel(EventId{});  // empty queue
  int count = 0;
  sim.schedule(Duration(1), [&] { ++count; });
  sim.schedule(Duration(2), [&] { ++count; });
  sim.cancel(EventId{});
  sim.cancel(EventId{1});                 // slot 1, generation 0: never issued
  sim.cancel(EventId{(7ull << 32) | 0});  // slot 0, a generation not yet reached
  sim.cancel(EventId{(1ull << 32) | 999});  // slot beyond the slab
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, IdleAfterLastPendingEventCancelled) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(sim.schedule(Duration(i * 10), [] {}));
  sim.run_until(TimePoint(10));  // fires the events at 0 and 10
  for (std::size_t i = 2; i < ids.size(); ++i) {
    EXPECT_FALSE(sim.idle());
    sim.cancel(ids[i]);
  }
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, CallablesOfAnySizeAndMoveOnlyCapturesRun) {
  Simulator sim;
  int sum = 0;
  auto owned = std::make_unique<int>(7);  // move-only capture
  sim.schedule(Duration(1), [&sum, p = std::move(owned)] { sum += *p; });
  std::vector<int> big(64, 1);
  std::array<char, 4 * Callback::kInlineBytes> pad{};  // forces the heap fallback
  sim.schedule(Duration(2), [&sum, big, pad] { sum += static_cast<int>(big.size()) + pad[0]; });
  std::function<void()> fn = [&sum] { sum += 100; };  // std::function converts
  sim.schedule(Duration(3), fn);
  sim.run();
  EXPECT_EQ(sum, 7 + 64 + 100);
}

TEST(Simulator, CancelAndTeardownReleaseCapturedState) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    const EventId inline_id = sim.schedule(Duration(1), [token] {});
    std::array<char, 4 * Callback::kInlineBytes> pad{};
    const EventId heap_id = sim.schedule(Duration(1), [token, pad] { (void)pad; });
    sim.schedule(Duration(1), [token] {});  // still pending at teardown
    EXPECT_EQ(token.use_count(), 4);
    sim.cancel(inline_id);
    sim.cancel(heap_id);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// Randomized differential test: >= 100k mixed schedule / cancel / run_until
// operations against a reference that keeps pending events in a std::map
// ordered by (when, seq). Every real firing pops the reference's earliest
// event and must match it. Handlers sometimes schedule a child (nested
// scheduling, including at the current instant) or cancel an earlier event
// that may already have fired or been cancelled (a stale handle whose slot
// has since been reused).
TEST(Simulator, RandomizedDifferentialAgainstOrderedReference) {
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (when, seq)
  Simulator sim;
  std::mt19937_64 rng(20240517);
  std::map<Key, int> pending;  // reference queue: key → tag
  std::map<int, Key> key_of;   // live tag → key
  std::uint64_t ref_seq = 0;
  std::vector<EventId> id_of;  // tag → handle
  std::vector<int> victim_of;  // tag → tag its handler cancels (-1: none)
  std::uint64_t fired = 0;
  std::uint64_t mismatches = 0;

  auto cancel_both = [&](int tag) {
    sim.cancel(id_of[static_cast<std::size_t>(tag)]);
    if (auto it = key_of.find(tag); it != key_of.end()) {
      pending.erase(it->second);
      key_of.erase(it);
    }
  };
  std::function<void(std::int64_t)> schedule_both = [&](std::int64_t delay) {
    const int tag = static_cast<int>(id_of.size());
    victim_of.push_back(tag > 0 && rng() % 8 == 0 ? static_cast<int>(rng() % tag) : -1);
    const Key key{sim.now().count() + delay, ref_seq++};
    pending.emplace(key, tag);
    key_of.emplace(tag, key);
    id_of.push_back(sim.schedule(Duration(delay), [&, tag] {
      ++fired;
      if (pending.empty()) {
        ++mismatches;  // the reference has nothing left to fire
        return;
      }
      const auto [key, want] = *pending.begin();
      if (want != tag || key.first != sim.now().count()) ++mismatches;
      pending.erase(pending.begin());
      key_of.erase(want);
      if (victim_of[static_cast<std::size_t>(tag)] >= 0) {
        cancel_both(victim_of[static_cast<std::size_t>(tag)]);
      }
      if (tag % 5 == 0) schedule_both(tag % 3 == 0 ? 0 : tag % 17);
    }));
  };

  for (int op = 0; op < 120'000; ++op) {
    const std::uint64_t r = rng() % 100;
    if (r < 60 || id_of.empty()) {
      schedule_both(static_cast<std::int64_t>(rng() % 50));
    } else if (r < 85) {
      cancel_both(static_cast<int>(rng() % id_of.size()));
    } else {
      const TimePoint deadline = sim.now() + Duration(static_cast<std::int64_t>(rng() % 30));
      sim.run_until(deadline);
      ASSERT_EQ(mismatches, 0u) << "firing order diverged by op " << op;
      ASSERT_TRUE(pending.empty() || pending.begin()->first.first > deadline.count())
          << "run_until left a due event unfired at op " << op;
      ASSERT_EQ(sim.now(), deadline);
      ASSERT_EQ(sim.idle(), pending.empty());
    }
  }
  sim.run();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(pending.empty());
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.events_executed(), fired);
  EXPECT_GT(fired, 30'000u);
}

// Twin-simulator differential test for reschedule(): simulator A moves
// events with reschedule() (falling back to schedule_at when the event is
// no longer pending, as TotemNode::arm_token_timer does); simulator B runs
// the same operation stream with cancel() followed by schedule_at() of an
// identical callable. Every handle, every firing (tag and instant) and the
// event count must agree — including re-keys issued from inside handlers,
// re-keys to the past (clamped to now) and stale handles.
TEST(Simulator, RescheduleMatchesCancelPlusScheduleTwin) {
  struct Twin {
    Simulator sim;
    std::vector<EventId> id_of;                      // tag → current handle
    std::vector<std::pair<int, std::int64_t>> log;  // (tag, instant) per firing
  };
  std::array<Twin, 2> twins;
  std::mt19937_64 rng(20261019);
  std::vector<int> mover_of;  // tag → tag its handler re-keys (-1: none)

  std::function<Callback(std::size_t, int)> make_callback;
  // Re-keys `tag` to `when` on twin `t`: A in place, B by cancel + schedule.
  auto move_to = [&](std::size_t t, int tag, TimePoint when) {
    Twin& tw = twins[t];
    EventId& id = tw.id_of[static_cast<std::size_t>(tag)];
    if (t == 0) {
      const EventId moved = tw.sim.reschedule(id, when);
      id = moved != EventId{} ? moved : tw.sim.schedule_at(when, make_callback(t, tag));
    } else {
      tw.sim.cancel(id);
      id = tw.sim.schedule_at(when, make_callback(t, tag));
    }
  };
  make_callback = [&](std::size_t t, int tag) -> Callback {
    return [&, t, tag] {
      Twin& tw = twins[t];
      tw.log.emplace_back(tag, tw.sim.now().count());
      const int mover = mover_of[static_cast<std::size_t>(tag)];
      if (mover >= 0) move_to(t, mover, tw.sim.now() + Duration(tag % 23));
    };
  };

  for (int op = 0; op < 100'000; ++op) {
    const std::uint64_t r = rng() % 100;
    const int tags = static_cast<int>(mover_of.size());
    if (r < 40 || tags == 0) {
      const std::int64_t delay = static_cast<std::int64_t>(rng() % 50);
      mover_of.push_back(tags > 0 && rng() % 6 == 0 ? static_cast<int>(rng() % tags) : -1);
      for (std::size_t t = 0; t < 2; ++t) {
        twins[t].id_of.push_back(twins[t].sim.schedule(Duration(delay), make_callback(t, tags)));
      }
    } else if (r < 75) {
      const int tag = static_cast<int>(rng() % tags);
      // Mostly forward (the token-timer case), sometimes into the past.
      const std::int64_t offset = static_cast<std::int64_t>(rng() % 60) - 10;
      for (std::size_t t = 0; t < 2; ++t) move_to(t, tag, twins[t].sim.now() + Duration(offset));
    } else if (r < 85) {
      const int tag = static_cast<int>(rng() % tags);
      for (Twin& tw : twins) tw.sim.cancel(tw.id_of[static_cast<std::size_t>(tag)]);
    } else {
      const std::int64_t step = static_cast<std::int64_t>(rng() % 30);
      for (Twin& tw : twins) tw.sim.run_until(tw.sim.now() + Duration(step));
    }
    ASSERT_EQ(twins[0].log.size(), twins[1].log.size()) << "firings diverged at op " << op;
    if (op % 4096 == 0) {
      ASSERT_EQ(twins[0].id_of, twins[1].id_of) << "handles diverged by op " << op;
    }
  }
  for (Twin& tw : twins) tw.sim.run();
  EXPECT_EQ(twins[0].id_of, twins[1].id_of);
  EXPECT_EQ(twins[0].log, twins[1].log);
  EXPECT_EQ(twins[0].sim.events_executed(), twins[1].sim.events_executed());
  EXPECT_GT(twins[0].log.size(), 30'000u);
  EXPECT_TRUE(twins[0].sim.idle());
}

// Differential test of the lazy re-key. Simulator A moves events with
// reschedule(): a later key only rewrites the event's slot, and its stale
// heap entry is re-keyed when it reaches the top. Simulator B, the eager
// reference, cancels and schedules afresh, so its heap never holds a stale
// key. One random stream of schedule, cancel, re-key earlier or later,
// step(), run(limit) and run_until() drives both, and handlers schedule and
// re-key too. After every operation the firings (tag and instant), now(),
// events_executed(), idle() and the step/run results must agree.
TEST(Simulator, LazyRekeyMatchesCancelPlusScheduleUnderEveryRunMode) {
  struct Twin {
    Simulator sim;
    std::vector<EventId> id_of;                      // tag → current handle
    std::vector<std::int64_t> when_of;              // tag → instant last keyed to
    std::vector<std::pair<int, std::int64_t>> log;  // (tag, instant) per firing
  };
  std::array<Twin, 2> twins;
  std::mt19937_64 rng(20261020);
  bool nested = true;  // handlers schedule and re-key while the stream runs

  std::function<Callback(std::size_t, int)> make_callback;
  const auto add = [&](std::size_t t, TimePoint when) {
    Twin& tw = twins[t];
    const int tag = static_cast<int>(tw.id_of.size());
    tw.when_of.push_back(std::max(when, tw.sim.now()).count());
    tw.id_of.push_back(tw.sim.schedule_at(when, make_callback(t, tag)));
  };
  // Re-keys `tag` (rescheduling it afresh if it already fired or was
  // cancelled): A in place, B by cancel + schedule.
  const auto move_to = [&](std::size_t t, int tag, TimePoint when) {
    Twin& tw = twins[t];
    EventId& id = tw.id_of[static_cast<std::size_t>(tag)];
    tw.when_of[static_cast<std::size_t>(tag)] = std::max(when, tw.sim.now()).count();
    if (t == 0) {
      const EventId moved = tw.sim.reschedule(id, when);
      id = moved != EventId{} ? moved : tw.sim.schedule_at(when, make_callback(t, tag));
    } else {
      tw.sim.cancel(id);
      id = tw.sim.schedule_at(when, make_callback(t, tag));
    }
  };
  make_callback = [&](std::size_t t, int tag) -> Callback {
    return [&, t, tag] {
      Twin& tw = twins[t];
      tw.log.emplace_back(tag, tw.sim.now().count());
      if (!nested) return;
      const TimePoint now = tw.sim.now();
      if (tag % 4 == 1) {
        const int other = static_cast<int>((static_cast<std::size_t>(tag) * 7) % tw.id_of.size());
        move_to(t, other, now + Duration(tag % 29));
      } else if (tag % 6 == 0) {
        add(t, now + Duration(tag % 3 == 0 ? 0 : tag % 13));
      }
    };
  };

  const auto expect_agree = [&](int op) {
    const Twin& a = twins[0];
    const Twin& b = twins[1];
    ASSERT_EQ(a.log.size(), b.log.size()) << "firings diverged at op " << op;
    if (!a.log.empty()) {
      ASSERT_EQ(a.log.back(), b.log.back()) << "op " << op;
    }
    ASSERT_EQ(a.sim.now(), b.sim.now()) << "op " << op;
    ASSERT_EQ(a.sim.events_executed(), b.sim.events_executed()) << "op " << op;
    ASSERT_EQ(a.sim.idle(), b.sim.idle()) << "op " << op;
  };

  std::uint64_t later_rekeys = 0;
  for (int op = 0; op < 100'000; ++op) {
    const std::uint64_t r = rng() % 100;
    const std::size_t tags = twins[0].id_of.size();
    if (r < 35 || tags == 0) {
      const Duration delay(static_cast<std::int64_t>(rng() % 50));
      for (std::size_t t = 0; t < 2; ++t) add(t, twins[t].sim.now() + delay);
    } else if (r < 55) {
      const int tag = static_cast<int>(rng() % tags);
      const Duration later(1 + static_cast<std::int64_t>(rng() % 40));
      for (std::size_t t = 0; t < 2; ++t) {
        move_to(t, tag, TimePoint(Duration(twins[t].when_of[static_cast<std::size_t>(tag)])) + later);
      }
      ++later_rekeys;
    } else if (r < 65) {
      const int tag = static_cast<int>(rng() % tags);
      const Duration earlier(static_cast<std::int64_t>(rng() % 40));
      for (std::size_t t = 0; t < 2; ++t) {
        move_to(t, tag, TimePoint(Duration(twins[t].when_of[static_cast<std::size_t>(tag)])) - earlier);
      }
    } else if (r < 72) {
      const std::size_t tag = rng() % tags;
      for (Twin& tw : twins) tw.sim.cancel(tw.id_of[tag]);
    } else if (r < 80) {
      const bool a = twins[0].sim.step();
      const bool b = twins[1].sim.step();
      ASSERT_EQ(a, b) << "step() diverged at op " << op;
    } else if (r < 88) {
      const std::size_t limit = 1 + rng() % 8;
      const std::size_t a = twins[0].sim.run(limit);
      const std::size_t b = twins[1].sim.run(limit);
      ASSERT_EQ(a, b) << "run(limit) diverged at op " << op;
    } else {
      const Duration step(static_cast<std::int64_t>(rng() % 30));
      for (Twin& tw : twins) tw.sim.run_until(tw.sim.now() + step);
    }
    ASSERT_NO_FATAL_FAILURE(expect_agree(op));
    if (op % 4096 == 0) {
      ASSERT_EQ(twins[0].id_of, twins[1].id_of) << "op " << op;
    }
  }
  nested = false;
  for (Twin& tw : twins) tw.sim.run();
  ASSERT_NO_FATAL_FAILURE(expect_agree(-1));
  EXPECT_EQ(twins[0].id_of, twins[1].id_of);
  EXPECT_EQ(twins[0].log, twins[1].log);
  EXPECT_TRUE(twins[0].sim.idle());
  EXPECT_GT(later_rekeys, 15'000u);
  EXPECT_GT(twins[0].log.size(), 30'000u);
}

TEST(Simulator, StaleHeapKeySurfacesWithoutFiringOrCounting) {
  Simulator sim;
  std::vector<char> fired;
  const EventId a = sim.schedule(Duration(10), [&] { fired.push_back('a'); });
  sim.schedule(Duration(20), [&] { fired.push_back('b'); });
  ASSERT_NE(sim.reschedule(a, TimePoint(Duration(30))), EventId{});  // later: lazy
  EXPECT_EQ(sim.run(1), 1u);  // a's stale key (10) surfaces first; b fires
  EXPECT_EQ(fired, (std::vector<char>{'b'}));
  EXPECT_EQ(sim.now().count(), 20);
  EXPECT_EQ(sim.events_executed(), 1u);
  sim.run_until(TimePoint(Duration(25)));
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(sim.now().count(), 25);
  EXPECT_FALSE(sim.idle());
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, (std::vector<char>{'b', 'a'}));
  EXPECT_EQ(sim.now().count(), 30);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RescheduleOfFiredOrCancelledEventIsRefused) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule(Duration(5), [&] { ++fired; });
  const EventId b = sim.schedule(Duration(5), [&] { ++fired; });
  sim.cancel(b);
  EXPECT_EQ(sim.reschedule(b, sim.now() + Duration(9)), EventId{});
  const EventId moved = sim.reschedule(a, sim.now() + Duration(9));
  ASSERT_NE(moved, EventId{});
  EXPECT_NE(moved, a);  // the old handle went stale, as after a cancel
  EXPECT_EQ(sim.reschedule(a, sim.now() + Duration(1)), EventId{});
  sim.run_until(sim.now() + Duration(8));
  EXPECT_EQ(fired, 0);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().count(), 9);
  EXPECT_EQ(sim.reschedule(moved, sim.now() + Duration(1)), EventId{});
  EXPECT_EQ(sim.reschedule(EventId{}, sim.now()), EventId{});
}

}  // namespace
}  // namespace eternal::sim
