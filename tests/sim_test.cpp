// sim_test.cpp — unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/alloc_hook.hpp"
#include "util/rng.hpp"

namespace xunet::sim {
namespace {

TEST(SimTime, Arithmetic) {
  SimTime t(1'000'000);
  SimDuration d = milliseconds(2);
  EXPECT_EQ((t + d).ns(), 3'000'000);
  EXPECT_EQ(((t + d) - t).ns(), d.ns());
  EXPECT_LT(t, t + d);
  EXPECT_DOUBLE_EQ(d.ms(), 2.0);
  EXPECT_DOUBLE_EQ(seconds(3).sec(), 3.0);
  EXPECT_EQ(seconds_f(0.5).ns(), 500'000'000);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ms(), 30.0);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ZeroDelayRunsAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimDuration{}, [&] {
    order.push_back(1);
    sim.schedule(SimDuration{}, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule(milliseconds(10), [&] { ++count; });
  sim.schedule(milliseconds(30), [&] { ++count; });
  sim.run_until(SimTime(20'000'000));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now().ns(), 20'000'000);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunForAdvancesRelative) {
  Simulator sim;
  sim.run_for(milliseconds(5));
  EXPECT_EQ(sim.now().ms(), 5.0);
  sim.run_for(milliseconds(5));
  EXPECT_EQ(sim.now().ms(), 10.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule(microseconds(1), recurse);
  };
  sim.schedule(microseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now().us(), 100.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  // Regression: a negative delay (e.g. computed from a clock that ran
  // slightly backwards) must behave like zero delay, not wrap into the
  // far future or corrupt the event queue.
  Simulator sim;
  sim.schedule(milliseconds(1), [&] {
    sim.schedule(nanoseconds(-5), [&] {
      EXPECT_EQ(sim.now().ms(), 1.0);  // fired at the clamped instant
    });
  });
  std::vector<int> order;
  sim.schedule(nanoseconds(-100), [&] { order.push_back(1); });
  sim.schedule(nanoseconds(0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // clamp preserves FIFO at now
  EXPECT_EQ(sim.now().ms(), 1.0);
}

TEST(Simulator, FarFutureEventsBeyondWheelHorizonDispatchInOrder) {
  // Events seconds out share the one queue with near events; they must
  // still interleave correctly with them as the clock advances.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(seconds(30), [&] { order.push_back(3); });   // far
  sim.schedule(microseconds(10), [&] { order.push_back(1); });
  sim.schedule(seconds(1), [&] { order.push_back(2); });
  sim.schedule(seconds(60), [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now().sec(), 60.0);
}

TEST(Simulator, PeakPendingTracksHighWaterMark) {
  Simulator sim;
  for (int i = 0; i < 50; ++i) {
    sim.schedule(microseconds(i), [] {});
  }
  EXPECT_EQ(sim.pending(), 50u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_GE(sim.peak_pending(), 50u);
}

TEST(Simulator, DispatchOrderMatchesGolden) {
  // Mixes same-instant FIFO, a clamped negative delay scheduled from inside
  // a callback, and a far event seconds out.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(milliseconds(2), [&] { order.push_back(2); });
  sim.schedule(milliseconds(1), [&] {
    order.push_back(1);
    sim.schedule(nanoseconds(-1), [&] { order.push_back(10); });
    sim.schedule(milliseconds(5), [&] { order.push_back(4); });
  });
  sim.schedule(milliseconds(2), [&] { order.push_back(3); });
  sim.schedule(seconds(20), [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2, 3, 4, 5}));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  EventId id = sim.schedule(milliseconds(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
  // The freed record is reused; the old id must not reach the new event.
  bool ran = false;
  sim.schedule(milliseconds(1), [&] { ran = true; });
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(~EventId{0}));
}

TEST(Simulator, EventCancellingItselfGetsFalse) {
  Simulator sim;
  EventId id = 0;
  bool result = true;
  id = sim.schedule(milliseconds(1), [&] { result = sim.cancel(id); });
  sim.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(sim.pending(), 0u);
}

/// Counts destructions of the live instance only (moved-from shells don't
/// count), and optionally cancels an event from its destructor.
struct DtorProbe {
  int* dtors;
  Simulator* sim = nullptr;
  EventId* cancel_on_dtor = nullptr;
  bool* cancel_result = nullptr;
  bool live = true;
  explicit DtorProbe(int* d) : dtors(d) {}
  DtorProbe(DtorProbe&& o) noexcept
      : dtors(o.dtors), sim(o.sim), cancel_on_dtor(o.cancel_on_dtor),
        cancel_result(o.cancel_result), live(o.live) {
    o.live = false;
  }
  ~DtorProbe() {
    if (!live) return;
    ++*dtors;
    if (cancel_on_dtor != nullptr) *cancel_result = sim->cancel(*cancel_on_dtor);
  }
};

TEST(Simulator, CancelDestroysCallableOnceAtCancelTime) {
  int dtors = 0;
  {
    Simulator sim;
    EventId id = sim.schedule(milliseconds(1), [p = DtorProbe(&dtors)] {});
    EXPECT_EQ(dtors, 0);
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_EQ(dtors, 1);
    EXPECT_EQ(sim.pending(), 0u);
    sim.run();
    EXPECT_EQ(dtors, 1);

    // Cancelled but never run past: ~Simulator must not destroy it again.
    EventId id2 = sim.schedule(milliseconds(1), [p = DtorProbe(&dtors)] {});
    EXPECT_TRUE(sim.cancel(id2));
    EXPECT_EQ(dtors, 2);
  }
  EXPECT_EQ(dtors, 2);
}

TEST(Simulator, CallableDestructorMayReenterCancel) {
  int dtors = 0;
  bool reentrant_result = true;
  Simulator sim;
  EventId id = 0;
  DtorProbe probe(&dtors);
  probe.sim = &sim;
  probe.cancel_on_dtor = &id;
  probe.cancel_result = &reentrant_result;
  id = sim.schedule(milliseconds(1), [p = std::move(probe)] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(dtors, 1);
  EXPECT_FALSE(reentrant_result);  // already retired when the dtor ran
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PendingStaysExactAcrossCancelAndDispatch) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(sim.schedule(microseconds(i), [] {}));
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(sim.cancel(ids[i]));
  EXPECT_EQ(sim.pending(), 50u);
  sim.run_until(SimTime(49'500));  // events 0..49: 25 live, 25 cancelled
  EXPECT_EQ(sim.pending(), 25u);
  for (EventId id : ids) (void)sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ScheduledIsTrueOnlyWhilePending) {
  Simulator sim;
  EXPECT_FALSE(sim.scheduled(0));
  EventId a = sim.schedule(milliseconds(1), [] {});
  EXPECT_TRUE(sim.scheduled(a));
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.scheduled(a));

  EventId b = 0;
  bool inside = true;
  b = sim.schedule(milliseconds(1), [&] { inside = sim.scheduled(b); });
  EXPECT_TRUE(sim.scheduled(b));
  sim.run();
  EXPECT_FALSE(inside);
  EXPECT_FALSE(sim.scheduled(b));
}

TEST(Simulator, ScheduledIsFalseForStaleIdOfReusedRecord) {
  Simulator sim;
  EventId old_id = sim.schedule(milliseconds(1), [] {});
  ASSERT_TRUE(sim.cancel(old_id));
  EventId new_id = sim.schedule(milliseconds(1), [] {});
  // The freed pool record is handed out again under a new generation.
  ASSERT_EQ(static_cast<std::uint32_t>(new_id), static_cast<std::uint32_t>(old_id));
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(sim.scheduled(old_id));
  EXPECT_FALSE(sim.cancel(old_id));
  EXPECT_TRUE(sim.scheduled(new_id));
}

// ------------------------------------------------ queue hygiene at scale

TEST(Simulator, CancelledFarTimersLeaveTheQueueAtOnce) {
  // 10^5 watchdogs armed 30 s out and cancelled at once, as a held call's
  // request timers are.  None of them waits in the queue for its deadline:
  // run() dispatches exactly the 10 live events and pops nothing else.
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(seconds(30) + microseconds(i), [&fired, i] { fired.push_back(i); });
  }
  for (int i = 0; i < 100'000; ++i) {
    EventId id = sim.schedule(seconds(30) + microseconds(i % 1000), [] {});
    ASSERT_TRUE(sim.cancel(id));
    ASSERT_EQ(sim.pending(), 10u);
  }
  EXPECT_EQ(sim.run(), 10u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, MassCancelDuringDispatchKeepsOrderAndCountsExact) {
  // One event cancels six in seven of a large near/far mix while it runs;
  // the survivors still run in (time, insertion) order, pending() drops by
  // one per cancel, and run() counts only what it dispatched.
  Simulator sim;
  std::vector<EventId> ids;
  std::vector<int> order;
  for (int i = 0; i < 20'000; ++i) {
    const SimDuration at = (i % 2 == 0) ? microseconds(10 + i % 700) : seconds(5 + i % 3);
    ids.push_back(sim.schedule(at, [&order, i] { order.push_back(i); }));
  }
  sim.schedule(microseconds(1), [&] {
    std::size_t left = sim.pending();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 7 != 0) {
        EXPECT_TRUE(sim.cancel(ids[i]));
        EXPECT_EQ(sim.pending(), --left);
      }
    }
  });
  std::vector<int> want;
  for (int i = 0; i < 20'000; i += 7) want.push_back(i);
  EXPECT_EQ(sim.run(), want.size() + 1);
  std::stable_sort(want.begin(), want.end(), [](int a, int b) {
    auto t = [](int i) { return (i % 2 == 0) ? 10'000 + (i % 700) * 1000 : 5'000'000'000LL + (i % 3) * 1'000'000'000LL; };
    return t(a) < t(b);
  });
  EXPECT_EQ(order, want);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, DestructionDestroysEachCallableOnceWhenDestructorsCancel) {
  // ~Simulator scraps pending callables latest-due first; a destructor
  // that cancels another event there retires it without touching the
  // queue, and the walk skips it.  4,000 fillers scheduled and cancelled
  // beforehand leave nothing behind.  Each callable dies exactly once.
  int dtors = 0;
  constexpr int kPairs = 2'000;
  std::vector<EventId> victims(kPairs);  // outlive the Simulator
  std::deque<bool> results(kPairs, true);
  {
    Simulator sim;
    for (int i = 0; i < 4'000; ++i) {
      ASSERT_TRUE(sim.cancel(sim.schedule(milliseconds(2), [] {})));
    }
    for (int i = 0; i < kPairs; ++i) {  // near: scrapped last
      victims[i] = sim.schedule(milliseconds(1), [p = DtorProbe(&dtors)] {});
    }
    for (int i = 0; i < kPairs; ++i) {  // far: scrapped first
      DtorProbe probe(&dtors);
      probe.sim = &sim;
      probe.cancel_on_dtor = &victims[i];
      probe.cancel_result = &results[i];
      sim.schedule(seconds(10), [p = std::move(probe)] {});
    }
    EXPECT_EQ(sim.pending(), 2u * kPairs);
  }
  EXPECT_EQ(dtors, 2 * kPairs);
  EXPECT_EQ(std::count(results.begin(), results.end(), true), kPairs);
}

TEST(Simulator, DestructionDestroysEventsThatDestructorsSchedule) {
  // A destructor run by ~Simulator may schedule a new event.  It goes to
  // the emptied queue, not into the walk under way, and is itself
  // destroyed (never run) before ~Simulator returns.
  struct Rescheduler {
    Simulator* sim;
    int* dtors;
    int* ran;
    int hops;  ///< events left to schedule down the chain
    Rescheduler(Simulator* s, int* d, int* r, int h) : sim(s), dtors(d), ran(r), hops(h) {}
    Rescheduler(Rescheduler&& o) noexcept
        : sim(o.sim), dtors(std::exchange(o.dtors, nullptr)), ran(o.ran), hops(o.hops) {}
    Rescheduler(const Rescheduler&) = delete;
    Rescheduler& operator=(const Rescheduler&) = delete;
    Rescheduler& operator=(Rescheduler&&) = delete;
    ~Rescheduler() {
      if (dtors == nullptr) return;
      ++*dtors;
      if (hops > 0) {
        sim->schedule(microseconds(1), [r = Rescheduler(sim, dtors, ran, hops - 1), ran = ran] {
          ++*ran;
        });
      }
    }
  };
  int dtors = 0;
  int ran = 0;
  {
    Simulator sim;
    for (int i = 0; i < 100; ++i) {
      sim.schedule(milliseconds(1 + i), [r = Rescheduler(&sim, &dtors, &ran, 2), &ran] { ++ran; });
    }
  }
  EXPECT_EQ(dtors, 300);
  EXPECT_EQ(ran, 0);
}

TEST(Simulator, RunUntilThatPeekedAFarEventKeepsLaterEventsInOrder) {
  // run_until stops short of a far event; events scheduled afterwards, in
  // scrambled order and with ties, still run in (time, insertion) order
  // and before the far one.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(seconds(2), [&] { order.push_back(-1); });
  sim.run_until(SimTime(1'000'000));  // 1 ms: only the far event is queued
  EXPECT_EQ(sim.now(), SimTime(1'000'000));
  const std::int64_t delays_us[] = {300, 5, 5000, 5, 70, 300, 1, 900'000, 70};
  for (int i = 0; i < 9; ++i) {
    sim.schedule(microseconds(delays_us[i]), [&order, i] { order.push_back(i); });
  }
  sim.run_until(SimTime(1'000'000) + microseconds(100));
  EXPECT_EQ(order, (std::vector<int>{6, 1, 3, 4, 8}));
  sim.schedule(microseconds(1), [&] { order.push_back(9); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{6, 1, 3, 4, 8, 9, 0, 5, 2, 7, -1}));
}

TEST(Simulator, RandomLoadDispatchesInWhenArmedSequenceOrder) {
  // The ordering contract under a seeded random mix: near events (<= 50 us),
  // far ones (<= 5 s) and events armed explicitly up to 16 ms before they
  // are due.  Callbacks schedule more events and cancel random live ones;
  // between steps, random pending events are cancelled wherever they sit
  // in the heap (the next due included), and run_until is driven to random
  // deadlines.  Every dispatch must be the minimum of a reference ordered
  // by (when, armed, seq), and each run_until must return exactly the
  // number of callbacks it ran.
  using Key = std::tuple<std::int64_t, std::int64_t, std::uint64_t>;  // when, armed, seq
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Simulator sim;
    util::Rng rng(seed);
    std::map<Key, EventId> ref;
    std::uint64_t seq = 0;
    std::size_t fired = 0;
    std::size_t mismatches = 0;
    std::function<void()> add = [&] {
      const std::int64_t now = sim.now().ns();
      const std::uint64_t kind = rng.below(3);
      const std::int64_t when =
          now + (kind == 1 ? rng.range(0, 5'000) * 1'000'000 : rng.range(0, 50) * 1'000);
      const std::int64_t armed = kind == 2 ? when - rng.range(0, 15'999) * 1'000 : now;
      const Key key{when, armed, seq++};
      auto fire = [&, key] {
        if (ref.empty() || ref.begin()->first != key || sim.now().ns() != std::get<0>(key)) {
          ++mismatches;
        }
        ref.erase(key);
        ++fired;
        if (seq < 3'000) {
          for (std::uint64_t n = rng.below(3); n > 0; --n) add();
        }
        if (rng.chance(0.2)) {
          auto victim = ref.lower_bound(Key{sim.now().ns() + rng.range(0, 5'000'000'000), 0, 0});
          if (victim != ref.end()) {
            EXPECT_TRUE(sim.cancel(victim->second));
            ref.erase(victim);
          }
        }
      };
      ref[key] = kind == 2 ? sim.schedule_at(SimTime(when), SimTime(armed), fire)
                           : sim.schedule_at(SimTime(when), fire);
    };
    for (int i = 0; i < 400; ++i) add();
    while (!ref.empty()) {
      for (std::uint64_t n = rng.below(4); n > 0 && !ref.empty(); --n) {
        auto victim = std::next(ref.begin(), static_cast<std::ptrdiff_t>(rng.below(ref.size())));
        ASSERT_TRUE(sim.cancel(victim->second)) << "seed " << seed;
        ref.erase(victim);
      }
      const SimDuration step = rng.chance(0.1) ? seconds(1) : microseconds(rng.range(0, 20'000));
      const std::size_t before = fired;
      const std::size_t dispatched = sim.run_until(sim.now() + step);
      ASSERT_EQ(dispatched, fired - before) << "seed " << seed;
      ASSERT_EQ(sim.pending(), ref.size()) << "seed " << seed;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    EXPECT_GT(fired, 1'000u) << "seed " << seed;
  }
}

TEST(Timer, FiresOnce) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.arm(milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelStopsExpiry) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.arm(milliseconds(5), [&] { ++fired; });
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmReplacesPending) {
  Simulator sim;
  Timer t(sim);
  std::vector<int> hits;
  t.arm(milliseconds(5), [&] { hits.push_back(1); });
  t.arm(milliseconds(10), [&] { hits.push_back(2); });
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{2}));
  EXPECT_EQ(sim.now().ms(), 10.0);
}

TEST(Timer, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim);
    t.arm(milliseconds(5), [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CanRearmFromOwnCallback) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) t.arm(milliseconds(1), tick);
  };
  t.arm(milliseconds(1), tick);
  sim.run();
  EXPECT_EQ(fired, 5);
}

TEST(Timer, ArmedIsFalseInsideExpiryAndRearmWorksThere) {
  Simulator sim;
  Timer t(sim);
  std::vector<bool> armed_inside;
  int fired = 0;
  t.arm(milliseconds(1), [&] {
    armed_inside.push_back(t.armed());
    ++fired;
    t.arm(milliseconds(1), [&] {
      armed_inside.push_back(t.armed());
      ++fired;
    });
    armed_inside.push_back(t.armed());
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(armed_inside, (std::vector<bool>{false, true, false}));
  EXPECT_FALSE(t.armed());
}

TEST(Timer, MovedFromTimerIsIdleAndItsDestructionKeepsTheEvent) {
  Simulator sim;
  int fired = 0;
  std::optional<Timer> src(std::in_place, sim);
  src->arm(milliseconds(5), [&] { ++fired; });
  Timer dst(std::move(*src));
  EXPECT_FALSE(src->armed());
  EXPECT_TRUE(dst.armed());
  src.reset();
  EXPECT_TRUE(dst.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(dst.armed());
}

TEST(Timer, MoveAssignmentCancelsTargetsPendingExpiry) {
  Simulator sim;
  std::vector<int> hits;
  Timer a(sim);
  Timer b(sim);
  a.arm(milliseconds(5), [&] { hits.push_back(1); });
  b.arm(milliseconds(10), [&] { hits.push_back(2); });
  a = std::move(b);
  EXPECT_TRUE(a.armed());
  EXPECT_FALSE(b.armed());
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{2}));
}

TEST(Timer, DefaultTimerIsIdleUntilABoundOneIsMovedIn) {
  Simulator sim;
  Timer t;
  EXPECT_FALSE(t.armed());
  t.cancel();
  t = Timer(sim);
  int fired = 0;
  t.arm(milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Timer, WarmArmCancelRearmLoopAllocatesNothing) {
  if (!util::alloc_hook_installed()) {
    GTEST_SKIP() << "alloc hook not linked into this binary";
  }
  Simulator sim;
  std::deque<Timer> timers;
  for (int i = 0; i < 10'000; ++i) timers.emplace_back(sim);
  int fired = 0;
  auto round = [&] {
    for (Timer& t : timers) t.arm(milliseconds(10), [&fired] { ++fired; });
    for (Timer& t : timers) t.cancel();
    for (Timer& t : timers) t.arm(milliseconds(10), [&fired] { ++fired; });
    sim.run();
  };
  round();  // grows the event pool and queue vectors to working size
  const std::uint64_t before = util::alloc_count();
  round();
  EXPECT_EQ(util::alloc_count() - before, 0u);
  EXPECT_EQ(fired, 20'000);
}

TEST(Timer, WarmLoopOfThrowingMoveCallablesAllocatesNothing) {
  // A by-copy capture of a const std::string is a const member, so the
  // closure's move copies the string and may throw.  Records never move
  // their callable, so such a closure of up to 48 bytes still lives in its
  // event record.
  if (!util::alloc_hook_installed()) {
    GTEST_SKIP() << "alloc hook not linked into this binary";
  }
  Simulator sim;
  const std::string name = "sighost";  // short: no allocation of its own
  int fired = 0;
  auto make = [&fired, name] {
    return [&fired, name] { fired += static_cast<int>(name.size()); };
  };
  using Fn = decltype(make());
  static_assert(!std::is_nothrow_move_constructible_v<Fn>);
  static_assert(sizeof(Fn) <= Simulator::kSboBytes);
  static_assert(Simulator::stored_inline<Fn>);
  std::deque<Timer> timers;
  for (int i = 0; i < 1'000; ++i) timers.emplace_back(sim);
  auto round = [&] {
    for (Timer& t : timers) t.arm(milliseconds(10), make());
    for (Timer& t : timers) t.cancel();
    for (Timer& t : timers) t.arm(milliseconds(10), make());
    sim.run();
  };
  round();  // grows the event pool and queue vectors to working size
  const std::uint64_t before = util::alloc_count();
  round();
  EXPECT_EQ(util::alloc_count() - before, 0u);
  EXPECT_EQ(fired, 2 * 1'000 * 7);
}

}  // namespace
}  // namespace xunet::sim
