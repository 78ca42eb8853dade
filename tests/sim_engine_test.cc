// Discrete-event engine: ordering, timers, clock semantics, allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/assert.h"
#include "src/common/rng.h"
#include "src/sim/engine.h"
#include "src/sim/program.h"

// Global operator new, counted while g_count_news is set (see
// Engine.SteadyStateSchedulingDoesNotAllocate).
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<int64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler does not see free() meet a new-expression.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sa::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.Schedule(Usec(30), [&] { order.push_back(3); });
  e.Schedule(Usec(10), [&] { order.push_back(1); });
  e.Schedule(Usec(20), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), Usec(30));
}

TEST(Engine, SameTimestampIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(Usec(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  Time seen = -1;
  e.Schedule(Usec(10), [&] {
    e.ScheduleIn(Usec(5), [&] { seen = e.now(); });
  });
  e.Run();
  EXPECT_EQ(seen, Usec(15));
}

// Timers are the one event that can be withdrawn: a disarmed timer never
// fires, and one armed again fires once, at its new instant.
TEST(Engine, DisarmedTimerNeverFires) {
  Engine e;
  int fires = 0;
  const TimerId t = e.AddTimer([&fires] { ++fires; });
  e.ArmTimer(t, Usec(10));
  EXPECT_TRUE(e.DisarmTimer(t));
  e.Run();
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(e.events_fired(), 0u);
  e.ArmTimer(t, Usec(20));
  e.ArmTimer(t, Usec(30));  // replaces the fire at 20
  e.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(e.now(), Usec(30));
}

// A second disarm, or a disarm after the fire, returns false and does
// nothing; kNoTimer is never armed.
TEST(Engine, DisarmIsInertWithNothingPending) {
  Engine e;
  int fires = 0;
  const TimerId t = e.AddTimer([&fires] { ++fires; });
  EXPECT_FALSE(e.DisarmTimer(t));  // never armed
  e.ArmTimer(t, Usec(1));
  EXPECT_TRUE(e.DisarmTimer(t));
  EXPECT_FALSE(e.DisarmTimer(t));
  e.ArmTimer(t, Usec(2));
  e.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(e.timer_armed(t));
  EXPECT_FALSE(e.DisarmTimer(t));
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_FALSE(e.timer_armed(kNoTimer));
  EXPECT_FALSE(e.DisarmTimer(kNoTimer));
  EXPECT_EQ(e.num_timers(), 1u);
}

// A disarm made from another event's callback holds, even for a timer due
// at that same instant.
TEST(Engine, DisarmFromAnotherEventsCallbackHolds) {
  Engine e;
  bool victim_ran = false;
  const TimerId victim = e.AddTimer([&victim_ran] { victim_ran = true; });
  e.Schedule(Usec(10), [&] {
    EXPECT_TRUE(e.DisarmTimer(victim));
    EXPECT_EQ(e.pending_events(), 0u);
  });
  e.ArmTimer(victim, Usec(10));  // after the event at the same instant
  EXPECT_EQ(e.pending_events(), 2u);
  e.Run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(e.events_fired(), 1u);
}

// pending_events() counts scheduled events and armed timers, and a timer
// stops counting when it fires, is disarmed or was never armed.
TEST(Engine, PendingEventsCountsArmedTimers) {
  Engine e;
  std::vector<TimerId> timers;
  for (int i = 0; i < 5; ++i) {
    timers.push_back(e.AddTimer([] {}));
  }
  EXPECT_EQ(e.pending_events(), 0u);
  e.Schedule(Usec(50), [] {});
  for (int i = 0; i < 4; ++i) {
    e.ArmTimer(timers[static_cast<size_t>(i)], Usec(10 * (i + 1)));
  }
  EXPECT_EQ(e.pending_events(), 5u);
  e.ArmTimer(timers[0], Usec(15));  // moving a fire adds none
  EXPECT_EQ(e.pending_events(), 5u);
  e.DisarmTimer(timers[1]);
  EXPECT_EQ(e.pending_events(), 4u);
  e.RunUntil(Usec(30));  // timers 0 and 2
  EXPECT_EQ(e.pending_events(), 2u);
  e.Run();
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.events_fired(), 4u);
}

TEST(Engine, ZeroDelayEventRunsAfterCurrentEvent) {
  Engine e;
  std::vector<int> order;
  e.Schedule(Usec(10), [&] {
    order.push_back(1);
    e.ScheduleIn(0, [&] { order.push_back(2); });
    order.push_back(3);  // still inside the first event
  });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  int count = 0;
  e.Schedule(Usec(10), [&] { ++count; });
  e.Schedule(Usec(20), [&] { ++count; });
  e.Schedule(Usec(30), [&] { ++count; });
  e.RunUntil(Usec(20));
  EXPECT_EQ(count, 2);  // inclusive boundary
  EXPECT_EQ(e.now(), Usec(20));
  e.Run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine e;
  e.RunUntil(Msec(5));
  EXPECT_EQ(e.now(), Msec(5));
}

// Regression: with an event pending past `until`, RunUntil used to set the
// clock to `until` even when that lay in the past, so a later event could be
// scheduled (and fire) before events that had already run.
TEST(Engine, RunUntilNeverRewindsClock) {
  Engine e;
  int fired = 0;
  e.Schedule(Usec(100), [&] { ++fired; });
  e.RunUntil(Usec(50));
  EXPECT_EQ(e.now(), Usec(50));
  e.RunUntil(Usec(20));
  EXPECT_EQ(e.now(), Usec(50));
  EXPECT_EQ(fired, 0);
  e.RunUntil(Usec(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), Usec(100));
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.Step());
  e.Schedule(1, [] {});
  EXPECT_TRUE(e.Step());
  EXPECT_FALSE(e.Step());
  EXPECT_EQ(e.events_fired(), 1u);
}

TEST(Engine, CascadedEventsRunToCompletion) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      e.ScheduleIn(Usec(1), chain);
    }
  };
  e.Schedule(0, chain);
  e.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), Usec(99));
}

TEST(Engine, MaxEventsBoundsExecution) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(i, [&] { ++count; });
  }
  e.Run(4);
  EXPECT_EQ(count, 4);
}

// A seeded script of Schedule, ArmTimer, DisarmTimer, Step and RunUntil
// calls, checked against a reference that orders the pending events and
// armed timers together by (at, scheduling order), an arm counting as a
// scheduling.  Half the delays come from {0..3}, so same-instant ties are
// common, between events, between timers and across the two; every fired
// event may schedule another, possibly at its own instant, and arm or
// disarm a random timer, and every timer fire may do the same and arm,
// disarm and re-arm its own timer.  Timers are added as the script runs,
// up to kMaxTimers (past 64, so the tree regrows with armed leaves), and
// some RunUntil bounds are the exact instant a timer was just armed for.
// The pending count climbs from 0 to kPeak, past every level boundary of
// the 4-ary heap (1, 5, 21, 85, 341, 1365 and 5461 keys), then drains back
// to 0.
class OrderScript {
 public:
  static constexpr size_t kPeak = 10'000;
  static constexpr size_t kMaxTimers = 70;

  explicit OrderScript(uint64_t seed) : rng_(seed) {}

  void Run() {
    while (live_.size() < kPeak && mismatches_ == 0) {
      const uint64_t op = rng_.Below(24);
      if (op < 16) {
        Schedule();
      } else if (op < 19) {
        DisarmRandom();
      } else if (op == 19) {
        Step();
      } else if (op == 20) {
        RunUntil(e_.now() + static_cast<Duration>(rng_.Below(8)));
      } else if (op == 21) {
        AddTimer();
      } else if (op == 22) {
        ArmRandom();
      } else {
        RunUntilATimer();
      }
      Check();
    }
    while (!live_.empty() && mismatches_ == 0) {
      const uint64_t op = rng_.Below(24);
      if (op < 8) {
        Step();
      } else if (op < 14) {
        RunUntil(e_.now() + static_cast<Duration>(rng_.Below(20'000)));
      } else if (op < 19) {
        DisarmRandom();
      } else if (op < 21) {
        Schedule();
      } else if (op == 21) {
        ArmRandom();
      } else {
        RunUntilATimer();
      }
      Check();
    }
    EXPECT_FALSE(e_.Step());
    EXPECT_EQ(mismatches_, 0) << first_mismatch_;
    EXPECT_EQ(e_.events_fired(), fired_);
    EXPECT_GT(timer_fires_, 0u);
  }

 private:
  using RefKey = std::pair<Time, uint64_t>;  // (at, scheduling order)
  struct Scheduled {
    Time at;
    uint64_t order;
  };
  struct TimerRef {
    TimerId id;
    bool armed = false;
    RefKey key{};  // while armed
  };

  Duration Delay() {
    return static_cast<Duration>(rng_.Below(2) == 0 ? rng_.Below(4) : rng_.Below(1'000'000));
  }

  void Schedule() {
    const Time at = e_.now() + Delay();
    const uint64_t order = next_order_++;
    const size_t index = all_.size();
    e_.Schedule(at, [this, index] { EventFired(index); });
    all_.push_back(Scheduled{at, order});
    live_.insert(RefKey{at, order});
  }

  void AddTimer() {
    if (timers_.size() == kMaxTimers) {
      return;
    }
    const size_t index = timers_.size();
    const TimerId id = e_.AddTimer([this, index] { TimerFired(index); });
    EXPECT_EQ(id, index);
    EXPECT_FALSE(e_.timer_armed(id));
    timers_.push_back(TimerRef{id});
  }

  // Arms timer `index` for `delay` from now, moving its fire if it is
  // armed already.
  void Arm(size_t index, Duration delay) {
    TimerRef& t = timers_[index];
    EXPECT_EQ(e_.timer_armed(t.id), t.armed);
    if (t.armed) {
      live_.erase(t.key);
    }
    t.key = RefKey{e_.now() + delay, next_order_++};
    t.armed = true;
    live_.insert(t.key);
    e_.ArmTimer(t.id, t.key.first);
    EXPECT_TRUE(e_.timer_armed(t.id));
  }

  void Disarm(size_t index) {
    TimerRef& t = timers_[index];
    const bool armed = t.armed;
    if (armed) {
      live_.erase(t.key);
      t.armed = false;
    }
    EXPECT_EQ(e_.DisarmTimer(t.id), armed);
    EXPECT_FALSE(e_.timer_armed(t.id));
  }

  void ArmRandom() {
    if (!timers_.empty()) {
      Arm(static_cast<size_t>(rng_.Below(timers_.size())), Delay());
    }
  }

  void DisarmRandom() {
    if (!timers_.empty()) {
      Disarm(static_cast<size_t>(rng_.Below(timers_.size())));
    }
  }

  // Arms a random timer for an instant at most 3 ns away and runs until
  // exactly that instant: the bound is inclusive, so the timer fires.
  void RunUntilATimer() {
    if (timers_.empty()) {
      return;
    }
    const auto index = static_cast<size_t>(rng_.Below(timers_.size()));
    Arm(index, static_cast<Duration>(rng_.Below(4)));
    RunUntil(timers_[index].key.first);
  }

  // Records a departure from the reference; the script stops at the first,
  // since an engine that lost a fire would never drain.
  void Mismatch(const std::string& what) {
    if (mismatches_++ == 0) {
      first_mismatch_ = what;
    }
  }

  // The reference's check of a fire: `key` must be the least live key.  An
  // engine that keeps firing after a mismatch may be looping inside one
  // Step or RunUntil, where the script cannot stop it, so it aborts then.
  void Fired(const RefKey& key, const char* kind) {
    SA_CHECK_MSG(mismatches_ < 1000, first_mismatch_.c_str());
    if (live_.empty() || *live_.begin() != key) {
      Mismatch(std::string(kind) + " of order " + std::to_string(key.second) + " fired at " +
               std::to_string(e_.now()) + " out of (at, order) order");
    }
    live_.erase(key);
    ++fired_;
    EXPECT_EQ(e_.pending_events(), live_.size());
  }

  void EventFired(size_t index) {
    Fired(RefKey{e_.now(), all_[index].order}, "event");
    if (rng_.Below(10) < 3) {
      DisarmRandom();
    }
    if (rng_.Below(10) < 4) {
      Schedule();
    }
    if (rng_.Below(20) < 3) {
      ArmRandom();
    }
    if (rng_.Below(10) == 0) {
      DisarmRandom();
    }
  }

  // A firing timer is disarmed; its handler may arm it again (and disarm
  // and re-arm it), and arms, disarms and schedules at random.
  void TimerFired(size_t index) {
    TimerRef& t = timers_[index];
    EXPECT_TRUE(t.armed);
    EXPECT_EQ(t.key.first, e_.now());
    Fired(t.key, "timer");
    t.armed = false;
    ++timer_fires_;
    EXPECT_FALSE(e_.timer_armed(t.id));
    if (rng_.Below(10) < 3) {
      Arm(index, Delay());
      if (rng_.Below(4) == 0) {
        Disarm(index);
        if (rng_.Below(2) == 0) {
          Arm(index, Delay());
        }
      }
    } else if (rng_.Below(4) == 0) {
      Disarm(index);  // not armed: a no-op
    }
    if (rng_.Below(20) < 3) {
      ArmRandom();
    }
    if (rng_.Below(10) == 0) {
      DisarmRandom();
    }
    if (rng_.Below(10) < 2) {
      Schedule();
    }
    if (rng_.Below(10) < 2) {
      DisarmRandom();
    }
  }

  void Step() {
    const bool any = !live_.empty();
    if (e_.Step() != any) {
      Mismatch("Step with " + std::to_string(live_.size()) + " live at " +
               std::to_string(e_.now()));
    }
  }

  void RunUntil(Time until) {
    const Time before = e_.now();
    e_.RunUntil(until);
    EXPECT_EQ(e_.now(), std::max(before, until));
    if (!live_.empty() && live_.begin()->first <= until) {
      Mismatch("RunUntil(" + std::to_string(until) + ") left order " +
               std::to_string(live_.begin()->second) + " due at " +
               std::to_string(live_.begin()->first));
    }
  }

  void Check() { ASSERT_EQ(e_.pending_events(), live_.size()); }

  Engine e_;
  common::Rng rng_;
  uint64_t next_order_ = 0;
  std::vector<Scheduled> all_;  // every event ever scheduled
  std::vector<TimerRef> timers_;
  std::set<RefKey> live_;  // pending events and armed timers
  uint64_t fired_ = 0;
  uint64_t timer_fires_ = 0;
  int mismatches_ = 0;
  std::string first_mismatch_;
};

TEST(Engine, RandomScriptsFireInTimeThenSchedulingOrder) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    OrderScript(seed).Run();
  }
}

// Rounds of 64 events and eight timers armed for the same instants, half
// of the timers disarmed and one of those armed again: once the first
// round has sized the engine's heap, slot and free-slot arrays,
// scheduling, arming, disarming and firing allocate nothing.  Half the
// events capture three pointers (24 bytes), the common continuation shape,
// which a std::function would have put on the heap; so does the first
// timer's handler, which arms its timer once more in every round.
TEST(Engine, SteadyStateSchedulingDoesNotAllocate) {
  Engine e;
  int fired = 0;
  int timer_fires = 0;
  bool rearm = false;
  Time last_wide = -1;
  const auto narrow = [&fired] { ++fired; };
  const auto wide = [&fired, &last_wide, &e] {
    ++fired;
    last_wide = e.now();
  };
  static_assert(sizeof(wide) == 24, "a three-pointer capture");
  const auto first_timer = [&timer_fires, &rearm, &e] {
    ++timer_fires;
    if (rearm) {
      rearm = false;
      e.ArmTimer(0, e.now() + Usec(1));
    }
  };
  static_assert(sizeof(first_timer) == 24, "a three-pointer capture");
  std::vector<TimerId> timers = {e.AddTimer(first_timer)};
  ASSERT_EQ(timers[0], 0u);
  while (timers.size() < 8) {
    timers.push_back(e.AddTimer([&timer_fires] { ++timer_fires; }));
  }
  const auto round = [&] {
    for (size_t i = 0; i < 64; ++i) {
      const Duration delay = Usec(static_cast<int64_t>(i % 7) + 1);
      if (i % 4 < 2) {
        e.ScheduleIn(delay, narrow);
      } else {
        e.ScheduleIn(delay, wide);
      }
    }
    for (size_t i = 0; i < timers.size(); ++i) {
      e.ArmTimer(timers[i], e.now() + Usec(static_cast<int64_t>(i % 7) + 1));
    }
    for (size_t i = 1; i < timers.size(); i += 2) {
      e.DisarmTimer(timers[i]);
    }
    e.ArmTimer(timers[1], e.now() + Usec(3));
    rearm = true;
    e.Run();
  };
  round();  // warm-up
  const int64_t before = g_news.load();
  g_count_news = true;
  for (int r = 0; r < 100; ++r) {
    round();
  }
  g_count_news = false;
  EXPECT_EQ(g_news.load() - before, 0);
  EXPECT_EQ(fired, 101 * 64);
  EXPECT_EQ(timer_fires, 101 * 6);  // timers 0 (twice), 1, 2, 4 and 6
  EXPECT_EQ(last_wide, e.now());  // a wide event fires last in every round
}

// A timer's handler runs with its fired key still in the tree, so the
// engine refuses to run events from inside it.
TEST(EngineDeathTest, StepInsideATimerHandlerIsRefused) {
  Engine e;
  const TimerId t = e.AddTimer([&e] { e.Step(); });
  e.ArmTimer(t, Usec(1));
  EXPECT_DEATH(e.Run(), "Step inside a timer's handler");
}

TEST(TimeFormat, AutoSelectsUnits) {
  EXPECT_EQ(FormatDuration(Nsec(500)), "500ns");
  EXPECT_EQ(FormatDuration(Usec(17)), "17.00us");
  EXPECT_EQ(FormatDuration(Msec(2) + Usec(400)), "2.400ms");
  EXPECT_EQ(FormatDuration(Sec(3)), "3.000s");
  EXPECT_EQ(FormatDuration(-Usec(5)), "-5.00us");
}

TEST(TimeUnits, ConversionsAreConsistent) {
  EXPECT_EQ(Usec(1), Nsec(1000));
  EXPECT_EQ(Msec(1), Usec(1000));
  EXPECT_EQ(Sec(1), Msec(1000));
  EXPECT_DOUBLE_EQ(ToUsec(Usec(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToMsec(Msec(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToSec(Sec(42)), 42.0);
}

// Minimal checks of the coroutine plumbing outside any runtime.
TEST(Program, BodyRunsOnlyWhenResumed) {
  int stage = 0;
  auto make = [&]() -> Program {
    stage = 1;
    co_await TrapAwait{};
    stage = 2;
  };
  Program p = make();
  EXPECT_EQ(stage, 0);  // initial_suspend: nothing ran yet
  p.Resume();
  EXPECT_EQ(stage, 1);
  EXPECT_FALSE(p.done());
  p.Resume();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(p.done());
}

TEST(Program, DestroyingSuspendedProgramReleasesFrame) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    auto make = [&]() -> Program {
      Sentinel s{&destroyed};
      co_await TrapAwait{};
      co_await TrapAwait{};
    };
    Program p = make();
    p.Resume();
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

TEST(Program, MoveTransfersOwnership) {
  auto make = []() -> Program { co_await TrapAwait{}; };
  Program a = make();
  Program b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.Resume();
  b.Resume();
  EXPECT_TRUE(b.done());
}

}  // namespace
}  // namespace sa::sim
