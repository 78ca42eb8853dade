// Simulated processor: spans, preemption, interrupt latching, accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/processor.h"
#include "src/trace/trace.h"

// Global operator new, counted while g_count_news is set (see
// ProcessorTest.SpanLifecycleDoesNotAllocate).
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<int64_t> g_news{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler does not see malloc() and free() meet
// new-expressions.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sa::hw {
namespace {

class ProcessorTest : public ::testing::Test {
 protected:
  ProcessorTest() : machine_(1, /*seed=*/1), proc_(machine_.processor(0)) {
    proc_->set_interrupt_handler([this](Processor*, Interrupt irq) {
      ++interrupts_;
      last_ = std::move(irq);
    });
  }

  sim::Engine& engine() { return machine_.engine(); }

  Machine machine_;
  Processor* proc_;
  int interrupts_ = 0;
  Interrupt last_;
};

TEST_F(ProcessorTest, TimedSpanCompletesAfterDuration) {
  bool done = false;
  proc_->BeginSpan(sim::Usec(100), SpanMode::kUser, true, false, [&] { done = true; });
  EXPECT_TRUE(proc_->has_span());
  engine().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine().now(), sim::Usec(100));
  EXPECT_FALSE(proc_->has_span());
}

TEST_F(ProcessorTest, ZeroDurationSpanCompletesSynchronously) {
  bool done = false;
  proc_->BeginSpan(0, SpanMode::kKernel, false, false, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(engine().pending_events(), 0u);
}

TEST_F(ProcessorTest, PreemptionDeliversRemainingWork) {
  bool completed = false;
  proc_->BeginSpan(sim::Usec(100), SpanMode::kUser, true, false,
                   [&] { completed = true; });
  engine().RunUntil(sim::Usec(40));
  proc_->RequestInterrupt();
  EXPECT_EQ(interrupts_, 1);
  EXPECT_FALSE(completed);
  EXPECT_EQ(last_.elapsed, sim::Usec(40));
  EXPECT_EQ(last_.span.remaining, sim::Usec(60));
  EXPECT_EQ(last_.span.mode, SpanMode::kUser);
  ASSERT_TRUE(last_.span.on_complete != nullptr);

  // Continue the span with its saved continuation.
  proc_->BeginSpan(last_.span.remaining, last_.span.mode, true, false,
                   std::move(last_.span.on_complete));
  engine().Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(engine().now(), sim::Usec(100));
}

TEST_F(ProcessorTest, CriticalSectionFlagTravelsWithPreemption) {
  proc_->BeginSpan(sim::Usec(50), SpanMode::kUser, true, /*critical_section=*/true,
                   [] {});
  EXPECT_TRUE(proc_->in_critical_section());
  engine().RunUntil(sim::Usec(10));
  proc_->RequestInterrupt();
  EXPECT_TRUE(last_.span.critical_section);
}

TEST_F(ProcessorTest, NonPreemptibleSpanLatchesInterrupt) {
  bool done = false;
  proc_->BeginSpan(sim::Usec(100), SpanMode::kKernel, /*preemptible=*/false, false,
                   [&] { done = true; });
  proc_->RequestInterrupt();
  EXPECT_EQ(interrupts_, 0);
  EXPECT_TRUE(proc_->interrupt_latched());
  engine().Run();
  EXPECT_TRUE(done);  // the kernel span completed despite the request
}

TEST_F(ProcessorTest, LatchedInterruptFiresAtNextPreemptibleSpan) {
  proc_->BeginSpan(sim::Usec(10), SpanMode::kKernel, false, false, [] {});
  proc_->RequestInterrupt();
  engine().Run();
  EXPECT_EQ(interrupts_, 0);
  // The next preemptible span fires the latch instead of starting.
  bool started = false;
  proc_->BeginSpan(sim::Usec(20), SpanMode::kUser, true, false, [&] { started = true; });
  EXPECT_EQ(interrupts_, 1);
  EXPECT_FALSE(started);
  EXPECT_EQ(last_.span.remaining, sim::Usec(20));
  EXPECT_EQ(last_.elapsed, 0);
}

TEST_F(ProcessorTest, ConsumeLatchedInterruptClearsIt) {
  proc_->BeginSpan(sim::Usec(10), SpanMode::kKernel, false, false, [] {});
  proc_->RequestInterrupt();
  engine().Run();
  EXPECT_TRUE(proc_->ConsumeLatchedInterrupt());
  EXPECT_FALSE(proc_->ConsumeLatchedInterrupt());
  // Subsequent preemptible spans run normally.
  bool done = false;
  proc_->BeginSpan(sim::Usec(5), SpanMode::kUser, true, false, [&] { done = true; });
  engine().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(interrupts_, 0);
}

TEST_F(ProcessorTest, OpenSpanRunsUntilEnded) {
  proc_->BeginOpenSpan(SpanMode::kSpin);
  EXPECT_TRUE(proc_->span_open());
  engine().RunUntil(sim::Msec(3));
  proc_->EndOpenSpan();
  EXPECT_FALSE(proc_->has_span());
  proc_->FlushAccounting();
  EXPECT_EQ(proc_->time_in(SpanMode::kSpin), sim::Msec(3));
}

TEST_F(ProcessorTest, OpenSpanPreemptionReportsOpen) {
  proc_->BeginOpenSpan(SpanMode::kSpin);
  engine().RunUntil(sim::Usec(70));
  proc_->RequestInterrupt();
  EXPECT_EQ(interrupts_, 1);
  EXPECT_TRUE(last_.open);
  EXPECT_EQ(last_.elapsed, sim::Usec(70));
  EXPECT_FALSE(proc_->has_span());
}

TEST_F(ProcessorTest, IdleInterruptReportsWasIdle) {
  proc_->RequestInterrupt();
  EXPECT_EQ(interrupts_, 1);
  EXPECT_TRUE(last_.was_idle);
}

TEST_F(ProcessorTest, AccountingSplitsByMode) {
  proc_->BeginSpan(sim::Usec(10), SpanMode::kKernel, false, false, [this] {
    proc_->BeginSpan(sim::Usec(20), SpanMode::kUser, true, false, [this] {
      proc_->BeginSpan(sim::Usec(5), SpanMode::kMgmt, false, false, [] {});
    });
  });
  engine().Run();
  engine().RunUntil(sim::Usec(100));  // 65 us idle afterwards
  proc_->FlushAccounting();
  EXPECT_EQ(proc_->time_in(SpanMode::kKernel), sim::Usec(10));
  EXPECT_EQ(proc_->time_in(SpanMode::kUser), sim::Usec(20));
  EXPECT_EQ(proc_->time_in(SpanMode::kMgmt), sim::Usec(5));
  EXPECT_EQ(proc_->time_in(SpanMode::kIdle), sim::Usec(65));
  EXPECT_EQ(proc_->busy_time(), sim::Usec(35));
}

TEST_F(ProcessorTest, PreemptedElapsedTimeIsAccounted) {
  proc_->BeginSpan(sim::Usec(100), SpanMode::kUser, true, false, [] {});
  engine().RunUntil(sim::Usec(30));
  proc_->RequestInterrupt();
  proc_->FlushAccounting();
  EXPECT_EQ(proc_->time_in(SpanMode::kUser), sim::Usec(30));
}

// A preempted timed span's end is disarmed, not left to fire: nothing runs
// at the old deadline, and the engine counts one pending event fewer.
TEST_F(ProcessorTest, PreemptingATimedSpanDisarmsItsTimer) {
  bool completed = false;
  engine().Schedule(sim::Usec(500), [] {});
  proc_->BeginSpan(sim::Usec(100), SpanMode::kUser, true, false, [&] { completed = true; });
  EXPECT_EQ(engine().pending_events(), 2u);
  engine().RunUntil(sim::Usec(40));
  proc_->RequestInterrupt();
  EXPECT_EQ(interrupts_, 1);
  EXPECT_EQ(engine().pending_events(), 1u);
  const uint64_t fired = engine().events_fired();
  engine().RunUntil(sim::Usec(100));  // the cut span's deadline
  EXPECT_EQ(engine().events_fired(), fired);
  engine().Run();
  EXPECT_EQ(engine().events_fired(), fired + 1);  // only the scheduled event
  EXPECT_FALSE(completed);
  EXPECT_EQ(engine().pending_events(), 0u);
}

// An open span's deadline runs its callback once, at begin + deadline, with
// the span still open and without the span-end check; the callback ends
// the span.
TEST_F(ProcessorTest, OpenSpanDeadlineRunsItsCallbackWithTheSpanOpen) {
  int checks = 0;
  proc_->set_span_end_check([&checks](Processor*) {
    ++checks;
    return false;
  });
  engine().RunUntil(sim::Usec(50));
  int calls = 0;
  sim::Time called_at = -1;
  bool open_inside = false;
  proc_->BeginOpenSpan(SpanMode::kIdleSpin, sim::Usec(300), [&] {
    ++calls;
    called_at = engine().now();
    open_inside = proc_->span_open();
    proc_->EndOpenSpan();
  });
  EXPECT_TRUE(proc_->span_open());
  EXPECT_EQ(engine().pending_events(), 1u);
  engine().Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(called_at, sim::Usec(350));
  EXPECT_TRUE(open_inside);
  EXPECT_EQ(checks, 0);
  EXPECT_FALSE(proc_->has_span());
  EXPECT_EQ(engine().pending_events(), 0u);
  proc_->FlushAccounting();
  EXPECT_EQ(proc_->time_in(SpanMode::kIdleSpin), sim::Usec(300));
}

// Ending the open span before its deadline, or preempting it, withdraws the
// deadline: nothing is left pending and nothing fires at the old deadline.
TEST_F(ProcessorTest, EndingOrPreemptingAnOpenSpanWithdrawsItsDeadline) {
  int calls = 0;
  proc_->BeginOpenSpan(SpanMode::kIdleSpin, sim::Usec(100), [&calls] { ++calls; });
  engine().RunUntil(sim::Usec(40));
  proc_->EndOpenSpan();
  EXPECT_EQ(engine().pending_events(), 0u);

  proc_->BeginOpenSpan(SpanMode::kIdleSpin, sim::Usec(100), [&calls] { ++calls; });
  engine().RunUntil(sim::Usec(80));
  proc_->RequestInterrupt();
  EXPECT_EQ(interrupts_, 1);
  EXPECT_TRUE(last_.open);
  EXPECT_EQ(engine().pending_events(), 0u);

  engine().RunUntil(sim::Usec(500));  // past both deadlines
  EXPECT_EQ(engine().events_fired(), 0u);
  EXPECT_EQ(calls, 0);
}

// A latched interrupt fires at an open span's begin, and the span with its
// deadline never starts: nothing is armed.
TEST_F(ProcessorTest, LatchedInterruptFiresInsteadOfAnOpenSpanWithADeadline) {
  proc_->BeginSpan(sim::Usec(10), SpanMode::kKernel, false, false, [] {});
  proc_->RequestInterrupt();
  engine().Run();
  ASSERT_TRUE(proc_->interrupt_latched());
  int calls = 0;
  proc_->BeginOpenSpan(SpanMode::kIdleSpin, sim::Usec(100), [&calls] { ++calls; });
  EXPECT_EQ(interrupts_, 1);
  EXPECT_TRUE(last_.open);
  EXPECT_FALSE(proc_->has_span());
  EXPECT_EQ(engine().pending_events(), 0u);
  engine().RunUntil(sim::Usec(500));
  EXPECT_EQ(calls, 0);
}

// The deadline's fire emits no trace record of its own: a deadline whose
// callback keeps spinning leaves the span's open and close records alone.
TEST_F(ProcessorTest, OpenSpanDeadlineEmitsNoTraceRecord) {
  trace::TraceBuffer tb(16);
  tb.set_enabled(trace::cat::kAll);
  engine().set_tracer(&tb);
  int calls = 0;
  proc_->BeginOpenSpan(SpanMode::kIdleSpin, sim::Usec(100), [&calls] { ++calls; });
  engine().Run();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(proc_->span_open());  // the callback did not end it
  EXPECT_EQ(engine().pending_events(), 0u);
  proc_->EndOpenSpan();
  engine().set_tracer(nullptr);
  const std::vector<trace::Record> records = tb.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(static_cast<trace::Kind>(records[0].kind), trace::Kind::kSpanOpen);
  EXPECT_EQ(static_cast<trace::Kind>(records[1].kind), trace::Kind::kSpanClose);
  EXPECT_EQ(records[1].arg1, static_cast<uint64_t>(sim::Usec(100)));
}

// A span begun in the previous span's continuation takes its sequence
// number there: it ends after a same-instant event scheduled before it and
// before one scheduled after it.
TEST_F(ProcessorTest, SpanBegunInAContinuationKeepsSchedulingOrder) {
  std::vector<int> order;
  proc_->BeginSpan(sim::Usec(10), SpanMode::kKernel, false, false, [&] {
    proc_->BeginSpan(sim::Usec(20), SpanMode::kUser, true, false,
                     [&order] { order.push_back(2); });
    engine().Schedule(sim::Usec(30), [&order] { order.push_back(3); });
  });
  engine().Schedule(sim::Usec(30), [&order] { order.push_back(1); });
  engine().Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine().now(), sim::Usec(30));
  EXPECT_FALSE(proc_->has_span());
}

// A timed span whose continuation captures three pointers (24 bytes) is
// begun and completed, then begun again, preempted and resumed from the
// interrupt's SavedSpan: once the engine's arrays are warm, none of it
// allocates.
TEST_F(ProcessorTest, SpanLifecycleDoesNotAllocate) {
  int completions = 0;
  sim::Time last_done = -1;
  sim::Engine* engine = &this->engine();
  const auto done = [&completions, &last_done, engine] {
    ++completions;
    last_done = engine->now();
  };
  static_assert(sizeof(done) == 24, "a three-pointer capture");
  const auto cycle = [&] {
    proc_->BeginSpan(sim::Usec(10), SpanMode::kUser, true, false, done);
    engine->Run();
    proc_->BeginSpan(sim::Usec(10), SpanMode::kUser, true, false, done);
    engine->RunUntil(engine->now() + sim::Usec(4));
    proc_->RequestInterrupt();
    ASSERT_TRUE(last_.span.valid());
    proc_->Resume(last_.span);
    ASSERT_FALSE(last_.span.valid());
    engine->Run();
  };
  cycle();  // warm-up
  const int64_t before = g_news.load();
  g_count_news = true;
  for (int r = 0; r < 100; ++r) {
    cycle();
  }
  g_count_news = false;
  EXPECT_EQ(g_news.load() - before, 0);
  EXPECT_EQ(completions, 101 * 2);
  EXPECT_EQ(interrupts_, 101);
  EXPECT_EQ(last_done, engine->now());
}

// The kernel's span-end check: where a timed span ends and its context is
// dead, the check hands the processor back (here: begins the next kernel
// span) and the processor drops the span's continuation, with no
// allocation.
TEST_F(ProcessorTest, SpanEndCheckDropsADeadContextsContinuation) {
  bool dead = false;
  int parked = 0;
  int kernel_done = 0;
  proc_->set_span_end_check([&dead, &parked, &kernel_done](Processor* p) {
    if (!dead) {
      return false;
    }
    dead = false;  // the context is taken off the processor
    ++parked;
    p->BeginKernelSpan(sim::Usec(5), [&kernel_done] { ++kernel_done; });
    return true;
  });
  int user_done = 0;
  const auto done = [&user_done] { ++user_done; };
  proc_->BeginSpan(sim::Usec(10), SpanMode::kUser, true, false, done);  // warm-up
  engine().Run();
  ASSERT_EQ(user_done, 1);

  const int64_t before = g_news.load();
  g_count_news = true;
  proc_->BeginSpan(sim::Usec(10), SpanMode::kUser, true, false, done);
  dead = true;  // the context dies while its span runs
  engine().RunUntil(engine().now() + sim::Usec(10));
  EXPECT_EQ(user_done, 1);  // dropped
  EXPECT_EQ(parked, 1);
  EXPECT_TRUE(proc_->has_span());  // only the hand-back's kernel span
  EXPECT_EQ(proc_->current_mode(), SpanMode::kKernel);
  engine().Run();
  g_count_news = false;
  EXPECT_EQ(g_news.load() - before, 0);
  EXPECT_EQ(kernel_done, 1);
  EXPECT_FALSE(proc_->has_span());
  EXPECT_EQ(interrupts_, 0);
}

TEST(Machine, BuildsRequestedProcessors) {
  Machine m(6, 42);
  EXPECT_EQ(m.num_processors(), 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(m.processor(i)->id(), i);
  }
}

TEST(Machine, SpanModeNamesAreStable) {
  EXPECT_STREQ(SpanModeName(SpanMode::kIdle), "idle");
  EXPECT_STREQ(SpanModeName(SpanMode::kUser), "user");
  EXPECT_STREQ(SpanModeName(SpanMode::kMgmt), "mgmt");
  EXPECT_STREQ(SpanModeName(SpanMode::kKernel), "kernel");
  EXPECT_STREQ(SpanModeName(SpanMode::kSpin), "spin");
}

}  // namespace
}  // namespace sa::hw
