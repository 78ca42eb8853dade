// Kernel scheduling semantics: ready queues, priorities, quanta, blocking,
// and the cost model's anchors.

#include <gtest/gtest.h>

#include "src/kern/costs.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"

namespace sa::kern {
namespace {

TEST(CostModel, PaperAnchorsAreEncoded) {
  CostModel costs;
  EXPECT_EQ(costs.procedure_call, sim::Usec(7));
  EXPECT_EQ(costs.kernel_trap, sim::Usec(19));
  // The decompositions must sum to the published latencies.
  EXPECT_EQ(costs.kernel_trap + costs.kt_create + costs.kt_dispatch +
                costs.procedure_call + costs.kernel_trap + costs.kt_exit,
            sim::Usec(948));
  EXPECT_EQ(costs.kernel_trap + costs.kt_wakeup + costs.kernel_trap + costs.kt_block +
                costs.kt_dispatch,
            sim::Usec(441));
  EXPECT_EQ(costs.kernel_trap + costs.proc_create + costs.proc_dispatch +
                costs.procedure_call + costs.kernel_trap + costs.proc_exit,
            sim::Usec(11300));
  EXPECT_EQ(costs.kernel_trap + costs.proc_wakeup + costs.kernel_trap +
                costs.proc_block + costs.proc_dispatch,
            sim::Usec(1840));
  // FastThreads decomposition.
  EXPECT_EQ(costs.ult_fork_prep + costs.ult_dispatch + costs.procedure_call +
                costs.ult_exit,
            sim::Usec(34));
  EXPECT_EQ(costs.ult_signal + costs.ult_wait + costs.ult_dispatch, sim::Usec(37));
}

TEST(Kernel, YieldRotatesEqualPriorityThreads) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    rt.Spawn(
        [&order, i](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 2; ++k) {
            order.push_back(i);
            co_await t.Yield();
          }
        },
        "spinner");
  }
  h.Run();
  ASSERT_EQ(order.size(), 6u);
  // Round-robin: 0 1 2 0 1 2.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Kernel, HighPriorityWakeupPreemptsLowerPriorityWork) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime app(&h.kernel(), "app", false, /*priority=*/0);
  rt::TopazRuntime daemon(&h.kernel(), "daemon", false, /*priority=*/1);
  h.AddRuntime(&app);
  h.AddRuntime(&daemon, /*background=*/false);
  sim::Time daemon_ran_at = -1;
  app.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(50)); },
            "worker");
  daemon.Spawn(
      [&](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Io(sim::Msec(5));  // wakes at ~5ms while the app computes
        daemon_ran_at = 0;            // marker set when scheduled
        co_await t.Compute(sim::Msec(1));
      },
      "daemon");
  h.Run();
  // The daemon ran long before the app's 50 ms compute finished.
  EXPECT_GE(h.kernel().counters().preempt_interrupts, 1);
}

TEST(Kernel, QuantumDoesNotFireWithoutCompetition) {
  rt::HarnessConfig config;
  config.processors = 2;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  // Two threads, two processors: nobody waits, so no time-slicing.
  for (int i = 0; i < 2; ++i) {
    rt.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Sec(1)); },
        "worker");
  }
  h.Run();
  EXPECT_EQ(h.kernel().counters().timeslices, 0);
}

TEST(Kernel, RedispatchInsideTheOldQuantumStartsAFullQuantum) {
  // A high-priority thread computes most of a quantum, then blocks on an I/O
  // that completes while a low-priority thread holds the only processor; it
  // preempts that thread and is dispatched again.  Sweeping the I/O's end
  // over the last 600 us of the old quantum puts the old quantum's expiry
  // inside the re-dispatch's kernel span (where the thread already counts
  // as running, with the preempted thread ready) in some runs.  A quantum
  // timer left from the first dispatch must not slice the second: it
  // starts a full quantum, and the thread finishes in half of one.
  int expired_in_span = 0;
  for (int offset_us = 0; offset_us <= 600; offset_us += 20) {
    rt::HarnessConfig config;
    config.processors = 1;
    rt::Harness h(config);
    rt::TopazRuntime high(&h.kernel(), "high", false, /*priority=*/1);
    rt::TopazRuntime low(&h.kernel(), "low", false, /*priority=*/0);
    h.AddRuntime(&high);
    h.AddRuntime(&low);
    const sim::Duration quantum = h.kernel().costs().kt_quantum;
    sim::Time armed = -1;
    sim::Time redispatched = -1;
    high.Spawn(
        [&](rt::ThreadCtx& t) -> sim::Program {
          armed = h.engine().now();  // the first quantum starts here
          co_await t.Compute(quantum - sim::Msec(2));
          co_await t.Io(armed + quantum - sim::Usec(offset_us) - h.engine().now());
          redispatched = h.engine().now();  // the second quantum starts here
          co_await t.Compute(quantum / 2);
        },
        "high");
    low.Spawn([&](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(quantum); },
              "low");
    h.Run();
    ASSERT_GE(redispatched, 0);
    const sim::Time expiry = armed + quantum;
    if (expiry > redispatched - h.kernel().costs().kt_dispatch && expiry < redispatched) {
      ++expired_in_span;
    }
    EXPECT_EQ(h.kernel().counters().timeslices, 0) << "I/O ends " << offset_us
                                                   << " us before the old quantum";
  }
  EXPECT_GT(expired_in_span, 0);  // the sweep reached the window it is about
}

TEST(Kernel, BlockInsideTheQuantumLeavesNoTimeSlicePending) {
  // A time slice belongs to the processor: a thread that blocks leaves it,
  // and its slice goes with it.  After the block only the I/O completion is
  // pending, and nothing fires when the old quantum would have ended.
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  const sim::Duration quantum = h.kernel().costs().kt_quantum;
  sim::Time armed = -1;
  rt.Spawn(
      [&](rt::ThreadCtx& t) -> sim::Program {
        armed = h.engine().now();  // the quantum starts here
        co_await t.Compute(quantum / 4);
        co_await t.Io(2 * quantum);
      },
      "io");
  h.Start();
  hw::Processor* proc = h.machine().processor(0);
  while (h.kernel().counters().io_blocks == 0 || proc->has_span() ||
         h.kernel().running_on(proc) != nullptr) {
    ASSERT_TRUE(h.engine().Step());
  }
  ASSERT_GE(armed, 0);
  ASSERT_LT(h.engine().now(), armed + quantum);
  EXPECT_EQ(h.engine().pending_events(), 1u);  // the I/O completion
  const uint64_t fired = h.engine().events_fired();
  h.engine().RunUntil(armed + quantum);
  EXPECT_EQ(h.engine().events_fired(), fired);
  h.Run();
  EXPECT_EQ(h.kernel().counters().timeslices, 0);
}

TEST(Kernel, BlockedThreadsDoNotHoldProcessors) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  // Five threads each block 10 ms; I/O overlaps so the total is ~10 ms.
  for (int i = 0; i < 5; ++i) {
    rt.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Io(sim::Msec(10)); },
             "io");
  }
  const sim::Time elapsed = h.Run();
  EXPECT_LT(sim::ToMsec(elapsed), 15.0);
}

TEST(Kernel, LostWakeupIsImpossible) {
  // Signal posted before the wait must not be lost (block_check semantics).
  rt::HarnessConfig config;
  config.processors = 2;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  const int sem = rt.CreateCond();
  rt.Spawn(
      [sem](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Signal(sem);  // fires long before the waiter arrives
      },
      "signaler");
  rt.Spawn(
      [sem](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Msec(5));
        co_await t.Wait(sem);  // must consume the remembered signal
      },
      "waiter");
  const sim::Time elapsed = h.Run();
  EXPECT_LT(sim::ToMsec(elapsed), 10.0);
  EXPECT_EQ(rt.threads_finished(), 2u);
}

TEST(Kernel, RunnableAccountingTracksBlocking) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  rt.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Msec(1));
        co_await t.Io(sim::Msec(5));
        co_await t.Compute(sim::Msec(1));
      },
      "w");
  h.Start();
  h.engine().RunUntil(sim::Usec(500));
  EXPECT_EQ(rt.address_space()->runnable_threads, 1);
  h.engine().RunUntil(sim::Msec(4));  // now blocked in I/O
  EXPECT_EQ(rt.address_space()->runnable_threads, 0);
  h.Run();
  h.engine().Run();  // drain the exit path (Run() stops at AllDone)
  EXPECT_EQ(rt.address_space()->runnable_threads, 0);
}

TEST(Kernel, ThreadStateNamesAreStable) {
  EXPECT_STREQ(KThreadStateName(KThreadState::kBorn), "born");
  EXPECT_STREQ(KThreadStateName(KThreadState::kReady), "ready");
  EXPECT_STREQ(KThreadStateName(KThreadState::kRunning), "running");
  EXPECT_STREQ(KThreadStateName(KThreadState::kBlocked), "blocked");
  EXPECT_STREQ(KThreadStateName(KThreadState::kStopped), "stopped");
  EXPECT_STREQ(KThreadStateName(KThreadState::kDead), "dead");
}

TEST(Kernel, CountersTrackSyscalls) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  rt.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        const int kid = co_await t.Fork(
            [](rt::ThreadCtx& c) -> sim::Program { co_await c.Io(sim::Msec(1)); },
            "child");
        co_await t.Join(kid);
      },
      "parent");
  h.Run();
  const auto& c = h.kernel().counters();
  EXPECT_EQ(c.forks, 1);
  EXPECT_EQ(c.exits, 2);
  EXPECT_EQ(c.io_blocks, 1);
  EXPECT_GE(c.dispatches, 2);
}

}  // namespace
}  // namespace sa::kern
