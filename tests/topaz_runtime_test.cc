// Validates the kernel-thread (Topaz) and process (Ultrix) runtimes against
// the paper's Table 1 latencies, plus basic scheduling behaviour.

#include <gtest/gtest.h>

#include "src/apps/micro.h"
#include "src/apps/synthetic.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"

namespace sa {
namespace {

rt::HarnessConfig OneProcessor() {
  rt::HarnessConfig config;
  config.processors = 1;
  return config;
}

TEST(TopazTable1, NullForkIs948us) {
  rt::Harness h(OneProcessor());
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  apps::SpawnNullFork(&topaz, 2000, h.kernel().costs().procedure_call);
  const double us = apps::MeasureNullForkUs(h, 2000);
  EXPECT_NEAR(us, 948.0, 2.0);
}

TEST(TopazTable1, SignalWaitIs441us) {
  rt::Harness h(OneProcessor());
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  apps::SpawnSignalWait(&topaz, 2000, /*through_kernel=*/false);
  const double us = apps::MeasureSignalWaitUs(h, 2000);
  EXPECT_NEAR(us, 441.0, 2.0);
}

TEST(UltrixTable1, NullForkIs11300us) {
  rt::Harness h(OneProcessor());
  rt::TopazRuntime ultrix(&h.kernel(), "proc", /*heavyweight=*/true);
  h.AddRuntime(&ultrix);
  apps::SpawnNullFork(&ultrix, 500, h.kernel().costs().procedure_call);
  const double us = apps::MeasureNullForkUs(h, 500);
  EXPECT_NEAR(us, 11300.0, 20.0);
}

TEST(UltrixTable1, SignalWaitIs1840us) {
  rt::Harness h(OneProcessor());
  rt::TopazRuntime ultrix(&h.kernel(), "proc", /*heavyweight=*/true);
  h.AddRuntime(&ultrix);
  apps::SpawnSignalWait(&ultrix, 500, /*through_kernel=*/false);
  const double us = apps::MeasureSignalWaitUs(h, 500);
  EXPECT_NEAR(us, 1840.0, 5.0);
}

TEST(TopazRuntime, ForkJoinReturnsChildTid) {
  rt::Harness h(OneProcessor());
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  int observed_child = -1;
  topaz.Spawn(
      [&observed_child](rt::ThreadCtx& t) -> sim::Program {
        const int kid = co_await t.Fork(
            [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Usec(5)); },
            "kid");
        observed_child = kid;
        co_await t.Join(kid);
      },
      "parent");
  h.Run();
  EXPECT_EQ(observed_child, 1);
  EXPECT_EQ(topaz.threads_finished(), 2u);
}

TEST(TopazRuntime, TwoProcessorsRunConcurrently) {
  rt::HarnessConfig config;
  config.processors = 2;
  rt::Harness h(config);
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  // Two independent compute-bound threads of 100 ms each should finish in
  // well under 200 ms of virtual time on two processors.
  for (int i = 0; i < 2; ++i) {
    topaz.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(100)); },
        "worker");
  }
  const sim::Time elapsed = h.Run();
  EXPECT_LT(sim::ToMsec(elapsed), 140.0);
}

TEST(TopazRuntime, ContendedLockBlocksInKernel) {
  rt::HarnessConfig config;
  config.processors = 2;
  rt::Harness h(config);
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  const int lock = topaz.CreateLock(rt::LockKind::kSpin);
  for (int i = 0; i < 2; ++i) {
    topaz.Spawn(
        [lock](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 10; ++k) {
            co_await t.Acquire(lock);
            co_await t.Compute(sim::Msec(1));
            co_await t.Release(lock);
          }
        },
        "locker");
  }
  const auto waits_before = h.kernel().counters().kernel_waits;
  h.Run();
  EXPECT_GT(h.kernel().counters().kernel_waits, waits_before);
}

TEST(TopazRuntime, TimeslicingSharesOneProcessor) {
  rt::Harness h(OneProcessor());
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  // Three compute threads on one processor; round-robin should let all
  // finish, with timeslice preemptions recorded.
  for (int i = 0; i < 3; ++i) {
    topaz.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(300)); },
        "spinner");
  }
  h.Run();
  EXPECT_GT(h.kernel().counters().timeslices, 0);
  EXPECT_EQ(topaz.threads_finished(), 3u);
}

TEST(TopazRuntime, IoOverlapsWithComputation) {
  rt::Harness h(OneProcessor());
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  // One thread blocks for 50 ms of I/O; another computes 50 ms.  On one
  // processor the total should be ~50 ms (overlap), not ~100 ms.
  topaz.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Io(sim::Msec(50)); },
              "io");
  topaz.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(50)); },
      "cpu");
  const sim::Time elapsed = h.Run();
  EXPECT_LT(sim::ToMsec(elapsed), 60.0);
}

// Regression: a signal that finds no waiter is counted when it decides, not
// when its trap returns, so a wait committing on the other processor in
// between consumes it instead of sleeping past it.  Counting after the trap
// deadlocked both cases at 200.18 ms after 3 kernel waits and 0 wakeups.
// The one-processor run is Table 1's, and must not move.
TEST(TopazRuntime, SignalIsNotLostAcrossProcessors) {
  for (const bool through_kernel : {false, true}) {
    SCOPED_TRACE(through_kernel ? "kernel events" : "conditions");
    for (const int processors : {2, 1}) {
      SCOPED_TRACE(processors);
      rt::HarnessConfig config;
      config.processors = processors;
      rt::Harness h(config);
      rt::TopazRuntime topaz(&h.kernel(), "app");
      h.AddRuntime(&topaz);
      apps::SpawnSignalWait(&topaz, 200, through_kernel);
      const rt::RunResult result = h.TryRun();
      ASSERT_TRUE(result.ok()) << result.diagnostics;
      EXPECT_EQ(topaz.threads_finished(), 2u);
      EXPECT_EQ(h.kernel().counters().kernel_waits, 400);
      if (processors == 1) {
        EXPECT_EQ(result.end_time, sim::Usec(177072));
        EXPECT_EQ(h.kernel().counters().wakeups, 400);
      } else {
        EXPECT_EQ(result.end_time, sim::Usec(37780));
      }
    }
  }
}

// A finished thread's kernel-thread and thread records serve the next
// threads the runtime creates: rounds of forks and joins keep both at the
// peak number of live threads (the parent plus one round of children).
TEST(TopazRuntime, FinishedThreadRecordsAreReused) {
  rt::Harness h(OneProcessor());
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  apps::SpawnForkStorm(&topaz, /*rounds=*/50, /*width=*/4, sim::Usec(50));
  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  EXPECT_EQ(topaz.threads_created(), 201u);
  EXPECT_EQ(topaz.threads_finished(), 201u);
  EXPECT_EQ(topaz.address_space()->threads().size(), 5u);
  EXPECT_EQ(topaz.threads().records(), 5u);
}

// A join whose target exits while the joiner's block span (kernel_trap +
// kt_block) is still charging, and whose record a new thread takes before
// the join commits: the commit check must find the target gone, not queue
// the joiner on the new thread.  The new thread waits for the joiner's
// signal, so a joiner queued on it deadlocks the run.
TEST(TopazRuntime, JoinCommitFindsTargetGoneAfterItsRecordIsReused) {
  rt::HarnessConfig config;
  config.processors = 3;
  rt::Harness h(config);
  rt::TopazRuntime topaz(&h.kernel(), "app");
  h.AddRuntime(&topaz);
  const int cond = topaz.CreateCond();
  const sim::Engine& engine = h.engine();
  constexpr sim::Time kJoinAt = sim::Msec(2);
  sim::Time target_done = -1;
  sim::Time forked = -1;
  sim::Time join_returned = -1;
  const int target = topaz.Spawn(
      [&](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(kJoinAt + sim::Usec(20) - engine.now());
        target_done = engine.now();
      },
      "target");
  topaz.Spawn(
      [&, target](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(kJoinAt - engine.now());
        co_await t.Join(target);
        join_returned = engine.now();
        co_await t.Signal(cond);
      },
      "joiner");
  topaz.Spawn(
      [&](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(kJoinAt + sim::Usec(60) - engine.now());
        forked = engine.now();
        co_await t.Fork(
            [cond](rt::ThreadCtx& c) -> sim::Program { co_await c.Wait(cond); }, "reuser");
      },
      "forker");
  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  EXPECT_LT(target_done, forked);
  const kern::CostModel& costs = h.kernel().costs();
  EXPECT_EQ(join_returned, kJoinAt + costs.kernel_trap + costs.kt_block);
  EXPECT_LT(forked, join_returned);
  EXPECT_EQ(topaz.threads().records(), 3u);  // the reuser took the target's
}

}  // namespace
}  // namespace sa
