// FastThreads on both backends: the paper's Table 1 / Table 4 latencies and
// basic user-level threading behaviour.

#include <gtest/gtest.h>

#include "src/apps/micro.h"
#include "src/apps/synthetic.h"
#include "src/rt/harness.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

rt::HarnessConfig OneProc(kern::KernelMode mode) {
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = mode;
  return config;
}

ult::UltConfig OneVcpu() {
  ult::UltConfig c;
  c.max_vcpus = 1;
  return c;
}

// ---- Table 1: original FastThreads (on Topaz kernel threads) ----

TEST(FastThreadsTable1, NullForkIs34us) {
  rt::Harness h(OneProc(kern::KernelMode::kNativeTopaz));
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kKernelThreads, OneVcpu());
  h.AddRuntime(&ft);
  apps::SpawnNullFork(&ft, 2000, h.kernel().costs().procedure_call);
  EXPECT_NEAR(apps::MeasureNullForkUs(h, 2000), 34.0, 1.0);
}

TEST(FastThreadsTable1, SignalWaitIs37us) {
  rt::Harness h(OneProc(kern::KernelMode::kNativeTopaz));
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kKernelThreads, OneVcpu());
  h.AddRuntime(&ft);
  apps::SpawnSignalWait(&ft, 2000, /*through_kernel=*/false);
  EXPECT_NEAR(apps::MeasureSignalWaitUs(h, 2000), 37.0, 1.0);
}

// ---- Table 4: modified FastThreads (on scheduler activations) ----

TEST(FastThreadsTable4, NullForkOnActivationsIs37us) {
  rt::Harness h(OneProc(kern::KernelMode::kSchedulerActivations));
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations,
                     OneVcpu());
  h.AddRuntime(&ft);
  apps::SpawnNullFork(&ft, 20000, h.kernel().costs().procedure_call);
  EXPECT_NEAR(apps::MeasureNullForkUs(h, 20000), 37.0, 1.0);
}

TEST(FastThreadsTable4, SignalWaitOnActivationsIs42us) {
  rt::Harness h(OneProc(kern::KernelMode::kSchedulerActivations));
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations,
                     OneVcpu());
  h.AddRuntime(&ft);
  apps::SpawnSignalWait(&ft, 2000, /*through_kernel=*/false);
  EXPECT_NEAR(apps::MeasureSignalWaitUs(h, 2000), 42.0, 1.0);
}

// ---- Section 4.3 ablation: flag-based critical sections -> 49 / 48 ----

TEST(FastThreadsTable4, FlagBasedCsNullForkIs49us) {
  rt::Harness h(OneProc(kern::KernelMode::kSchedulerActivations));
  ult::UltConfig config = OneVcpu();
  config.flag_based_critical_sections = true;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, config);
  h.AddRuntime(&ft);
  apps::SpawnNullFork(&ft, 20000, h.kernel().costs().procedure_call);
  EXPECT_NEAR(apps::MeasureNullForkUs(h, 20000), 49.0, 1.0);
}

TEST(FastThreadsTable4, FlagBasedCsSignalWaitIs48us) {
  rt::Harness h(OneProc(kern::KernelMode::kSchedulerActivations));
  ult::UltConfig config = OneVcpu();
  config.flag_based_critical_sections = true;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, config);
  h.AddRuntime(&ft);
  apps::SpawnSignalWait(&ft, 2000, /*through_kernel=*/false);
  EXPECT_NEAR(apps::MeasureSignalWaitUs(h, 2000), 48.0, 1.0);
}

// ---- behaviour ----

TEST(FastThreads, ForkJoinOnBothBackends) {
  for (auto backend : {ult::BackendKind::kKernelThreads,
                       ult::BackendKind::kSchedulerActivations}) {
    const auto mode = backend == ult::BackendKind::kKernelThreads
                          ? kern::KernelMode::kNativeTopaz
                          : kern::KernelMode::kSchedulerActivations;
    rt::Harness h(OneProc(mode));
    ult::UltRuntime ft(&h.kernel(), "app", backend, OneVcpu());
    h.AddRuntime(&ft);
    int sum = 0;
    ft.Spawn(
        [&sum](rt::ThreadCtx& t) -> sim::Program {
          std::vector<int> kids;
          for (int i = 0; i < 5; ++i) {
            kids.push_back(co_await t.Fork(
                [&sum, i](rt::ThreadCtx& c) -> sim::Program {
                  co_await c.Compute(sim::Usec(10));
                  sum += i;
                },
                "kid"));
          }
          for (int k : kids) {
            co_await t.Join(k);
          }
        },
        "parent");
    h.Run();
    EXPECT_EQ(sum, 10) << "backend " << static_cast<int>(backend);
    EXPECT_EQ(ft.threads_finished(), 6u);
  }
}

TEST(FastThreads, WorkDistributesAcrossVcpus) {
  rt::HarnessConfig config;
  config.processors = 4;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 4;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  // 4 x 100 ms of computation should take ~100 ms on 4 processors.
  ft.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        for (int i = 0; i < 4; ++i) {
          kids.push_back(co_await t.Fork(
              [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Msec(100)); },
              "worker"));
        }
        for (int k : kids) {
          co_await t.Join(k);
        }
      },
      "main");
  const sim::Time elapsed = h.Run();
  EXPECT_LT(sim::ToMsec(elapsed), 220.0);  // main's vcpu + 3 more granted
  EXPECT_GE(h.kernel().counters().upcalls_add_processor, 3);
}

TEST(FastThreads, UserLevelMutexDoesNotEnterKernel) {
  rt::Harness h(OneProc(kern::KernelMode::kNativeTopaz));
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kKernelThreads, OneVcpu());
  h.AddRuntime(&ft);
  const int m = ft.CreateLock(rt::LockKind::kMutex);
  for (int i = 0; i < 2; ++i) {
    ft.Spawn(
        [m](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 20; ++k) {
            co_await t.Acquire(m);
            co_await t.Compute(sim::Usec(50));
            co_await t.Release(m);
          }
        },
        "locker");
  }
  h.Run();
  EXPECT_EQ(h.kernel().counters().kernel_waits, 0);
  EXPECT_EQ(ft.threads_finished(), 2u);
}

TEST(FastThreads, IoOnKtBackendLosesTheProcessor) {
  // Original FastThreads with one vcpu: a thread doing I/O blocks the vcpu's
  // kernel thread, so a ready compute thread cannot run meanwhile.
  rt::Harness h(OneProc(kern::KernelMode::kNativeTopaz));
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kKernelThreads, OneVcpu());
  h.AddRuntime(&ft);
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(50)); },
           "cpu");
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Io(sim::Msec(50)); }, "io");
  const sim::Time elapsed = h.Run();
  // Serialized: ~100 ms (the whole point of the paper's Figure 2).
  EXPECT_GT(sim::ToMsec(elapsed), 95.0);
}

TEST(FastThreads, IoOnSaBackendOverlapsWithComputation) {
  // Modified FastThreads: the blocked activation's processor comes back via
  // an upcall and runs the compute thread during the I/O.
  rt::Harness h(OneProc(kern::KernelMode::kSchedulerActivations));
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations,
                     OneVcpu());
  h.AddRuntime(&ft);
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(50)); },
           "cpu");
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Io(sim::Msec(50)); }, "io");
  const sim::Time elapsed = h.Run();
  EXPECT_LT(sim::ToMsec(elapsed), 65.0);
  EXPECT_GE(h.kernel().counters().upcalls_blocked, 1);
  EXPECT_GE(h.kernel().counters().upcalls_unblocked, 1);
}

// Kernel events (Section 5.2's upcall benchmark): every KernelWait and
// KernelSignal traps into the kernel, on either backend.  One processor; the
// kernel-thread backend gets a second vcpu to run the partner while one
// blocks.  Elapsed time and kernel counters were pinned while each backend
// still kept its own kernel-event code.
TEST(FastThreads, KernelEventPingPongOnBothBackends) {
  struct Case {
    ult::BackendKind backend;
    kern::KernelMode mode;
    int vcpus;
    sim::Time elapsed;
  };
  for (const Case& c :
       {Case{ult::BackendKind::kKernelThreads, kern::KernelMode::kNativeTopaz, 2,
             376467000},
        Case{ult::BackendKind::kSchedulerActivations,
             kern::KernelMode::kSchedulerActivations, 1, 964022000}}) {
    SCOPED_TRACE(c.backend == ult::BackendKind::kKernelThreads ? "kernel threads"
                                                                : "activations");
    rt::Harness h(OneProc(c.mode));
    ult::UltConfig uc;
    uc.max_vcpus = c.vcpus;
    ult::UltRuntime ft(&h.kernel(), "app", c.backend, uc);
    h.AddRuntime(&ft);
    apps::SpawnSignalWait(&ft, 200, /*through_kernel=*/true);
    EXPECT_EQ(h.Run(), c.elapsed);
    EXPECT_EQ(h.kernel().counters().kernel_waits, 400);
    // The pinger's first signal finds no waiter and is remembered.
    EXPECT_EQ(h.kernel().counters().wakeups, 399);
  }
}

// The same ping-pong with the two threads on two processors at once.  A
// signal that finds no waiter must be remembered before a wait committing on
// the other processor checks for it, or both threads sleep for good.
TEST(FastThreads, KernelSignalIsNotLostAcrossProcessors) {
  for (ult::BackendKind backend :
       {ult::BackendKind::kKernelThreads, ult::BackendKind::kSchedulerActivations}) {
    SCOPED_TRACE(backend == ult::BackendKind::kKernelThreads ? "kernel threads"
                                                             : "activations");
    rt::HarnessConfig config;
    config.processors = 2;
    config.kernel.mode = backend == ult::BackendKind::kKernelThreads
                             ? kern::KernelMode::kNativeTopaz
                             : kern::KernelMode::kSchedulerActivations;
    rt::Harness h(config);
    ult::UltConfig uc;
    uc.max_vcpus = 2;
    ult::UltRuntime ft(&h.kernel(), "app", backend, uc);
    h.AddRuntime(&ft);
    apps::SpawnSignalWait(&ft, 200, /*through_kernel=*/true);
    const rt::RunResult result = h.TryRun();
    ASSERT_TRUE(result.ok()) << result.diagnostics;
    EXPECT_EQ(ft.threads_finished(), 2u);
    EXPECT_EQ(h.kernel().counters().kernel_waits, 400);
  }
}

// A finished thread's record serves the next thread forked: rounds of
// forks and joins keep the runtime's records at the peak number of live
// threads (the parent plus one round of children).
TEST(FastThreads, FinishedThreadRecordsAreReused) {
  rt::Harness h(OneProc(kern::KernelMode::kSchedulerActivations));
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations,
                     OneVcpu());
  h.AddRuntime(&ft);
  apps::SpawnForkStorm(&ft, /*rounds=*/50, /*width=*/4, sim::Usec(50));
  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  EXPECT_EQ(ft.threads_created(), 201u);
  EXPECT_EQ(ft.threads_finished(), 201u);
  EXPECT_EQ(ft.threads().records(), 5u);
}

// A join whose target finishes while the joiner's ChargeMgmt span (ult_wait
// plus the backend's wait overhead) is still charging, and whose record a
// new thread takes before the charge ends: the joiner must find the target
// gone, not queue on the new thread.  The new thread waits for the joiner's
// signal, so a joiner queued on it leaves the run stuck.
TEST(FastThreads, JoinFindsTargetGoneAfterItsRecordIsReused) {
  rt::HarnessConfig config;
  config.processors = 3;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 3;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  h.set_stall_timeout(sim::Sec(1));
  const int cond = ft.CreateCond();
  const sim::Engine& engine = h.engine();
  // Late enough that the space holds all three processors.
  constexpr sim::Time kJoinAt = sim::Msec(20);
  sim::Time target_done = -1;
  sim::Time forked = -1;
  sim::Time join_returned = -1;
  const int target = ft.Spawn(
      [&](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(kJoinAt + sim::Usec(1) - engine.now());
        target_done = engine.now();
      },
      "target");
  ft.Spawn(
      [&, target](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(kJoinAt - engine.now());
        co_await t.Join(target);
        join_returned = engine.now();
        co_await t.Signal(cond);
      },
      "joiner");
  ft.Spawn(
      [&](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(kJoinAt + sim::Usec(12) - engine.now());
        forked = engine.now();
        co_await t.Fork(
            [cond](rt::ThreadCtx& c) -> sim::Program { co_await c.Wait(cond); }, "reuser");
      },
      "forker");
  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  const kern::CostModel& costs = h.kernel().costs();
  // The target's record went back at its exit charge's end, before the fork.
  EXPECT_LT(target_done + costs.ult_exit, forked);
  EXPECT_EQ(join_returned, kJoinAt + costs.ult_wait + costs.sa_busy_accounting);
  EXPECT_LT(forked, join_returned);
  EXPECT_EQ(ft.threads().records(), 3u);  // the reuser took the target's
}

}  // namespace
}  // namespace sa
