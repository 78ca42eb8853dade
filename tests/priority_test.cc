// The paper's priority functionality goal (Section 1.2 / 3.1): "No
// high-priority thread waits for a processor while a low-priority thread
// runs."  On the scheduler-activation backend the thread system asks the
// kernel to interrupt one of its own processors running low-priority work;
// on the kernel-thread backend it cannot (the kernel schedules vcpus
// obliviously to user-level thread priorities) — exactly the deficiency
// Section 2.2 describes.

#include <gtest/gtest.h>

#include "src/rt/harness.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

struct PriorityRun {
  sim::Time high_started = -1;
  sim::Time low_finished = -1;
  sim::Time elapsed = 0;
  int64_t preempt_downcalls = 0;
};

// Both processors run low-priority work with more low-priority work queued;
// a high-priority thread is then woken by a user-level signal.  Measures
// when the high-priority thread first runs.  The signaler keeps computing
// afterwards, so no processor frees up on its own.
PriorityRun RunPriorityScenario(ult::BackendKind backend) {
  rt::HarnessConfig config;
  config.processors = 2;
  config.kernel.mode = backend == ult::BackendKind::kSchedulerActivations
                           ? kern::KernelMode::kSchedulerActivations
                           : kern::KernelMode::kNativeTopaz;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 2;
  ult::UltRuntime ft(&h.kernel(), "prio", backend, uc);
  h.AddRuntime(&ft);

  PriorityRun result;
  const int sem = ft.CreateCond();
  ft.Spawn(
      [&h, &result, sem](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        // High-priority thread parks on a user-level condition first.
        kids.push_back(co_await t.Fork(
            [&h, &result, sem](rt::ThreadCtx& c) -> sim::Program {
              co_await c.Wait(sem);
              result.high_started = h.engine().now();
              co_await c.Compute(sim::Msec(1));
            },
            "high", /*priority=*/5));
        // Low-priority hogs saturate the second processor and the queue.
        for (int i = 0; i < 2; ++i) {
          kids.push_back(co_await t.Fork(
              [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Msec(60)); },
              "low", /*priority=*/0));
        }
        // Long enough for the second processor to arrive (the untuned upcall
        // costs ~2 ms) and for the high-priority thread to park on the
        // condition before the signal.
        co_await t.Compute(sim::Msec(8));
        co_await t.Signal(sem);            // the high-priority thread is now ready
        co_await t.Compute(sim::Msec(60));  // ...but this processor stays busy
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "main");
  result.elapsed = h.Run();
  result.preempt_downcalls = h.kernel().counters().downcalls_preempt_request;
  return result;
}

TEST(Priority, SchedulerActivationsRunHighPriorityImmediately) {
  const PriorityRun r = RunPriorityScenario(ult::BackendKind::kSchedulerActivations);
  ASSERT_GE(r.high_started, 0);
  // The high-priority thread ran within a few ms of the signal (~8 ms in),
  // long before the 60 ms hogs finished: the thread system preempted one of
  // its own processors via the kernel.
  EXPECT_LT(sim::ToMsec(r.high_started), 20.0);
  EXPECT_GE(r.preempt_downcalls, 1);
}

TEST(Priority, KernelThreadBackendSuffersPriorityInversion) {
  const PriorityRun r = RunPriorityScenario(ult::BackendKind::kKernelThreads);
  ASSERT_GE(r.high_started, 0);
  // Original FastThreads has no way to get a processor back from its own
  // low-priority threads: the high-priority thread waits for a hog to
  // finish (about 60 ms).
  EXPECT_GT(sim::ToMsec(r.high_started), 40.0);
  EXPECT_EQ(r.preempt_downcalls, 0);
}

TEST(Priority, PriorityThreadsRunInOrderOnOneProcessor) {
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "prio", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  std::vector<int> order;
  ft.Spawn(
      [&order](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        // Forked in priority order 1, 3, 2 — must run 3, 2, 1.
        for (int p : {1, 3, 2}) {
          kids.push_back(co_await t.Fork(
              [&order, p](rt::ThreadCtx& c) -> sim::Program {
                order.push_back(p);
                co_await c.Compute(sim::Usec(100));
              },
              "t", p));
        }
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "main");
  h.Run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

// The selection rule's tie order (DESIGN.md §8) with a priority in play: a
// vcpu taking work from another vcpu's list takes the oldest of its
// equal-priority threads, as a plain steal does.
TEST(Priority, ThiefTakesOldestOfEqualPriorityThreads) {
  rt::HarnessConfig config;
  config.processors = 2;
  config.kernel.mode = kern::KernelMode::kNativeTopaz;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 2;
  ult::UltRuntime ft(&h.kernel(), "prio", ult::BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  std::vector<int> order;
  ft.Spawn(
      [&order](rt::ThreadCtx& t) -> sim::Program {
        // The priority-1 thread wakes the idle vcpu and holds it while main
        // queues priority-0 threads 0, 1 and 2 on its own list.
        const int busy = co_await t.Fork(
            [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Msec(2)); },
            "busy", /*priority=*/1);
        std::vector<int> kids;
        for (int i = 0; i < 3; ++i) {
          kids.push_back(co_await t.Fork(
              [&order, i](rt::ThreadCtx& c) -> sim::Program {
                order.push_back(i);
                co_await c.Compute(sim::Usec(500));
              },
              "kid"));
        }
        // Main keeps its processor, so the other vcpu takes every kid.
        co_await t.Compute(sim::Msec(10));
        co_await t.Join(busy);
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "main");
  h.Run();
  EXPECT_TRUE(ft.fast_threads().has_priorities());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Priority, DefaultPriorityKeepsLifoFastPath) {
  // With no priorities in play the dispatcher must stay on the plain LIFO
  // path (the Table 1/4 microbenchmark latencies depend on it).
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "plain", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  ft.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        const int kid = co_await t.Fork(
            [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Usec(10)); },
            "kid");
        co_await t.Join(kid);
      },
      "main");
  h.Run();
  EXPECT_FALSE(ft.fast_threads().has_priorities());
}

}  // namespace
}  // namespace sa
