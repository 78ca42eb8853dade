// FastThreads internals: ready-list discipline, work stealing, TCB free
// lists, yield fairness, mutex-vs-spinlock semantics, idle behaviour.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/ult/ult_runtime.h"

namespace sa::ult {
namespace {

rt::HarnessConfig Config(int processors, kern::KernelMode mode) {
  rt::HarnessConfig config;
  config.processors = processors;
  config.kernel.mode = mode;
  return config;
}

TEST(UltInternals, LifoReadyListRunsNewestFirst) {
  rt::Harness h(Config(1, kern::KernelMode::kNativeTopaz));
  UltConfig uc;
  uc.max_vcpus = 1;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  std::vector<int> order;
  ft.Spawn(
      [&order](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        for (int i = 0; i < 3; ++i) {
          kids.push_back(co_await t.Fork(
              [&order, i](rt::ThreadCtx& c) -> sim::Program {
                order.push_back(i);
                co_await c.Compute(sim::Usec(10));
              },
              "kid"));
        }
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "main");
  h.Run();
  // Section 4.2: per-processor ready lists accessed LIFO — the most recently
  // forked child runs first once the parent blocks.
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(UltInternals, WorkStealingKeepsSecondVcpuBusy) {
  rt::Harness h(Config(2, kern::KernelMode::kSchedulerActivations));
  UltConfig uc;
  uc.max_vcpus = 2;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  ft.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        for (int i = 0; i < 8; ++i) {
          kids.push_back(co_await t.Fork(
              [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Msec(5)); },
              "w"));
        }
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "main");
  const sim::Time elapsed = h.Run();
  // 40 ms of work over 2 processors: ~20-25 ms, only if stealing works
  // (all TCBs were enqueued on the forker's list).
  EXPECT_LT(sim::ToMsec(elapsed), 30.0);
  EXPECT_GT(ft.fast_threads().counters().steals, 0);
}

TEST(UltInternals, TcbsAreRecycledThroughFreeLists) {
  // Sequential fork+join: each child's TCB is freed before the next fork.
  // On one vcpu the LIFO free list hands the same id back.  On two, main
  // forks on vcpu 0 and each child is handed to the idle vcpu 1 and exits
  // there, so vcpu 0's list stays empty, every child takes a fresh id and
  // vcpu 1's list collects all 50.  Either way the records come from the
  // space's one spare stack: two threads live at once, two records.
  for (int vcpus = 1; vcpus <= 2; ++vcpus) {
    SCOPED_TRACE(vcpus);
    rt::Harness h(Config(vcpus, kern::KernelMode::kNativeTopaz));
    UltConfig uc;
    uc.max_vcpus = vcpus;
    UltRuntime ft(&h.kernel(), "app", BackendKind::kKernelThreads, uc);
    h.AddRuntime(&ft);
    ft.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int i = 0; i < 50; ++i) {
            const int kid = co_await t.Fork(
                [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Usec(5)); },
                "kid");
            co_await t.Join(kid);
          }
        },
        "main");
    h.Run();
    EXPECT_EQ(ft.threads_finished(), 51u);
    EXPECT_EQ(ft.fast_threads().tcb_records(), 2u);
    if (vcpus == 1) {
      const size_t free_ids = ft.fast_threads().vcpu(0)->free_tcbs.size();
      EXPECT_GE(free_ids, 1u);
      EXPECT_LE(free_ids, 3u);
    } else {
      EXPECT_EQ(ft.fast_threads().vcpu(1)->free_tcbs.size(), 50u);
    }
  }
}

// A recycled TCB starts at priority 0 whatever thread it served before:
// lazy frames carry no priority (promoted at 0).  Main forks and joins a
// priority-5 child, then the beat promotes a lazy frame into that child's
// TCB; had the TCB kept priority 5, the lazy child would run before a
// priority-1 sibling forked after it.
TEST(UltInternals, RecycledTcbStartsAtPriorityZero) {
  rt::Harness h(Config(1, kern::KernelMode::kNativeTopaz));
  UltConfig uc;
  uc.max_vcpus = 1;
  uc.heartbeat_us = 50;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  std::vector<std::string> order;
  ft.Spawn(
      [&order](rt::ThreadCtx& t) -> sim::Program {
        rt::WorkloadFn high = [](rt::ThreadCtx& c) -> sim::Program {
          co_await c.Compute(sim::Usec(10));
        };
        const int p5 = co_await t.Fork(std::move(high), "p5", 5);
        co_await t.Join(p5);
        rt::WorkloadFn lazy = [&order](rt::ThreadCtx& c) -> sim::Program {
          order.push_back("lazy");
          co_await c.Compute(sim::Usec(10));
        };
        const int lazy_tid = co_await t.ForkLazy(std::move(lazy), "lazy");
        co_await t.Compute(sim::Usec(200));  // the beat promotes the frame
        rt::WorkloadFn low = [&order](rt::ThreadCtx& c) -> sim::Program {
          order.push_back("p1");
          co_await c.Compute(sim::Usec(10));
        };
        const int p1 = co_await t.Fork(std::move(low), "p1", 1);
        co_await t.Join(lazy_tid);
        co_await t.Join(p1);
      },
      "main");
  h.Run();
  EXPECT_EQ(ft.fast_threads().counters().lazy_promotions, 1);
  EXPECT_EQ(order, (std::vector<std::string>{"p1", "lazy"}));
}

TEST(UltInternals, YieldIsFairAmongPeers) {
  rt::Harness h(Config(1, kern::KernelMode::kNativeTopaz));
  UltConfig uc;
  uc.max_vcpus = 1;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    ft.Spawn(
        [&order, i](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 3; ++k) {
            order.push_back(i);
            co_await t.Yield();
          }
        },
        "y");
  }
  h.Run();
  // Yield pushes to the back: strict alternation.
  ASSERT_EQ(order.size(), 6u);
  for (size_t k = 2; k < order.size(); ++k) {
    EXPECT_NE(order[k], order[k - 1]);
  }
}

TEST(UltInternals, SpinnersBurnProcessorTimeMutexesDoNot) {
  // Same contention pattern with a spinlock vs a mutex: the spinlock burns
  // processor time in kSpin, the user-level mutex blocks the thread and
  // lets the other one run.
  auto run = [&](rt::LockKind kind) {
    rt::Harness h(Config(2, kern::KernelMode::kSchedulerActivations));
    UltConfig uc;
    uc.max_vcpus = 2;
    auto ft = std::make_unique<UltRuntime>(&h.kernel(), "app",
                                           BackendKind::kSchedulerActivations, uc);
    h.AddRuntime(ft.get());
    const int lock = ft->CreateLock(kind);
    for (int i = 0; i < 2; ++i) {
      ft->Spawn(
          [lock](rt::ThreadCtx& t) -> sim::Program {
            for (int k = 0; k < 20; ++k) {
              co_await t.Acquire(lock);
              co_await t.Compute(sim::Usec(500));
              co_await t.Release(lock);
            }
          },
          "locker");
    }
    h.Run();
    return h.machine().TotalTimeIn(hw::SpanMode::kSpin);
  };
  const sim::Duration spin_time = run(rt::LockKind::kSpin);
  const sim::Duration mutex_time = run(rt::LockKind::kMutex);
  EXPECT_GT(spin_time, sim::Msec(5));   // ~half the CS time is spun away
  EXPECT_LT(mutex_time, sim::Usec(50));  // blocking lock: no spinning
}

TEST(UltInternals, IdleVcpusSpinAtUserLevelOnKtBackend) {
  rt::Harness h(Config(2, kern::KernelMode::kNativeTopaz));
  UltConfig uc;
  uc.max_vcpus = 2;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  // One thread, two vcpus: the second vcpu idles in the user-level
  // scheduler, burning its processor (the Section 2.2 pathology).
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(10)); },
           "only");
  h.Run();
  EXPECT_GT(h.machine().TotalTimeIn(hw::SpanMode::kIdleSpin), sim::Msec(8));
}

TEST(UltInternals, SaBackendReturnsIdleProcessorsInstead) {
  rt::Harness h(Config(2, kern::KernelMode::kSchedulerActivations));
  UltConfig uc;
  uc.max_vcpus = 2;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(10)); },
           "only");
  h.Run();
  // Only one processor was ever requested (runnable never exceeded 1), so
  // nothing spun beyond at most one hysteresis period.
  EXPECT_LT(h.machine().TotalTimeIn(hw::SpanMode::kIdleSpin),
            h.kernel().costs().idle_hysteresis * 2);
}

TEST(UltInternals, ReadyDuringIdleDowncallIsNotStranded) {
  // Lost-wakeup regression (EnqueueReady / idle transitions): a thread made
  // ready while the only idle vcpu is inside its idle-notification downcall
  // — idle_spinning cleared, no open span, so the wake scan skips it — must
  // be picked up when the downcall returns.  Nothing else can rescue it: the
  // scheduler-activation kernel has no time-slice timer, so a stranded
  // thread means the run drains with threads unfinished.
  //
  // Construction: sibling `b` keeps the second processor busy and then lets
  // it run dry; with hysteresis off the vcpu enters its downcall window
  // immediately.  The main thread forks `c` at a swept offset so some
  // iterations land the enqueue inside the window (the idle_handoffs counter
  // proves the window was actually constructed).  The sweep is wide because
  // the second processor's grant rides an untuned ~2ms upcall delivery, and
  // finer than the ~24us downcall window.
  int64_t handoffs = 0;
  for (int delay_us = 0; delay_us <= 3600; delay_us += 4) {
    rt::Harness h(Config(2, kern::KernelMode::kSchedulerActivations));
    UltConfig uc;
    uc.max_vcpus = 2;
    uc.idle_hysteresis = false;
    UltRuntime ft(&h.kernel(), "app", BackendKind::kSchedulerActivations, uc);
    h.AddRuntime(&ft);
    ft.Spawn(
        [delay_us](rt::ThreadCtx& t) -> sim::Program {
          const int b = co_await t.Fork(
              [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Usec(500)); },
              "b");
          co_await t.Compute(sim::Usec(delay_us));
          const int c = co_await t.Fork(
              [](rt::ThreadCtx& cc) -> sim::Program { co_await cc.Compute(sim::Usec(10)); },
              "c");
          co_await t.Join(b);
          co_await t.Join(c);
        },
        "main");
    const sim::Time elapsed = h.Run();
    EXPECT_EQ(ft.threads_finished(), 3u) << "fork offset " << delay_us << "us";
    EXPECT_LT(sim::ToMsec(elapsed), 10.0) << "fork offset " << delay_us << "us";
    handoffs += ft.fast_threads().counters().idle_handoffs;
  }
  EXPECT_GT(handoffs, 0);  // the sweep must actually hit the window
}

TEST(UltInternals, ManyThreadsOnOneVcpuAllFinish) {
  rt::Harness h(Config(1, kern::KernelMode::kSchedulerActivations));
  UltConfig uc;
  uc.max_vcpus = 1;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  ft.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        for (int i = 0; i < 500; ++i) {
          kids.push_back(co_await t.Fork(
              [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Usec(20)); },
              "k"));
        }
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "main");
  h.Run();
  EXPECT_EQ(ft.threads_finished(), 501u);
}

TEST(UltInternals, NestedForkTrees) {
  rt::Harness h(Config(4, kern::KernelMode::kSchedulerActivations));
  UltConfig uc;
  uc.max_vcpus = 4;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  int leaves = 0;
  // Three-level fork tree: 1 -> 3 -> 9 children.
  rt::WorkloadFn leaf = [&leaves](rt::ThreadCtx& t) -> sim::Program {
    co_await t.Compute(sim::Usec(100));
    ++leaves;
  };
  rt::WorkloadFn mid = [leaf](rt::ThreadCtx& t) -> sim::Program {
    std::vector<int> kids;
    for (int i = 0; i < 3; ++i) {
      kids.push_back(co_await t.Fork(leaf, "leaf"));
    }
    for (int kid : kids) {
      co_await t.Join(kid);
    }
  };
  ft.Spawn(
      [mid](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        for (int i = 0; i < 3; ++i) {
          kids.push_back(co_await t.Fork(mid, "mid"));
        }
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "root");
  h.Run();
  EXPECT_EQ(leaves, 9);
  EXPECT_EQ(ft.threads_finished(), 13u);
}

TEST(UltInternals, MixedModeSpacesCoexist) {
  // Section 4.1: address spaces using kernel threads and address spaces
  // using scheduler activations compete for processors with no static
  // partitioning.
  rt::Harness h(Config(4, kern::KernelMode::kSchedulerActivations));
  UltConfig uc;
  uc.max_vcpus = 4;
  UltRuntime sa_app(&h.kernel(), "sa-app", BackendKind::kSchedulerActivations, uc);
  rt::TopazRuntime kt_app(&h.kernel(), "kt-app");
  h.AddRuntime(&sa_app);
  h.AddRuntime(&kt_app);
  auto spawn4 = [](auto* rt) {
    for (int i = 0; i < 4; ++i) {
      rt->Spawn(
          [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(20)); },
          "w");
    }
  };
  spawn4(&sa_app);
  spawn4(&kt_app);
  h.Start();
  h.engine().RunUntil(sim::Msec(10));
  // Even split while both spaces are busy.
  EXPECT_EQ(sa_app.address_space()->assigned().size(), 2u);
  EXPECT_EQ(kt_app.address_space()->assigned().size(), 2u);
  const sim::Time elapsed = h.Run();
  EXPECT_EQ(sa_app.threads_finished(), 4u);
  EXPECT_EQ(kt_app.threads_finished(), 4u);
  // Both finish in roughly 2x the uniprogrammed time (2 procs each).
  EXPECT_LT(sim::ToMsec(elapsed), 55.0);
}

}  // namespace
}  // namespace sa::ult
