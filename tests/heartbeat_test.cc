// Heartbeat-promoted lazy forking in the ULT layer (DESIGN.md §17):
// ForkLazy pushes promotion-stack frames at procedure-call cost; the
// virtual-time heartbeat promotes the oldest frame, a dry work-stealer
// promotes instead of idling, and an unresolved frame is run inline by the
// parent's Join.  Plus the zero-perturbation contract: with the lazy API
// unused, arming the heartbeat must not move a single trace byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/apps/experiments.h"
#include "src/rt/harness.h"
#include "src/trace/trace.h"
#include "src/ult/ult_runtime.h"

namespace sa::ult {
namespace {

rt::HarnessConfig Config(int processors, kern::KernelMode mode) {
  rt::HarnessConfig config;
  config.processors = processors;
  config.kernel.mode = mode;
  return config;
}

// One vcpu, heartbeat armed: the main thread pushes several lazy frames and
// then computes past many heartbeat periods.  Every frame is resolved by
// the heartbeat (never inline — the joins come after the compute), and the
// promotion trace shows frames leaving the stack oldest-first.
TEST(Heartbeat, PromotesOldestFrameFirst) {
  rt::Harness h(Config(1, kern::KernelMode::kNativeTopaz));
  h.EnableTracing(trace::cat::kAll);
  UltConfig uc;
  uc.max_vcpus = 1;
  uc.heartbeat_us = 100;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  constexpr int kKids = 4;
  std::vector<int> ran;
  ft.Spawn(
      [&ran](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        for (int i = 0; i < kKids; ++i) {
          kids.push_back(co_await t.ForkLazy(
              [&ran, i](rt::ThreadCtx& c) -> sim::Program {
                ran.push_back(i);
                co_await c.Compute(sim::Usec(10));
              },
              "kid"));
        }
        // Long enough for kKids beats (one promotion per beat, re-armed
        // while frames remain).
        co_await t.Compute(sim::Usec(100) * (kKids + 2));
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "main");
  h.Run();
  ASSERT_EQ(ran.size(), static_cast<size_t>(kKids));
  const auto& c = ft.fast_threads().counters();
  EXPECT_EQ(c.lazy_forks, kKids);
  EXPECT_EQ(c.lazy_promotions, kKids);
  EXPECT_EQ(c.lazy_inlines, 0);
  EXPECT_EQ(c.lazy_steal_promotions, 0);
  // The promotion records leave the stack in fork order: tids ascend.
  std::vector<uint64_t> promoted;
  for (const trace::Record& r : h.trace()->Snapshot()) {
    if (r.kind == static_cast<uint16_t>(trace::Kind::kHbPromote)) {
      promoted.push_back(r.arg0);
    }
  }
  ASSERT_EQ(promoted.size(), static_cast<size_t>(kKids));
  for (size_t i = 1; i < promoted.size(); ++i) {
    EXPECT_LT(promoted[i - 1], promoted[i]) << "promotion out of age order";
  }
}

// Join reaches an unpromoted frame first (heartbeat off): the child runs
// inline on the parent's stack — resolved as a procedure call, with no
// dispatch and no promotion.
TEST(Heartbeat, JoinRunsUnpromotedFramesInline) {
  rt::Harness h(Config(1, kern::KernelMode::kNativeTopaz));
  UltConfig uc;
  uc.max_vcpus = 1;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  constexpr int kKids = 6;
  std::vector<int> ran;
  ft.Spawn(
      [&ran](rt::ThreadCtx& t) -> sim::Program {
        std::vector<int> kids;
        for (int i = 0; i < kKids; ++i) {
          kids.push_back(co_await t.ForkLazy(
              [&ran, i](rt::ThreadCtx& c) -> sim::Program {
                ran.push_back(i);
                co_await c.Compute(sim::Usec(5));
              },
              "kid"));
        }
        // Newest-first, the cilk discipline: each join finds its frame on
        // top of the promotion stack and inlines it.
        for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
          co_await t.Join(*it);
        }
      },
      "main");
  h.Run();
  const auto& c = ft.fast_threads().counters();
  EXPECT_EQ(c.lazy_forks, kKids);
  EXPECT_EQ(c.lazy_inlines, kKids);
  EXPECT_EQ(c.lazy_promotions, 0);
  EXPECT_EQ(c.lazy_steal_promotions, 0);
  // Inline runs happen at join time, newest first.
  EXPECT_EQ(ran, (std::vector<int>{5, 4, 3, 2, 1, 0}));
}

// Two processors, heartbeat off: the second vcpu runs dry, goes stealing,
// finds no ready TCB but a non-empty promotion stack — and promotes instead
// of idling.  Lazy frames become real parallelism exactly when a processor
// is otherwise idle, without any heartbeat.  `kick_priority` puts a priority
// in play: the dispatcher has one selection path, so a prioritized thread
// must not switch promotion off.
constexpr int kDryStealerKids = 8;

UltCounters RunDryStealer(BackendKind backend, int kick_priority) {
  rt::Harness h(Config(2, backend == BackendKind::kSchedulerActivations
                              ? kern::KernelMode::kSchedulerActivations
                              : kern::KernelMode::kNativeTopaz));
  UltConfig uc;
  uc.max_vcpus = 2;
  UltRuntime ft(&h.kernel(), "app", backend, uc);
  h.AddRuntime(&ft);
  ft.Spawn(
      [kick_priority](rt::ThreadCtx& t) -> sim::Program {
        // Lazy forks deliberately issue no parallelism downcall, so a second
        // processor only exists if something eager asked for it.  One short
        // eager fork spins vcpu 1 up; when its thread exits the vcpu runs
        // dry, goes stealing, and finds only the promotion stack.
        const int kick = co_await t.Fork(
            [](rt::ThreadCtx& c) -> sim::Program {
              co_await c.Compute(sim::Usec(50));
            },
            "kick", kick_priority);
        std::vector<int> kids;
        for (int i = 0; i < kDryStealerKids; ++i) {
          kids.push_back(co_await t.ForkLazy(
              [](rt::ThreadCtx& c) -> sim::Program {
                co_await c.Compute(sim::Msec(2));
              },
              "kid"));
        }
        co_await t.Compute(sim::Msec(2) * kDryStealerKids);
        co_await t.Join(kick);
        for (int kid : kids) {
          co_await t.Join(kid);
        }
      },
      "main");
  h.Run();
  return ft.fast_threads().counters();
}

TEST(Heartbeat, DryStealerPromotesLazyFrames) {
  for (BackendKind backend :
       {BackendKind::kKernelThreads, BackendKind::kSchedulerActivations}) {
    for (int kick_priority : {0, 1}) {
      SCOPED_TRACE(::testing::Message()
                   << (backend == BackendKind::kKernelThreads ? "kernel threads"
                                                              : "activations")
                   << ", kick priority " << kick_priority);
      const UltCounters c = RunDryStealer(backend, kick_priority);
      EXPECT_EQ(c.lazy_forks, kDryStealerKids);
      EXPECT_GT(c.lazy_steal_promotions, 0);
      EXPECT_EQ(c.lazy_forks,
                c.lazy_promotions + c.lazy_steal_promotions + c.lazy_inlines);
    }
  }
}

// The same discipline holds on scheduler activations with more processors
// and a recursive spawn tree (the N-body port's shape): every lazy fork is
// resolved exactly once, whichever path got it.
TEST(Heartbeat, RecursiveTreeResolvesEveryFrameOnActivations) {
  rt::Harness h(Config(4, kern::KernelMode::kSchedulerActivations));
  UltConfig uc;
  uc.max_vcpus = 4;
  uc.heartbeat_us = 200;
  UltRuntime ft(&h.kernel(), "app", BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  constexpr int kLeaves = 64;
  std::vector<uint8_t> leaf_ran(kLeaves, 0);
  struct Range {
    static sim::Program Run(rt::ThreadCtx& t, std::vector<uint8_t>* ran,
                            int lo, int hi) {
      std::vector<int> pending;
      while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        pending.push_back(co_await t.ForkLazy(
            [ran, mid, hi](rt::ThreadCtx& c) -> sim::Program {
              return Run(c, ran, mid, hi);
            },
            "range"));
        hi = mid;
      }
      (*ran)[lo] += 1;
      co_await t.Compute(sim::Usec(50));
      for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        co_await t.Join(*it);
      }
    }
  };
  ft.Spawn(
      [&leaf_ran](rt::ThreadCtx& t) -> sim::Program {
        return Range::Run(t, &leaf_ran, 0, kLeaves);
      },
      "root");
  h.Run();
  for (int i = 0; i < kLeaves; ++i) {
    EXPECT_EQ(leaf_ran[i], 1) << "leaf " << i;
  }
  const auto& c = ft.fast_threads().counters();
  EXPECT_EQ(c.lazy_forks, kLeaves - 1);
  EXPECT_EQ(c.lazy_forks,
            c.lazy_promotions + c.lazy_steal_promotions + c.lazy_inlines);
}

// Zero-perturbation contract: with lazy_fork off, arming the heartbeat must
// leave a seeded run's exported trace byte-identical — the heartbeat only
// ever schedules itself when a frame exists, so an eager program never sees
// it.  This is the gate that makes the feature safe to leave configured.
// Both FastThreads backends: on scheduler activations and on kernel threads.
TEST(Heartbeat, DisabledPathLeavesSeededTracesByteIdentical) {
  apps::NBodyConfig eager;  // lazy_fork = false
  eager.bodies = 128;
  eager.steps = 2;
  apps::NBodyConfig eager_hb = eager;
  eager_hb.heartbeat_us = 250;
  const apps::DaemonConfig daemons;
  for (const apps::SystemKind system :
       {apps::SystemKind::kNewFastThreads, apps::SystemKind::kOrigFastThreads}) {
    std::string without_hb;
    std::string with_hb;
    apps::RunNBody(system, /*processors=*/2, eager, daemons, /*copies=*/1,
                   /*seed=*/11, {}, false, &without_hb);
    apps::RunNBody(system, /*processors=*/2, eager_hb, daemons, /*copies=*/1,
                   /*seed=*/11, {}, false, &with_hb);
    ASSERT_GT(without_hb.size(), 1000u) << apps::SystemName(system);
    EXPECT_EQ(without_hb, with_hb) << apps::SystemName(system);
  }
}

// And the lazy port itself is deterministic: same seed, same config, same
// heartbeat → byte-identical exports across repeats.
TEST(Heartbeat, LazyNBodyRunIsDeterministic) {
  apps::NBodyConfig config;
  config.bodies = 128;
  config.steps = 2;
  config.lazy_fork = true;
  config.heartbeat_us = 250;
  const apps::DaemonConfig daemons;
  std::string first;
  std::string second;
  apps::RunNBody(apps::SystemKind::kNewFastThreads, /*processors=*/2, config,
                 daemons, /*copies=*/1, /*seed=*/13, {}, false, &first);
  apps::RunNBody(apps::SystemKind::kNewFastThreads, /*processors=*/2, config,
                 daemons, /*copies=*/1, /*seed=*/13, {}, false, &second);
  ASSERT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
  // The lazy API actually fired: heartbeat kinds are present.
  EXPECT_NE(first.find("hb-lazy-fork"), std::string::npos);
}

}  // namespace
}  // namespace sa::ult
