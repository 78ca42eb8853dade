// Seed-sweep fuzzing: random programs (compute, spinlock critical sections,
// signals, pre-credited waits, blocking I/O, yields, nested forks) run on
// every system across many seeds; the run must terminate with every thread
// finished and, on the scheduler-activation system, with the vessel
// invariant intact.  A hang, a lost thread, or a protocol violation in any
// interleaving fails the sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>

#include "src/apps/nbody_workload.h"
#include "src/apps/synthetic.h"
#include "src/inject/fault_plan.h"
#include "src/inject/shrink.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/invariants.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

enum class Sys { kTopaz, kOrigFt, kNewFt };

class RandomProgramFuzz : public ::testing::TestWithParam<std::tuple<Sys, uint64_t>> {};

TEST_P(RandomProgramFuzz, TerminatesWithAllThreadsFinished) {
  const Sys sys = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  rt::HarnessConfig config;
  config.processors = 3;
  config.seed = seed;
  config.kernel.mode =
      sys == Sys::kNewFt ? kern::KernelMode::kSchedulerActivations
                         : kern::KernelMode::kNativeTopaz;
  rt::Harness h(config);

  std::unique_ptr<rt::Runtime> rt;
  ult::UltRuntime* ult_rt = nullptr;
  switch (sys) {
    case Sys::kTopaz:
      rt = std::make_unique<rt::TopazRuntime>(&h.kernel(), "fuzz");
      break;
    case Sys::kOrigFt: {
      ult::UltConfig uc;
      uc.max_vcpus = 3;
      auto u = std::make_unique<ult::UltRuntime>(&h.kernel(), "fuzz",
                                                 ult::BackendKind::kKernelThreads, uc);
      ult_rt = u.get();
      rt = std::move(u);
      break;
    }
    case Sys::kNewFt: {
      ult::UltConfig uc;
      uc.max_vcpus = 3;
      auto u = std::make_unique<ult::UltRuntime>(
          &h.kernel(), "fuzz", ult::BackendKind::kSchedulerActivations, uc);
      ult_rt = u.get();
      rt = std::move(u);
      break;
    }
  }
  h.AddRuntime(rt.get());
  // Daemons add re-allocation churn on top of the random program.
  h.AddDaemon("daemon", sim::Msec(3), sim::Usec(300));

  apps::SpawnRandomProgram(rt.get(), /*threads=*/6, /*ops=*/25, seed * 977 + 13);

  // Periodic vessel-invariant audit on the SA system.  Note: `audit` must
  // outlive the run — scheduled copies capture it by reference to reschedule
  // themselves.
  int violations = 0;
  std::function<void()> audit = [&] {
    core::SaSpace* space = ult_rt->sa_backend()->space();
    if (space->num_running_activations() != space->num_assigned()) {
      ++violations;
    }
    if (!h.AllDone()) {
      h.engine().ScheduleIn(sim::Usec(700), audit);
    }
  };
  if (sys == Sys::kNewFt) {
    h.engine().ScheduleIn(sim::Usec(700), audit);
    h.EnableTracing(trace::cat::kUpcall | trace::cat::kUlt | trace::cat::kAlloc);
  }

  h.Run();  // SA_CHECKs inside would abort on protocol violations
  EXPECT_EQ(rt->threads_finished(), rt->threads_created());
  EXPECT_GE(rt->threads_created(), 6u);
  EXPECT_EQ(violations, 0);
  if (sys == Sys::kNewFt) {
    // Trace replay covers every transition, not just the periodic audit.
    const trace::CheckResult result = trace::CheckInvariants(h.trace()->Snapshot());
    EXPECT_TRUE(result.ok()) << result.Summary();
    EXPECT_GT(result.vessel_checks, 0u);
  }
}

std::string FuzzName(const ::testing::TestParamInfo<std::tuple<Sys, uint64_t>>& info) {
  const char* names[] = {"Topaz", "OrigFT", "NewFT"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomProgramFuzz,
    ::testing::Combine(::testing::Values(Sys::kTopaz, Sys::kOrigFt, Sys::kNewFt),
                       ::testing::Range<uint64_t>(1, 13)),
    FuzzName);

// ---------------------------------------------------------------------------
// Fault sweep: the same random programs under random fault plans
// (DESIGN.md §11).  A failure shrinks the plan and prints a one-line
// `--fault-plan=` spec that deterministically reproduces it.
// ---------------------------------------------------------------------------

struct SweepOutcome {
  bool ok = true;
  std::string detail;
};

// One fuzz run of `sys`/`seed` under `plan`.  The run must terminate with
// every thread finished (injected I/O errors are transient-with-retries in
// this sweep, so no thread observes a failure) and, with tracing compiled
// in, the SA invariants must hold under plan-widened thresholds.
SweepOutcome RunUnderPlan(Sys sys, uint64_t seed, const inject::FaultPlan& plan) {
  rt::HarnessConfig config;
  config.processors = 3;
  config.seed = seed;
  config.kernel.mode =
      sys == Sys::kNewFt ? kern::KernelMode::kSchedulerActivations
                         : kern::KernelMode::kNativeTopaz;
  rt::Harness h(config);
  h.EnableFaultInjection(plan);
  // Virtual-time watchdog: a wedged interleaving surfaces as a diagnosable
  // stall instead of an opaque event-budget abort.  Generous: progress is
  // counted in whole threads finished, and a spiked 50 ms disk read inside a
  // 25-op program legitimately stretches the gap between finishes.
  h.set_stall_timeout(sim::Msec(30000) + 100 * plan.ExtraIdleSlack());

  std::unique_ptr<rt::Runtime> rt;
  switch (sys) {
    case Sys::kTopaz:
      rt = std::make_unique<rt::TopazRuntime>(&h.kernel(), "sweep");
      break;
    case Sys::kOrigFt:
    case Sys::kNewFt: {
      ult::UltConfig uc;
      uc.max_vcpus = 3;
      rt = std::make_unique<ult::UltRuntime>(
          &h.kernel(), "sweep",
          sys == Sys::kOrigFt ? ult::BackendKind::kKernelThreads
                              : ult::BackendKind::kSchedulerActivations,
          uc);
      break;
    }
  }
  h.AddRuntime(rt.get());
  h.AddDaemon("daemon", sim::Msec(3), sim::Usec(300));
  if (sys == Sys::kNewFt) {
    h.EnableTracing(trace::cat::kUpcall | trace::cat::kUlt | trace::cat::kAlloc);
  }

  apps::SpawnRandomProgram(rt.get(), /*threads=*/6, /*ops=*/25, seed * 977 + 13);

  SweepOutcome outcome;
  const rt::RunResult result = h.TryRun();
  if (!result.ok()) {
    outcome.ok = false;
    outcome.detail = result.diagnostics;
    return outcome;
  }
  if (rt->threads_finished() != rt->threads_created()) {
    outcome.ok = false;
    outcome.detail = "threads lost";
    return outcome;
  }
  if (sys == Sys::kNewFt) {
    trace::CheckOptions opts;
    opts.idle_ready_threshold += plan.ExtraIdleSlack();
    const trace::CheckResult check =
        trace::CheckInvariants(h.trace()->Snapshot(), opts);
    if (!check.ok()) {
      outcome.ok = false;
      outcome.detail = check.Summary();
    }
  }
  return outcome;
}

class FaultSweep : public ::testing::TestWithParam<std::tuple<Sys, uint64_t>> {};

TEST_P(FaultSweep, SurvivesRandomFaultPlan) {
  const Sys sys = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  // The sweep avoids surfacing I/O errors to threads (random programs use
  // fire-and-forget Io), so any plan is fair game for "must still finish".
  inject::FaultPlan plan = inject::FaultPlan::Random(seed * 31 + 7);
  plan.io_retries = std::max(plan.io_retries, 6);  // transient failures only

  const SweepOutcome outcome = RunUnderPlan(sys, seed, plan);
  if (outcome.ok) {
    return;
  }
  // Shrink to a minimal plan that still fails and print the replayable spec.
  const inject::ShrinkResult shrunk = inject::ShrinkPlan(
      plan, [&](const inject::FaultPlan& p) { return !RunUnderPlan(sys, seed, p).ok; });
  const inject::FaultPlan& culprit = shrunk.failing ? shrunk.plan : plan;
  ADD_FAILURE() << "fault sweep failed; minimized reproducer (machine seed "
                << seed << "):\n  --fault-plan=" << culprit.ToSpec() << "\n"
                << outcome.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Plans, FaultSweep,
    ::testing::Combine(::testing::Values(Sys::kTopaz, Sys::kOrigFt, Sys::kNewFt),
                       ::testing::Range<uint64_t>(1, 9)),
    FuzzName);

// ---------------------------------------------------------------------------
// Churn sweep: random programs across dynamically arriving spaces, under
// plans that also crash/hang/exit whole address spaces mid-run
// (DESIGN.md §12).  Reaped spaces are expected casualties — their threads
// never finish — but the run itself must complete, survivors must finish
// every thread, and the trace replay must show no dead-space activity.
// Failures shrink to a minimal replayable plan like the plain sweep.
// ---------------------------------------------------------------------------

SweepOutcome RunChurnPlan(uint64_t seed, const inject::FaultPlan& plan) {
  rt::HarnessConfig config;
  config.processors = 3;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  h.EnableFaultInjection(plan);
  h.set_stall_timeout(sim::Msec(30000) + 100 * plan.ExtraIdleSlack());
  h.EnableTracing(trace::cat::kUpcall | trace::cat::kUlt | trace::cat::kLifecycle |
                  trace::cat::kAlloc);

  ult::UltConfig uc;
  uc.max_vcpus = 3;
  auto rt = std::make_unique<ult::UltRuntime>(
      &h.kernel(), "churn0", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(rt.get());
  h.AddDaemon("daemon", sim::Msec(3), sim::Usec(300));
  apps::SpawnRandomProgram(rt.get(), /*threads=*/6, /*ops=*/25, seed * 977 + 13);

  kern::Kernel* kernel = &h.kernel();
  h.AddChurn(2, sim::Msec(4), [kernel, seed](int i) -> std::unique_ptr<rt::Runtime> {
    ult::UltConfig cc;
    cc.max_vcpus = 3;
    auto u = std::make_unique<ult::UltRuntime>(
        kernel, "churn" + std::to_string(i + 1),
        ult::BackendKind::kSchedulerActivations, cc);
    apps::SpawnRandomProgram(u.get(), /*threads=*/4, /*ops=*/20,
                             seed * 1303 + static_cast<uint64_t>(i) * 59 + 29);
    return u;
  });

  SweepOutcome outcome;
  const rt::RunResult result = h.TryRun();
  if (!result.ok()) {
    outcome.ok = false;
    outcome.detail = result.diagnostics;
    return outcome;
  }
  if (rt->address_space() != nullptr && !rt->address_space()->reaped() &&
      rt->threads_finished() != rt->threads_created()) {
    outcome.ok = false;
    outcome.detail = "threads lost in a surviving space";
    return outcome;
  }
  trace::CheckOptions opts;
  opts.idle_ready_threshold += plan.ExtraIdleSlack();
  const trace::CheckResult check =
      trace::CheckInvariants(h.trace()->Snapshot(), opts);
  if (!check.ok()) {
    outcome.ok = false;
    outcome.detail = check.Summary();
  }
  return outcome;
}

class ChurnFaultSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnFaultSweep, SurvivesLifecycleFaultPlan) {
  const uint64_t seed = GetParam();
  inject::FaultPlan plan = inject::FaultPlan::RandomChurn(seed * 53 + 11, /*spaces=*/3);
  plan.io_retries = std::max(plan.io_retries, 6);  // transient failures only

  const SweepOutcome outcome = RunChurnPlan(seed, plan);
  if (outcome.ok) {
    return;
  }
  const inject::ShrinkResult shrunk = inject::ShrinkPlan(
      plan, [&](const inject::FaultPlan& p) { return !RunChurnPlan(seed, p).ok; });
  const inject::FaultPlan& culprit = shrunk.failing ? shrunk.plan : plan;
  ADD_FAILURE() << "churn sweep failed; minimized reproducer (machine seed "
                << seed << "):\n  --fault-plan=" << culprit.ToSpec() << "\n"
                << outcome.detail;
}

INSTANTIATE_TEST_SUITE_P(Plans, ChurnFaultSweep, ::testing::Range<uint64_t>(1, 9),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Lazy N-body sweep: the recursive ForkLazy port of the real application
// under random fault plans, with the heartbeat armed and a cache small
// enough to force I/O blocking mid-tree (DESIGN.md §17).  Every lazy frame
// must resolve exactly once across the promote/steal/inline races that
// faults, page misses and daemon preemptions create, and the SA invariants
// must survive the whole interleaving.
// ---------------------------------------------------------------------------

SweepOutcome RunLazyNBodyPlan(Sys sys, uint64_t seed, const inject::FaultPlan& plan) {
  rt::HarnessConfig config;
  config.processors = 3;
  config.seed = seed;
  config.kernel.mode =
      sys == Sys::kNewFt ? kern::KernelMode::kSchedulerActivations
                         : kern::KernelMode::kNativeTopaz;
  rt::Harness h(config);
  h.EnableFaultInjection(plan);
  h.set_stall_timeout(sim::Msec(30000) + 100 * plan.ExtraIdleSlack());

  ult::UltConfig uc;
  uc.max_vcpus = 3;
  uc.heartbeat_us = 250;
  auto rt = std::make_unique<ult::UltRuntime>(
      &h.kernel(), "lazy-nbody",
      sys == Sys::kOrigFt ? ult::BackendKind::kKernelThreads
                          : ult::BackendKind::kSchedulerActivations,
      uc);
  h.AddRuntime(rt.get());
  h.AddDaemon("daemon", sim::Msec(3), sim::Usec(300));
  if (sys == Sys::kNewFt) {
    h.EnableTracing(trace::cat::kUpcall | trace::cat::kUlt | trace::cat::kAlloc);
  }

  apps::NBodyConfig nc;
  nc.bodies = 96;
  nc.steps = 2;
  nc.lazy_fork = true;
  nc.heartbeat_us = 250;       // documents intent; the UltConfig above rules
  nc.memory_percent = 60.0;    // real cache misses block threads mid-tree
  nc.miss_latency = sim::Msec(5);
  nc.seed = seed * 7919 + 3;
  apps::NBodyApp app(nc);
  app.set_clock(&h.engine());
  app.InstallOn(rt.get());

  SweepOutcome outcome;
  const rt::RunResult result = h.TryRun();
  if (!result.ok()) {
    outcome.ok = false;
    outcome.detail = result.diagnostics;
    return outcome;
  }
  if (!app.done() || rt->threads_finished() != rt->threads_created()) {
    outcome.ok = false;
    outcome.detail = "threads lost";
    return outcome;
  }
  const ult::UltCounters& c = rt->fast_threads().counters();
  if (c.lazy_forks !=
      c.lazy_promotions + c.lazy_steal_promotions + c.lazy_inlines) {
    outcome.ok = false;
    outcome.detail = "lazy frame resolution mismatch";
    return outcome;
  }
  if (sys == Sys::kNewFt) {
    trace::CheckOptions opts;
    opts.idle_ready_threshold += plan.ExtraIdleSlack();
    const trace::CheckResult check =
        trace::CheckInvariants(h.trace()->Snapshot(), opts);
    if (!check.ok()) {
      outcome.ok = false;
      outcome.detail = check.Summary();
    }
  }
  return outcome;
}

class LazyNBodySweep : public ::testing::TestWithParam<std::tuple<Sys, uint64_t>> {};

TEST_P(LazyNBodySweep, SurvivesRandomFaultPlan) {
  const Sys sys = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  inject::FaultPlan plan = inject::FaultPlan::Random(seed * 131 + 17);
  plan.io_retries = std::max(plan.io_retries, 6);  // transient failures only

  const SweepOutcome outcome = RunLazyNBodyPlan(sys, seed, plan);
  if (outcome.ok) {
    return;
  }
  const inject::ShrinkResult shrunk = inject::ShrinkPlan(
      plan,
      [&](const inject::FaultPlan& p) { return !RunLazyNBodyPlan(sys, seed, p).ok; });
  const inject::FaultPlan& culprit = shrunk.failing ? shrunk.plan : plan;
  ADD_FAILURE() << "lazy n-body sweep failed; minimized reproducer (machine seed "
                << seed << "):\n  --fault-plan=" << culprit.ToSpec() << "\n"
                << outcome.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Plans, LazyNBodySweep,
    ::testing::Combine(::testing::Values(Sys::kOrigFt, Sys::kNewFt),
                       ::testing::Range<uint64_t>(1, 5)),
    FuzzName);

}  // namespace
}  // namespace sa
