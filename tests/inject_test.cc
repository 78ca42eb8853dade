// Fault-injection layer (DESIGN.md §11): plan spec round-trips, injector
// determinism, the kernel's retry/backoff path with error propagation into
// all three systems, graceful degradation under activation-allocation
// denial, harness diagnosability (TryRun outcomes + watchdog), and the
// delta-debugging shrinker.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/inject/fault_injector.h"
#include "src/inject/fault_plan.h"
#include "src/inject/shrink.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/rt/topaz_runtime.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

using inject::FaultInjector;
using inject::FaultPlan;

// ---------------------------------------------------------------------------
// Plan specs.
// ---------------------------------------------------------------------------

TEST(FaultPlan, DefaultIsInactiveAndRoundTrips) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(plan.ToSpec(), "seed=1");

  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(plan.ToSpec(), &parsed, &error)) << error;
  EXPECT_TRUE(parsed == plan);
}

TEST(FaultPlan, SpecPrintsOnlyNonDefaultFields) {
  FaultPlan plan;
  plan.seed = 42;
  plan.io_fail = 0.25;
  plan.storm_period = sim::Msec(5);
  const std::string spec = plan.ToSpec();
  EXPECT_NE(spec.find("seed=42"), std::string::npos);
  EXPECT_NE(spec.find("io_fail=0.25"), std::string::npos);
  EXPECT_NE(spec.find("storm_period="), std::string::npos);
  EXPECT_EQ(spec.find("io_spike"), std::string::npos);
  EXPECT_EQ(spec.find("alloc_deny"), std::string::npos);

  FaultPlan parsed;
  ASSERT_TRUE(FaultPlan::Parse(spec, &parsed, nullptr));
  EXPECT_TRUE(parsed == plan);
}

TEST(FaultPlan, ParseAcceptsDurationSuffixes) {
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("seed=3,io_backoff=200us,storm_period=2ms", &parsed,
                               &error))
      << error;
  EXPECT_EQ(parsed.io_backoff, sim::Usec(200));
  EXPECT_EQ(parsed.storm_period, sim::Msec(2));
}

TEST(FaultPlan, ParseRejectsGarbage) {
  FaultPlan parsed;
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse("seed=1,bogus_key=3", &parsed, &error));
  EXPECT_NE(error.find("bogus_key"), std::string::npos);
  EXPECT_FALSE(FaultPlan::Parse("io_fail=1.5", &parsed, &error));   // p > 1
  EXPECT_FALSE(FaultPlan::Parse("io_fail=zebra", &parsed, &error));
  EXPECT_FALSE(FaultPlan::Parse("seed=", &parsed, &error));
}

TEST(FaultPlan, RandomPlansRoundTripExactly) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultPlan plan = FaultPlan::Random(seed);
    FaultPlan parsed;
    std::string error;
    ASSERT_TRUE(FaultPlan::Parse(plan.ToSpec(), &parsed, &error))
        << plan.ToSpec() << ": " << error;
    EXPECT_TRUE(parsed == plan) << plan.ToSpec() << " vs " << parsed.ToSpec();
  }
}

TEST(FaultPlan, LendingFaultFieldsRoundTrip) {
  FaultPlan plan;
  plan.seed = 7;
  plan.reclaim_delay = 0.5;
  plan.reclaim_delay_for = sim::Msec(40);
  plan.yield_lie = 0.25;
  EXPECT_TRUE(plan.active());

  const std::string spec = plan.ToSpec();
  EXPECT_NE(spec.find("reclaim_delay=0.5"), std::string::npos);
  EXPECT_NE(spec.find("reclaim_delay_for="), std::string::npos);
  EXPECT_NE(spec.find("yield_lie=0.25"), std::string::npos);

  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(spec, &parsed, &error)) << spec << ": " << error;
  EXPECT_TRUE(parsed == plan);
  EXPECT_EQ(parsed.reclaim_delay_for, sim::Msec(40));

  // Duration suffixes work for the lending delay too.
  ASSERT_TRUE(
      FaultPlan::Parse("seed=2,reclaim_delay=0.1,reclaim_delay_for=7ms,"
                       "yield_lie=0.05",
                       &parsed, &error))
      << error;
  EXPECT_EQ(parsed.reclaim_delay_for, sim::Msec(7));
  EXPECT_EQ(parsed.yield_lie, 0.05);

  // Defaults stay off the printed spec entirely.
  EXPECT_EQ(FaultPlan{}.ToSpec().find("reclaim"), std::string::npos);
  EXPECT_EQ(FaultPlan{}.ToSpec().find("yield_lie"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Injector decision streams.
// ---------------------------------------------------------------------------

TEST(Injector, SameSeedSameDecisionStream) {
  FaultPlan plan;
  plan.seed = 99;
  plan.io_fail = 0.3;
  plan.io_spike = 0.2;
  plan.upcall_delay = 0.4;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.ShouldFailIo(), b.ShouldFailIo());
    EXPECT_EQ(a.PerturbIoLatency(sim::Msec(1)), b.PerturbIoLatency(sim::Msec(1)));
    EXPECT_EQ(a.UpcallDelay(), b.UpcallDelay());
  }
  EXPECT_EQ(a.stats().faults_injected, b.stats().faults_injected);
  EXPECT_GT(a.stats().faults_injected, 0);
}

TEST(Injector, LendingHooksAreDeterministicAndInertAtZero) {
  // Zero-probability lending hooks draw nothing from the RNG: the injected
  // decision stream of an unrelated fault class is unperturbed by calling
  // them (the zero-perturbation rule extends to the injector itself).
  FaultPlan io_only;
  io_only.seed = 21;
  io_only.io_fail = 0.3;
  FaultInjector plain(io_only);
  FaultInjector interleaved(io_only);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(interleaved.LoanReclaimDelay(), 0);
    EXPECT_FALSE(interleaved.ShouldLieYieldHint());
    EXPECT_EQ(plain.ShouldFailIo(), interleaved.ShouldFailIo());
  }
  EXPECT_EQ(interleaved.stats().loan_reclaim_delays, 0);
  EXPECT_EQ(interleaved.stats().yield_hint_lies, 0);

  // With the classes armed, two same-seed injectors agree decision for
  // decision, and fire with roughly the configured frequency.
  FaultPlan plan;
  plan.seed = 22;
  plan.reclaim_delay = 0.5;
  plan.reclaim_delay_for = sim::Msec(3);
  plan.yield_lie = 0.5;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 500; ++i) {
    const sim::Duration d = a.LoanReclaimDelay();
    EXPECT_EQ(d, b.LoanReclaimDelay());
    EXPECT_TRUE(d == 0 || d == sim::Msec(3));
    EXPECT_EQ(a.ShouldLieYieldHint(), b.ShouldLieYieldHint());
  }
  EXPECT_EQ(a.stats().loan_reclaim_delays, b.stats().loan_reclaim_delays);
  EXPECT_EQ(a.stats().yield_hint_lies, b.stats().yield_hint_lies);
  EXPECT_GT(a.stats().loan_reclaim_delays, 100);
  EXPECT_GT(a.stats().yield_hint_lies, 100);
}

TEST(Injector, AllocDenialsComeInBoundedBursts) {
  FaultPlan plan;
  plan.alloc_deny = 1.0;  // every burst-start draw fires
  plan.alloc_deny_burst = 3;
  FaultInjector injector(plan);
  // With p = 1 every call denies, but the burst accounting must mark exactly
  // one degraded-mode transition per burst of 3.
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(injector.ShouldDenyActivationAlloc());
  }
  EXPECT_EQ(injector.stats().alloc_denials, 6);
  EXPECT_EQ(injector.stats().degraded_transitions, 2);
}

TEST(Injector, ExponentialBackoffDoubles) {
  FaultPlan plan;
  plan.io_backoff = sim::Usec(100);
  FaultInjector injector(plan);
  EXPECT_EQ(injector.IoBackoff(0), sim::Usec(100));
  EXPECT_EQ(injector.IoBackoff(1), sim::Usec(200));
  EXPECT_EQ(injector.IoBackoff(2), sim::Usec(400));
  EXPECT_EQ(injector.stats().io_retries, 3);
  EXPECT_EQ(injector.stats().degraded_transitions, 1);
  EXPECT_EQ(injector.stats().backoff_time, sim::Usec(700));
}

// ---------------------------------------------------------------------------
// Kernel retry path and error propagation into the three systems.
// ---------------------------------------------------------------------------

enum class Sys { kTopaz, kOrigFt, kNewFt };

struct IoRunResult {
  bool io_ok = true;
  inject::InjectStats stats;
};

// One thread does an observed I/O read; returns what it saw plus the
// injector counters.  `plan.active()` may be false (injector absent).
IoRunResult RunOneIoRead(Sys sys, const FaultPlan* plan) {
  rt::HarnessConfig config;
  config.processors = 2;
  config.kernel.mode = sys == Sys::kNewFt ? kern::KernelMode::kSchedulerActivations
                                          : kern::KernelMode::kNativeTopaz;
  rt::Harness h(config);
  if (plan != nullptr) {
    h.EnableFaultInjection(*plan);
  }

  std::unique_ptr<rt::Runtime> rt;
  if (sys == Sys::kTopaz) {
    rt = std::make_unique<rt::TopazRuntime>(&h.kernel(), "io");
  } else {
    ult::UltConfig uc;
    uc.max_vcpus = 2;
    rt = std::make_unique<ult::UltRuntime>(
        &h.kernel(), "io",
        sys == Sys::kOrigFt ? ult::BackendKind::kKernelThreads
                            : ult::BackendKind::kSchedulerActivations,
        uc);
  }
  h.AddRuntime(rt.get());

  IoRunResult result;
  rt->Spawn(
      [&result](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Usec(50));
        result.io_ok = co_await t.IoRead(sim::Msec(1));
        co_await t.Compute(sim::Usec(50));
      },
      "reader");
  h.Run();
  EXPECT_EQ(rt->threads_finished(), rt->threads_created());
  if (h.injector() != nullptr) {
    result.stats = h.injector()->stats();
  }
  return result;
}

TEST(InjectRun, IoReadSucceedsWithoutInjector) {
  for (Sys sys : {Sys::kTopaz, Sys::kOrigFt, Sys::kNewFt}) {
    EXPECT_TRUE(RunOneIoRead(sys, nullptr).io_ok);
  }
}

TEST(InjectRun, InactivePlanInjectsNothing) {
  FaultPlan plan;  // defaults: nothing enabled
  for (Sys sys : {Sys::kTopaz, Sys::kOrigFt, Sys::kNewFt}) {
    const IoRunResult r = RunOneIoRead(sys, &plan);
    EXPECT_TRUE(r.io_ok);
    EXPECT_EQ(r.stats.faults_injected, 0);
  }
}

TEST(InjectRun, RetryBudgetExhaustedSurfacesError) {
  FaultPlan plan;
  plan.io_fail = 1.0;  // every completion fails: budget always exhausts
  plan.io_retries = 2;
  for (Sys sys : {Sys::kTopaz, Sys::kOrigFt, Sys::kNewFt}) {
    const IoRunResult r = RunOneIoRead(sys, &plan);
    EXPECT_FALSE(r.io_ok) << "system " << static_cast<int>(sys);
    // Attempts 0 and 1 retried, attempt 2 exhausted the budget.
    EXPECT_EQ(r.stats.io_failures, 3);
    EXPECT_EQ(r.stats.io_retries, 2);
    EXPECT_EQ(r.stats.failed_ops, 1);
    EXPECT_EQ(r.stats.degraded_transitions, 1);
    EXPECT_GT(r.stats.backoff_time, 0);
  }
}

TEST(InjectRun, TransientFailureRetriesThenRecovers) {
  // A generous retry budget beats a 40% failure rate; the thread must see a
  // successful read while the counters record the degraded excursion.
  FaultPlan plan;
  plan.seed = 7;
  plan.io_fail = 0.4;
  plan.io_retries = 20;
  const IoRunResult r = RunOneIoRead(Sys::kTopaz, &plan);
  EXPECT_TRUE(r.io_ok);
  EXPECT_EQ(r.stats.failed_ops, 0);
}

TEST(InjectRun, LatencySpikesInflateElapsedTime) {
  FaultPlan base;  // spikes off
  FaultPlan spiky;
  spiky.io_spike = 1.0;
  spiky.io_spike_mult = 20;

  sim::Time elapsed[2];
  for (int i = 0; i < 2; ++i) {
    rt::HarnessConfig config;
    config.processors = 1;
    rt::Harness h(config);
    h.EnableFaultInjection(i == 0 ? base : spiky);
    rt::TopazRuntime rt(&h.kernel(), "io");
    h.AddRuntime(&rt);
    rt.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 4; ++k) {
            co_await t.Io(sim::Msec(1));
          }
        },
        "io-loop");
    elapsed[i] = h.Run();
  }
  EXPECT_GT(elapsed[1], elapsed[0] * 5);
}

// ---------------------------------------------------------------------------
// SA-specific degraded modes: upcall delay and activation-alloc denial.
// ---------------------------------------------------------------------------

// Runs an SA fork/IO workload under `plan`; returns the injector stats.
inject::InjectStats RunSaChurn(const FaultPlan& plan, int threads = 4) {
  rt::HarnessConfig config;
  config.processors = 3;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  // Empty recycle cache on every delivery: alloc-denial hits constantly.
  config.kernel.recycle_activations = plan.alloc_deny > 0.0 ? false : true;
  rt::Harness h(config);
  h.EnableFaultInjection(plan);

  ult::UltConfig uc;
  uc.max_vcpus = 3;
  ult::UltRuntime rt(&h.kernel(), "churn", ult::BackendKind::kSchedulerActivations,
                     uc);
  h.AddRuntime(&rt);
  for (int i = 0; i < threads; ++i) {
    rt.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 3; ++k) {
            co_await t.Compute(sim::Usec(200));
            co_await t.Io(sim::Msec(1));
          }
        },
        "churn-" + std::to_string(i));
  }
  h.Run();
  EXPECT_EQ(rt.threads_finished(), rt.threads_created());
  return h.injector()->stats();
}

TEST(InjectRun, UpcallDelaysStillCompleteTheWorkload) {
  FaultPlan plan;
  plan.seed = 11;
  plan.upcall_delay = 0.5;
  plan.upcall_delay_for = sim::Usec(800);
  const inject::InjectStats stats = RunSaChurn(plan);
  EXPECT_GT(stats.upcall_delays, 0);
}

TEST(InjectRun, AllocDenialDegradesGracefully) {
  FaultPlan plan;
  plan.seed = 13;
  plan.alloc_deny = 0.5;
  plan.alloc_deny_burst = 2;
  plan.alloc_retry = sim::Usec(400);
  const inject::InjectStats stats = RunSaChurn(plan);
  EXPECT_GT(stats.alloc_denials, 0);
  EXPECT_GT(stats.degraded_transitions, 0);
}

TEST(InjectRun, InjectedRunsAreDeterministic) {
  // Same plan, same machine seed: the full trace must be identical — the
  // property the shrinker and `--fault-plan=` replays rely on.
  FaultPlan plan;
  plan.seed = 21;
  plan.io_fail = 0.3;
  plan.io_retries = 4;
  plan.io_spike = 0.2;
  plan.upcall_delay = 0.3;
  plan.storm_period = sim::Msec(2);

  std::vector<trace::Record> traces[2];
  for (int run = 0; run < 2; ++run) {
    rt::HarnessConfig config;
    config.processors = 3;
    config.seed = 5;
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    rt::Harness h(config);
    h.EnableTracing();
    h.EnableFaultInjection(plan);
    ult::UltConfig uc;
    uc.max_vcpus = 3;
    ult::UltRuntime rt(&h.kernel(), "det", ult::BackendKind::kSchedulerActivations,
                       uc);
    h.AddRuntime(&rt);
    for (int i = 0; i < 4; ++i) {
      rt.Spawn(
          [](rt::ThreadCtx& t) -> sim::Program {
            for (int k = 0; k < 3; ++k) {
              co_await t.Compute(sim::Usec(300));
              co_await t.Io(sim::Msec(1));
            }
          },
          "det-" + std::to_string(i));
    }
    h.Run();
    traces[run] = h.trace()->Snapshot();
  }
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (size_t i = 0; i < traces[0].size(); ++i) {
    const trace::Record &a = traces[0][i], &b = traces[1][i];
    ASSERT_TRUE(a.ts == b.ts && a.kind == b.kind && a.cpu == b.cpu &&
                a.as_id == b.as_id && a.arg0 == b.arg0 && a.arg1 == b.arg1)
        << "trace diverged at record " << i;
  }
}

// ---------------------------------------------------------------------------
// Harness diagnosability: TryRun outcomes, watchdog, report counters.
// ---------------------------------------------------------------------------

TEST(HarnessRobustness, EventBudgetIsDiagnosableNotBare) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "long");
  h.AddRuntime(&rt);
  rt.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        for (int i = 0; i < 100000; ++i) {
          co_await t.Compute(sim::Usec(10));
        }
      },
      "long-loop");
  const rt::RunResult result = h.TryRun(/*max_events=*/200);
  EXPECT_EQ(result.outcome, rt::RunOutcome::kEventBudget);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.diagnostics.find("event-budget"), std::string::npos);
  EXPECT_NE(result.diagnostics.find("long"), std::string::npos);  // runtime row
  EXPECT_NE(result.diagnostics.find("kernel:"), std::string::npos);
}

TEST(HarnessRobustness, DeadlockIsDiagnosable) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "stuck");
  h.AddRuntime(&rt);
  const int cond = rt.CreateCond();
  rt.Spawn(
      [cond](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Wait(cond);  // nobody will ever signal
      },
      "waiter");
  const rt::RunResult result = h.TryRun();
  EXPECT_EQ(result.outcome, rt::RunOutcome::kDeadlock);
  EXPECT_NE(result.diagnostics.find("deadlock"), std::string::npos);
}

TEST(HarnessRobustness, WatchdogFlagsStalledRun) {
  rt::HarnessConfig config;
  config.processors = 2;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "stuck");
  h.AddRuntime(&rt);
  // The daemon keeps the event queue alive forever, so a stuck foreground
  // thread is a stall (events fire, no progress), not a deadlock.
  h.AddDaemon("daemon", sim::Msec(2), sim::Usec(100));
  const int cond = rt.CreateCond();
  rt.Spawn(
      [cond](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Wait(cond);  // nobody will ever signal
      },
      "waiter");
  h.set_stall_timeout(sim::Msec(50));
  const rt::RunResult result = h.TryRun();
  EXPECT_EQ(result.outcome, rt::RunOutcome::kStalled);
  EXPECT_NE(result.diagnostics.find("stalled"), std::string::npos);
  EXPECT_NE(result.diagnostics.find("waiter"), std::string::npos);  // thread rows
}

TEST(HarnessRobustness, WatchdogIgnoresBackgroundProgress) {
  // Background threads finishing is not foreground progress: with the
  // foreground stuck, the watchdog must end the run while a background
  // runtime is still finishing a thread every millisecond.
  rt::HarnessConfig config;
  config.processors = 2;
  rt::Harness h(config);
  rt::TopazRuntime stuck(&h.kernel(), "stuck");
  rt::TopazRuntime busy(&h.kernel(), "busy");
  h.AddRuntime(&stuck);
  h.AddRuntime(&busy, /*background=*/true);
  const int cond = stuck.CreateCond();
  stuck.Spawn(
      [cond](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Wait(cond);  // nobody will ever signal
      },
      "waiter");
  for (int i = 0; i < 200; ++i) {
    busy.Spawn(
        [i](rt::ThreadCtx& t) -> sim::Program {
          co_await t.Io(sim::Msec(i + 1));
          co_await t.Compute(sim::Usec(100));
        },
        "bg" + std::to_string(i));
  }
  h.set_stall_timeout(sim::Msec(50));
  const rt::RunResult result = h.TryRun();
  EXPECT_EQ(result.outcome, rt::RunOutcome::kStalled);
  EXPECT_LT(result.end_time, sim::Msec(100));  // the watchdog, not the drain
  EXPECT_GT(busy.threads_finished(), 0u);
  EXPECT_LT(busy.threads_finished(), busy.threads_created());
}

TEST(HarnessRobustness, WatchdogCountsChurnSpawnedProgress) {
  // The only foreground runtime arrives through churn.  Its threads finish
  // 20 ms apart over 200 ms: every gap is under the stall timeout, the run
  // is not, so the run completes only if the spawn's progress counts — and
  // it must not complete before the spawn's threads have all finished.
  rt::HarnessConfig config;
  config.processors = 2;
  rt::Harness h(config);
  h.AddDaemon("daemon", sim::Msec(2), sim::Usec(100));
  rt::Runtime* spawned = nullptr;
  h.AddChurn(1, sim::Msec(5), [&h, &spawned](int) -> std::unique_ptr<rt::Runtime> {
    auto rt = std::make_unique<rt::TopazRuntime>(&h.kernel(), "churn");
    for (int i = 0; i < 10; ++i) {
      rt->Spawn(
          [i](rt::ThreadCtx& t) -> sim::Program {
            co_await t.Io(sim::Msec(20 * (i + 1)));
            co_await t.Compute(sim::Usec(100));
          },
          "tick");
    }
    spawned = rt.get();
    return rt;
  });
  h.set_stall_timeout(sim::Msec(50));
  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  ASSERT_NE(spawned, nullptr);
  EXPECT_EQ(spawned->threads_finished(), 10u);
  EXPECT_GE(result.end_time, sim::Msec(205));
}

TEST(HarnessRobustness, ReportPrintsRobustnessCounters) {
  FaultPlan plan;
  plan.io_fail = 1.0;
  plan.io_retries = 1;

  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  h.EnableFaultInjection(plan);
  rt::TopazRuntime rt(&h.kernel(), "io");
  h.AddRuntime(&rt);
  rt.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program { co_await t.IoRead(sim::Msec(1)); },
      "reader");
  h.Run();
  const rt::RunReport report = rt::MakeReport(h);
  EXPECT_TRUE(report.inject_active);
  EXPECT_EQ(report.inject.failed_ops, 1);
  EXPECT_NE(report.ToString().find("faults injected"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

TEST(Shrink, NonFailingStartIsReported) {
  const inject::ShrinkResult result =
      inject::ShrinkPlan(FaultPlan{}, [](const FaultPlan&) { return false; });
  EXPECT_FALSE(result.failing);
}

TEST(Shrink, DropsIrrelevantFaultClasses) {
  // Pure predicate: "fails" iff I/O failures are on.  The shrinker must
  // strip every other class and keep io_fail.
  FaultPlan start = FaultPlan::Random(3);
  start.io_fail = 0.4;
  const inject::ShrinkResult result = inject::ShrinkPlan(
      start, [](const FaultPlan& p) { return p.io_fail > 0.0; });
  ASSERT_TRUE(result.failing);
  EXPECT_GT(result.plan.io_fail, 0.0);
  EXPECT_EQ(result.plan.io_spike, 0.0);
  EXPECT_EQ(result.plan.upcall_delay, 0.0);
  EXPECT_EQ(result.plan.alloc_deny, 0.0);
  EXPECT_EQ(result.plan.storm_period, 0);
  EXPECT_GT(result.tests_run, 0);
}

TEST(Shrink, DropsLendingFaultsWhenIrrelevant) {
  FaultPlan start = FaultPlan::Random(3);
  start.io_fail = 0.4;
  start.reclaim_delay = 0.4;
  start.reclaim_delay_for = sim::Msec(25);
  start.yield_lie = 0.3;
  const inject::ShrinkResult result = inject::ShrinkPlan(
      start, [](const FaultPlan& p) { return p.io_fail > 0.0; });
  ASSERT_TRUE(result.failing);
  EXPECT_GT(result.plan.io_fail, 0.0);
  EXPECT_EQ(result.plan.reclaim_delay, 0.0);
  EXPECT_EQ(result.plan.yield_lie, 0.0);
}

TEST(Shrink, KeepsAndMinimizesReclaimDelayCulprit) {
  // Pure predicate standing in for a lending bug that needs a long injected
  // recall delay: the shrinker must strip every other class, keep the
  // reclaim-delay fault, and halve the delay down to the failure threshold.
  FaultPlan start = FaultPlan::Random(9);
  start.reclaim_delay = 0.8;
  start.reclaim_delay_for = sim::Msec(64);
  start.yield_lie = 0.3;
  const inject::ShrinkResult result =
      inject::ShrinkPlan(start, [](const FaultPlan& p) {
        return p.reclaim_delay > 0.0 && p.reclaim_delay_for >= sim::Msec(8);
      });
  ASSERT_TRUE(result.failing);
  EXPECT_GT(result.plan.reclaim_delay, 0.0);
  EXPECT_GE(result.plan.reclaim_delay_for, sim::Msec(8));
  EXPECT_LE(result.plan.reclaim_delay_for, sim::Msec(16));
  EXPECT_EQ(result.plan.yield_lie, 0.0);
  EXPECT_EQ(result.plan.io_fail, 0.0);
  EXPECT_EQ(result.plan.storm_period, 0);

  // The minimized spec still round-trips.
  FaultPlan replay;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(result.plan.ToSpec(), &replay, &error)) << error;
  EXPECT_TRUE(replay == result.plan);
}

TEST(Shrink, MinimizesInjectedBugToReplayableSpec) {
  // End-to-end: a harness run that fails (a thread observes an I/O error)
  // under an everything-on plan.  The shrinker must reduce it to the I/O
  // failure class alone and the printed spec must still reproduce.
  FaultPlan start;
  start.seed = 17;
  start.io_fail = 0.6;
  start.io_retries = 1;
  start.io_spike = 0.3;
  start.upcall_delay = 0.3;
  start.alloc_deny = 0.2;
  start.storm_period = sim::Msec(3);

  const auto fails = [](const FaultPlan& p) {
    rt::HarnessConfig config;
    config.processors = 2;
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    rt::Harness h(config);
    h.EnableFaultInjection(p);
    ult::UltConfig uc;
    uc.max_vcpus = 2;
    ult::UltRuntime rt(&h.kernel(), "bug", ult::BackendKind::kSchedulerActivations,
                       uc);
    h.AddRuntime(&rt);
    bool saw_error = false;
    for (int i = 0; i < 3; ++i) {
      rt.Spawn(
          [&saw_error](rt::ThreadCtx& t) -> sim::Program {
            for (int k = 0; k < 4; ++k) {
              if (!co_await t.IoRead(sim::Msec(1))) {
                saw_error = true;
              }
              co_await t.Compute(sim::Usec(100));
            }
          },
          "bug-" + std::to_string(i));
    }
    const rt::RunResult result = h.TryRun();
    return !result.ok() || saw_error;  // "the bug": an error reached a thread
  };

  ASSERT_TRUE(fails(start));  // the bug is present at the start
  const inject::ShrinkResult shrunk = inject::ShrinkPlan(start, fails);
  ASSERT_TRUE(shrunk.failing);
  // Irrelevant classes are gone; the culprit survives.
  EXPECT_GT(shrunk.plan.io_fail, 0.0);
  EXPECT_EQ(shrunk.plan.io_spike, 0.0);
  EXPECT_EQ(shrunk.plan.upcall_delay, 0.0);
  EXPECT_EQ(shrunk.plan.alloc_deny, 0.0);
  EXPECT_EQ(shrunk.plan.storm_period, 0);

  // The one-line spec replays the minimized bug deterministically.
  const std::string spec = shrunk.plan.ToSpec();
  FaultPlan replay;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(spec, &replay, &error)) << spec << ": " << error;
  EXPECT_TRUE(replay == shrunk.plan);
  EXPECT_TRUE(fails(replay)) << "--fault-plan=" << spec;
}

}  // namespace
}  // namespace sa
