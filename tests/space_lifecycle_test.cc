// Address-space lifecycle under injected runtime failures (DESIGN.md §12).
//
// Spaces crash, hang, or exit mid-run; the kernel must quarantine the dead
// space, reclaim every activation, kernel thread, and processor it held
// (machine-wide conservation), and rebalance survivors to their new fair
// share — while a run with no lifecycle faults stays byte-identical to one
// without the reaper machinery armed at all (zero perturbation).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/apps/synthetic.h"
#include "src/inject/fault_plan.h"
#include "src/kern/space_reaper.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/invariants.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

// A long-running scheduler-activation space: `threads` workers looping
// compute + blocking I/O for roughly iters * 60us of virtual time each —
// alive well past every fault time used below, so the teardown always hits
// a space with running, ready, and I/O-blocked threads at once.
std::unique_ptr<ult::UltRuntime> MakeSpace(rt::Harness& h, const std::string& name,
                                           int threads = 4, int iters = 400) {
  ult::UltConfig uc;
  uc.max_vcpus = 3;
  auto rt = std::make_unique<ult::UltRuntime>(
      &h.kernel(), name, ult::BackendKind::kSchedulerActivations, uc);
  for (int i = 0; i < threads; ++i) {
    rt->Spawn(
        [iters](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < iters; ++k) {
            co_await t.Compute(sim::Usec(50));
            if (k % 7 == 3) {
              co_await t.Io(sim::Usec(80));
            }
          }
        },
        name + "-w" + std::to_string(i));
  }
  return rt;
}

rt::HarnessConfig SaConfig(int processors, uint64_t seed = 1) {
  rt::HarnessConfig config;
  config.processors = processors;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  return config;
}

std::vector<trace::Record> LifecycleRecords(const std::vector<trace::Record>& all,
                                            trace::Kind kind, int as_id) {
  std::vector<trace::Record> out;
  for (const trace::Record& r : all) {
    if (static_cast<trace::Kind>(r.kind) == kind && r.as_id == as_id) {
      out.push_back(r);
    }
  }
  return out;
}

// An injected crash quarantines the space and reclaims everything it held:
// threads, activations, processors, queued upcalls.  ConservationReport —
// the same audit the reaper SA_CHECKs internally — must come back clean,
// and the surviving space must be untouched.
TEST(SpaceLifecycle, CrashReclaimsEverything) {
  rt::Harness h(SaConfig(/*processors=*/4));
  h.EnableTracing(trace::cat::kAll);

  inject::FaultPlan plan;
  plan.crash_at = sim::Msec(3);
  plan.crash_space = 0;
  h.EnableFaultInjection(plan);

  auto victim = MakeSpace(h, "victim");
  auto survivor = MakeSpace(h, "survivor");
  h.AddRuntime(victim.get());
  h.AddRuntime(survivor.get());

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  kern::AddressSpace* as = victim->address_space();
  ASSERT_NE(as, nullptr);
  EXPECT_EQ(as->lifecycle(), kern::AsLifecycle::kDead);
  EXPECT_EQ(as->teardown_cause(), kern::TeardownCause::kCrashed);
  EXPECT_TRUE(as->assigned().empty());
  EXPECT_EQ(h.kernel().reaper()->ConservationReport(as), "");

  const kern::ReaperStats& stats = h.kernel().reaper()->stats();
  EXPECT_EQ(stats.spaces_reaped, 1);
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_GT(stats.threads_reclaimed, 0);
  EXPECT_GE(stats.procs_returned, 1);

  ASSERT_EQ(h.kernel().reaper()->teardowns().size(), 1u);
  const kern::TeardownRecord& td = h.kernel().reaper()->teardowns()[0];
  EXPECT_EQ(td.as_id, as->id());
  EXPECT_EQ(td.cause, kern::TeardownCause::kCrashed);
  EXPECT_EQ(td.threads_reclaimed, static_cast<int>(stats.threads_reclaimed));

  // The survivor rode out its neighbour's death untouched.
  EXPECT_EQ(survivor->threads_finished(), survivor->threads_created());

  const std::vector<trace::Record> records = h.trace()->Snapshot();
  EXPECT_EQ(LifecycleRecords(records, trace::Kind::kLifeCrash, as->id()).size(), 1u);
  EXPECT_EQ(LifecycleRecords(records, trace::Kind::kLifeQuarantine, as->id()).size(), 1u);
  const auto done = LifecycleRecords(records, trace::Kind::kLifeTeardownDone, as->id());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(static_cast<int>(done[0].arg0), td.procs_returned);
  // Replay check: no record may be attributed to the space after its
  // teardown completed, and the survivor's protocol invariants still hold.
  const trace::CheckResult check = trace::CheckInvariants(records);
  EXPECT_TRUE(check.ok()) << check.Summary();
}

// A hung runtime is invisible to the kernel until the upcall-ack watchdog
// misses deadlines.  The deadline backs off exponentially (10, 20, 40ms),
// so the ping records' spacing must double, and the space is declared hung
// after exactly kMaxPings misses.
TEST(SpaceLifecycle, HangDetectionBacksOffExponentially) {
  rt::Harness h(SaConfig(/*processors=*/4));
  h.EnableTracing(trace::cat::kLifecycle);

  inject::FaultPlan plan;
  plan.hang_at = sim::Msec(2);
  plan.hang_space = 0;
  h.EnableFaultInjection(plan);

  auto victim = MakeSpace(h, "wedged");
  auto survivor = MakeSpace(h, "survivor");
  h.AddRuntime(victim.get());
  h.AddRuntime(survivor.get());

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  kern::AddressSpace* as = victim->address_space();
  ASSERT_NE(as, nullptr);
  EXPECT_EQ(as->lifecycle(), kern::AsLifecycle::kDead);
  EXPECT_EQ(as->teardown_cause(), kern::TeardownCause::kHung);
  EXPECT_EQ(h.kernel().reaper()->ConservationReport(as), "");

  const kern::ReaperStats& stats = h.kernel().reaper()->stats();
  EXPECT_EQ(stats.hangs, 1);
  EXPECT_EQ(stats.hang_pings, kern::SpaceReaper::kMaxPings);

  // Detection is bounded: at most sum(base << i) = 70ms past the injection
  // (plus the sliver of deadline already armed when the hang hit).
  ASSERT_EQ(h.kernel().reaper()->teardowns().size(), 1u);
  const kern::TeardownRecord& td = h.kernel().reaper()->teardowns()[0];
  EXPECT_EQ(td.cause, kern::TeardownCause::kHung);
  EXPECT_LE(td.begin, plan.hang_at + sim::Msec(71));

  const std::vector<trace::Record> records = h.trace()->Snapshot();
  const auto pings = LifecycleRecords(records, trace::Kind::kLifeHangPing, as->id());
  ASSERT_EQ(pings.size(), 3u);
  EXPECT_EQ(pings[0].arg0, 1u);
  EXPECT_EQ(pings[1].arg0, 2u);
  EXPECT_EQ(pings[2].arg0, 3u);
  // Exponential backoff: whatever the first deadline's phase, the gaps
  // between consecutive pings are exactly base << 1 and base << 2.
  EXPECT_EQ(pings[1].ts - pings[0].ts, kern::SpaceReaper::kAckDeadlineBase << 1);
  EXPECT_EQ(pings[2].ts - pings[1].ts, kern::SpaceReaper::kAckDeadlineBase << 2);
  const auto hung = LifecycleRecords(records, trace::Kind::kLifeHang, as->id());
  ASSERT_EQ(hung.size(), 1u);
  EXPECT_EQ(hung[0].ts, pings[2].ts);  // third miss declares, same instant
}

// An orderly exit that leaks everything: the reaper returns the dead
// space's processors to the allocator, and the survivors' allocations grow
// from the three-way fair share (2 of 6 each) to the two-way one (3 each).
// A space crashes while one of its threads sleeps in the kernel on a kernel
// event that is never signalled.  Teardown drops the waiter with the rest of
// the thread system and still returns every processor the space held.
TEST(SpaceLifecycle, CrashWithKernelEventWaiterConservesProcessors) {
  rt::Harness h(SaConfig(/*processors=*/3));
  h.EnableTracing(trace::cat::kAll);

  inject::FaultPlan plan;
  plan.crash_at = sim::Msec(10);
  plan.crash_space = 0;
  h.EnableFaultInjection(plan);

  ult::UltConfig uc;
  uc.max_vcpus = 2;
  ult::UltRuntime victim(&h.kernel(), "victim", ult::BackendKind::kSchedulerActivations,
                         uc);
  const int ev = victim.CreateKernelEvent();
  victim.Spawn([ev](rt::ThreadCtx& t) -> sim::Program { co_await t.KernelWait(ev); },
               "sleeper");
  victim.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(50)); },
      "worker");
  auto survivor = MakeSpace(h, "survivor");
  h.AddRuntime(&victim);
  h.AddRuntime(survivor.get());

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  kern::AddressSpace* as = victim.address_space();
  EXPECT_EQ(as->lifecycle(), kern::AsLifecycle::kDead);
  EXPECT_EQ(as->teardown_cause(), kern::TeardownCause::kCrashed);
  EXPECT_TRUE(as->assigned().empty());
  EXPECT_EQ(h.kernel().reaper()->ConservationReport(as), "");
  EXPECT_EQ(h.kernel().counters().kernel_waits, 1);
  EXPECT_EQ(victim.threads_finished(), 0u);
  EXPECT_EQ(survivor->threads_finished(), survivor->threads_created());

  const trace::CheckResult check = trace::CheckInvariants(h.trace()->Snapshot());
  EXPECT_TRUE(check.ok()) << check.Summary();
}

TEST(SpaceLifecycle, ExitReturnsProcessorsToSurvivors) {
  rt::Harness h(SaConfig(/*processors=*/6));

  inject::FaultPlan plan;
  plan.exit_at = sim::Msec(3);
  plan.exit_space = 0;
  h.EnableFaultInjection(plan);

  auto leaver = MakeSpace(h, "leaver");
  auto survivor_a = MakeSpace(h, "survivor-a");
  auto survivor_b = MakeSpace(h, "survivor-b");
  h.AddRuntime(leaver.get());
  h.AddRuntime(survivor_a.get());
  h.AddRuntime(survivor_b.get());

  // Probe the allocation well after the teardown settles but long before
  // the survivors run out of work (their threads run ~25ms).
  size_t assigned_a = 0;
  size_t assigned_b = 0;
  h.engine().ScheduleIn(sim::Msec(8), [&] {
    assigned_a = survivor_a->address_space()->assigned().size();
    assigned_b = survivor_b->address_space()->assigned().size();
  });

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  kern::AddressSpace* as = leaver->address_space();
  EXPECT_EQ(as->lifecycle(), kern::AsLifecycle::kDead);
  EXPECT_EQ(as->teardown_cause(), kern::TeardownCause::kExited);
  EXPECT_EQ(h.kernel().reaper()->stats().exits, 1);
  EXPECT_EQ(h.kernel().reaper()->ConservationReport(as), "");

  // Fair-share recovery: each survivor reached its full three-processor
  // demand once the departed space's share landed back in the pool.
  EXPECT_EQ(assigned_a, 3u);
  EXPECT_EQ(assigned_b, 3u);

  EXPECT_EQ(survivor_a->threads_finished(), survivor_a->threads_created());
  EXPECT_EQ(survivor_b->threads_finished(), survivor_b->threads_created());
}

// Every runtime kind torn down at every instant of a window.  Two spaces of
// one kind share two processors, and space 0 crashes at an instant swept
// 0.1-4 ms, 10us apart, on the SA kernel and on the native one (which has
// no upcalls to hang).  A span of the dead space still running at the crash
// ends after it (a span ending at the crash instant fires before the
// revocation interrupt, and a kernel or management span is not
// preemptible); the kernel must drop its continuation there, so no record
// of the space's user level or of its threads' kernel services follows the
// quarantine (trace::CheckInvariants), the teardown completes and every
// processor comes back.  Every thread crosses each path of its runtime:
// mutex, compute, I/O, fork and join, yield, a kernel-event wait or signal,
// and on FastThreads a spinlock section.  On the native kernel a Topaz space
// also dies at priority 1, whose wakeups preempt the other space's threads
// (a dispatch whose target dies during the preempt interrupt).
enum class SweepKind {
  kTopaz,
  kHeavyweightTopaz,
  kFtKernelThreads,
  kFtActivations,
  kPriorityTopaz,
};

struct SweepCase {
  SweepKind kind;
  kern::KernelMode mode;
};

std::string SweepName(const SweepCase& c) {
  static const char* const kKinds[] = {"Topaz", "HeavyweightTopaz", "FtKernelThreads",
                                       "FtActivations", "PriorityTopaz"};
  return std::string(kKinds[static_cast<int>(c.kind)]) +
         (c.mode == kern::KernelMode::kNativeTopaz ? "_Native" : "_SA");
}

void PrintTo(const SweepCase& c, std::ostream* os) { *os << SweepName(c); }

std::unique_ptr<rt::Runtime> MakeSweepSpace(rt::Harness& h, SweepKind kind,
                                            const std::string& name, int priority) {
  std::unique_ptr<rt::Runtime> space;
  switch (kind) {
    case SweepKind::kTopaz:
    case SweepKind::kHeavyweightTopaz:
    case SweepKind::kPriorityTopaz:
      space = std::make_unique<rt::TopazRuntime>(
          &h.kernel(), name, kind == SweepKind::kHeavyweightTopaz, priority);
      break;
    case SweepKind::kFtKernelThreads:
    case SweepKind::kFtActivations: {
      ult::UltConfig uc;
      uc.max_vcpus = 2;
      space = std::make_unique<ult::UltRuntime>(
          &h.kernel(), name,
          kind == SweepKind::kFtActivations ? ult::BackendKind::kSchedulerActivations
                                            : ult::BackendKind::kKernelThreads,
          uc);
      break;
    }
  }
  const bool spin = kind == SweepKind::kFtKernelThreads || kind == SweepKind::kFtActivations;
  const int mutex = space->CreateLock(rt::LockKind::kMutex);
  const int spinlock = spin ? space->CreateLock(rt::LockKind::kSpin) : -1;
  const int ev = space->CreateKernelEvent();
  for (int k = 0; k < 3; ++k) {
    space->Spawn(
        [mutex, spinlock, ev, k](rt::ThreadCtx& t) -> sim::Program {
          for (int round = 0; round < 8; ++round) {
            co_await t.Acquire(mutex);
            co_await t.Compute(sim::Usec(100));
            co_await t.Release(mutex);
            if (spinlock >= 0) {
              co_await t.Acquire(spinlock);
              co_await t.Compute(sim::Usec(20));
              co_await t.Release(spinlock);
            }
            co_await t.Io(sim::Usec(50));
            rt::WorkloadFn child = [](rt::ThreadCtx& c) -> sim::Program {
              co_await c.Compute(sim::Usec(30));
            };
            const int tid = co_await t.Fork(std::move(child));
            co_await t.Join(tid);
            co_await t.Yield();
            if (k == 0) {
              co_await t.KernelWait(ev);  // signalled 16 times per 8 waits
            } else {
              co_await t.KernelSignal(ev);
            }
          }
        },
        std::string("w").append(std::to_string(k)));
  }
  return space;
}

class TeardownSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TeardownSweep, SpaceSurvivesTeardownAtAnyInstant) {
  const SweepCase c = GetParam();
  for (sim::Duration at = sim::Usec(100); at <= sim::Msec(4); at += sim::Usec(10)) {
    rt::HarnessConfig config = SaConfig(/*processors=*/2);
    config.kernel.mode = c.mode;
    rt::Harness h(config);
    // A run emits under 800 of these records; the default million-record
    // ring would zero-fill 40 MB per run.
    h.EnableTracing(trace::cat::kAll & ~trace::cat::kProcessor, /*capacity=*/1 << 13);
    inject::FaultPlan plan;
    plan.crash_at = at;
    plan.crash_space = 0;
    h.EnableFaultInjection(plan);

    std::vector<std::unique_ptr<rt::Runtime>> spaces;
    for (int s = 0; s < 2; ++s) {
      const int priority = c.kind == SweepKind::kPriorityTopaz && s == 0 ? 1 : 0;
      spaces.push_back(MakeSweepSpace(h, c.kind, "space" + std::to_string(s), priority));
      h.AddRuntime(spaces.back().get());
    }

    const rt::RunResult result = h.TryRun();
    ASSERT_TRUE(result.ok()) << "crash at " << at << ":\n" << result.diagnostics;
    kern::AddressSpace* as = spaces[0]->address_space();
    ASSERT_EQ(as->lifecycle(), kern::AsLifecycle::kDead) << "crash at " << at;
    ASSERT_EQ(h.kernel().reaper()->ConservationReport(as), "") << "crash at " << at;
    ASSERT_EQ(spaces[1]->threads_finished(), spaces[1]->threads_created())
        << "crash at " << at;
    const trace::CheckResult check = trace::CheckInvariants(h.trace()->Snapshot());
    ASSERT_TRUE(check.ok()) << "crash at " << at << ":\n" << check.Summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TeardownSweep,
    ::testing::Values(SweepCase{SweepKind::kTopaz, kern::KernelMode::kSchedulerActivations},
                      SweepCase{SweepKind::kHeavyweightTopaz,
                                kern::KernelMode::kSchedulerActivations},
                      SweepCase{SweepKind::kFtKernelThreads,
                                kern::KernelMode::kSchedulerActivations},
                      SweepCase{SweepKind::kFtActivations,
                                kern::KernelMode::kSchedulerActivations},
                      SweepCase{SweepKind::kTopaz, kern::KernelMode::kNativeTopaz},
                      SweepCase{SweepKind::kHeavyweightTopaz, kern::KernelMode::kNativeTopaz},
                      SweepCase{SweepKind::kFtKernelThreads, kern::KernelMode::kNativeTopaz},
                      SweepCase{SweepKind::kPriorityTopaz, kern::KernelMode::kNativeTopaz}),
    [](const ::testing::TestParamInfo<SweepCase>& info) { return SweepName(info.param); });

// The same, aimed at the test-and-set spans around a contended lock: thread
// b's acquire span ends (at 232us) while a holds the lock, and a's release
// span ends (at 1184us) with b waiting.  A crash at that very instant fires
// before the revocation interrupt, so the span's continuation still runs,
// and must neither block the dead thread on the lock nor wake the dead
// waiter.
TEST(SpaceLifecycle, TopazLockSpanEndingAtTeardownParks) {
  for (sim::Duration at = sim::Usec(150); at <= sim::Usec(1250); at += sim::Usec(1)) {
    rt::Harness h(SaConfig(/*processors=*/2));
    inject::FaultPlan plan;
    plan.crash_at = at;
    plan.crash_space = 0;
    h.EnableFaultInjection(plan);

    rt::TopazRuntime topaz(&h.kernel(), "topaz");
    const int lock = topaz.CreateLock(rt::LockKind::kMutex);
    topaz.Spawn(
        [lock](rt::ThreadCtx& t) -> sim::Program {
          co_await t.Acquire(lock);
          co_await t.Compute(sim::Usec(1000));
          co_await t.Release(lock);
        },
        "a");
    topaz.Spawn(
        [lock](rt::ThreadCtx& t) -> sim::Program {
          co_await t.Compute(sim::Usec(50));
          co_await t.Acquire(lock);
          co_await t.Release(lock);
        },
        "b");
    h.AddRuntime(&topaz);

    const rt::RunResult result = h.TryRun();
    ASSERT_TRUE(result.ok()) << "crash at " << at << ":\n" << result.diagnostics;
    ASSERT_EQ(h.kernel().reaper()->ConservationReport(topaz.address_space()), "")
        << "crash at " << at;
  }
}

// A hang is a space that stops acknowledging upcalls, and the native kernel
// delivers none, so its watchdog could never declare one.  The harness
// refuses a hang plan there up front (crash and exit plans run: see
// TeardownSweep).
TEST(SpaceLifecycleDeathTest, HangFaultsNeedUpcalls) {
  inject::FaultPlan plan;
  plan.hang_at = sim::Msec(1);
  rt::HarnessConfig config;  // native Topaz kernel
  EXPECT_DEATH(
      {
        rt::Harness h(config);
        h.EnableFaultInjection(plan);
      },
      "hang faults require scheduler activations");
}

// Churn soak: spaces arriving mid-run while random lifecycle faults kill
// them.  Every run must complete with survivors finished, the trace replay
// clean (no dead-space activity, vessel invariant intact for live spaces),
// and the reaper's books balanced.
TEST(SpaceLifecycle, ChurnSoakSurvivesRandomLifecycleFaults) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    rt::Harness h(SaConfig(/*processors=*/4, seed));
    inject::FaultPlan plan = inject::FaultPlan::RandomChurn(seed * 131 + 9, /*spaces=*/4);
    plan.io_retries = std::max(plan.io_retries, 6);
    h.EnableFaultInjection(plan);
    h.set_stall_timeout(sim::Msec(30000) + 100 * plan.ExtraIdleSlack());
    h.EnableTracing(trace::cat::kUpcall | trace::cat::kUlt | trace::cat::kLifecycle |
                    trace::cat::kAlloc);

    auto initial = MakeSpace(h, "init");
    h.AddRuntime(initial.get());
    h.AddDaemon("daemon", sim::Msec(3), sim::Usec(300));
    h.AddChurn(3, sim::Msec(2), [&h](int i) -> std::unique_ptr<rt::Runtime> {
      return MakeSpace(h, "churn" + std::to_string(i), /*threads=*/3, /*iters=*/300);
    });

    const rt::RunResult result = h.TryRun();
    ASSERT_TRUE(result.ok()) << "seed " << seed << ":\n" << result.diagnostics;

    const kern::ReaperStats& stats = h.kernel().reaper()->stats();
    EXPECT_EQ(static_cast<size_t>(stats.spaces_reaped),
              h.kernel().reaper()->teardowns().size());
    if (!initial->address_space()->reaped()) {
      EXPECT_EQ(initial->threads_finished(), initial->threads_created())
          << "seed " << seed;
    }

    trace::CheckOptions opts;
    opts.idle_ready_threshold += plan.ExtraIdleSlack();
    const trace::CheckResult check = trace::CheckInvariants(h.trace()->Snapshot(), opts);
    EXPECT_TRUE(check.ok()) << "seed " << seed << ":\n" << check.Summary();
  }
}

// Zero perturbation: enabling fault injection with a plan that plants no
// lifecycle faults (and nothing else) must leave a seeded run's trace
// byte-identical to a run with no injector at all — the reaper's hooks sit
// on the hot paths but may not disturb them.
TEST(SpaceLifecycle, InactivePlanIsZeroPerturbation) {
  auto run = [](bool with_injector) {
    rt::Harness h(SaConfig(/*processors=*/3, /*seed=*/11));
    h.EnableTracing(trace::cat::kAll);
    if (with_injector) {
      h.EnableFaultInjection(inject::FaultPlan{});  // nothing planted
    }
    ult::UltConfig uc;
    uc.max_vcpus = 3;
    auto rt = std::make_unique<ult::UltRuntime>(
        &h.kernel(), "zp", ult::BackendKind::kSchedulerActivations, uc);
    h.AddRuntime(rt.get());
    h.AddDaemon("daemon", sim::Msec(3), sim::Usec(300));
    apps::SpawnRandomProgram(rt.get(), /*threads=*/6, /*ops=*/25, 11 * 977 + 13);
    h.Run();
    return h.trace()->Snapshot();
  };

  const std::vector<trace::Record> baseline = run(false);
  const std::vector<trace::Record> injected = run(true);
  ASSERT_GT(baseline.size(), 0u);
  ASSERT_EQ(baseline.size(), injected.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    const trace::Record& a = baseline[i];
    const trace::Record& b = injected[i];
    const bool same = a.ts == b.ts && a.cpu == b.cpu && a.as_id == b.as_id &&
                      a.kind == b.kind && a.arg0 == b.arg0 && a.arg1 == b.arg1;
    ASSERT_TRUE(same) << "trace diverged at record " << i << ": t=" << a.ts
                      << " vs t=" << b.ts << ", kind "
                      << trace::KindName(static_cast<trace::Kind>(a.kind)) << " vs "
                      << trace::KindName(static_cast<trace::Kind>(b.kind));
  }
}

}  // namespace
}  // namespace sa
