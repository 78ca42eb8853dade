// Soak: a long mixed scenario — two scheduler-activation applications, one
// kernel-thread application, daemons, I/O, page faults, locks and priorities
// all at once — audited continuously for the vessel invariant and finishing
// with every thread accounted for.  Plus a golden-trace test that pins the
// exact upcall ordering of the canonical block/unblock scenario.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/apps/synthetic.h"
#include "src/core/upcall.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/invariants.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

TEST(Soak, MixedSystemsLongRun) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = 4242;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);

  ult::UltConfig uc;
  uc.max_vcpus = 6;
  ult::UltRuntime sa_a(&h.kernel(), "sa-a", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime sa_b(&h.kernel(), "sa-b", ult::BackendKind::kSchedulerActivations, uc);
  rt::TopazRuntime kt(&h.kernel(), "kt");
  h.AddRuntime(&sa_a);
  h.AddRuntime(&sa_b);
  h.AddRuntime(&kt);
  h.AddDaemon("daemon", sim::Msec(7), sim::Usec(400));

  apps::SpawnRandomProgram(&sa_a, 8, 60, 1);
  apps::SpawnRandomProgram(&sa_b, 8, 60, 2);
  apps::SpawnLockContention(&kt, 4, 40, sim::Usec(80), sim::Usec(500));
  apps::SpawnIoStorm(&kt, 3, 25, sim::Usec(400), sim::Msec(2));

  // Extra page-fault traffic on one SA app.
  for (int i = 0; i < 3; ++i) {
    sa_a.Spawn(
        [i](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 10; ++k) {
            co_await t.PageFault(100 + (k + i) % 5, sim::Msec(1));
            co_await t.Compute(sim::Usec(300));
          }
        },
        "fault-loop");
  }

  int violations = 0;
  int audits = 0;
  std::function<void()> audit = [&] {
    for (ult::UltRuntime* app : {&sa_a, &sa_b}) {
      core::SaSpace* space = app->sa_backend()->space();
      if (space->num_running_activations() != space->num_assigned()) {
        ++violations;
      }
    }
    ++audits;
    if (!h.AllDone()) {
      h.engine().ScheduleIn(sim::Usec(900), audit);
    }
  };
  h.engine().ScheduleIn(sim::Usec(900), audit);

  h.EnableTracing(trace::cat::kUpcall | trace::cat::kUlt | trace::cat::kAlloc);
  h.Run();
  // Trace replay audits both SA spaces at every protocol transition, on top
  // of the coarse periodic audit above.
  const trace::CheckResult result = trace::CheckInvariants(h.trace()->Snapshot());
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_GT(result.vessel_checks, 0u);
  EXPECT_EQ(violations, 0);
  EXPECT_GT(audits, 50);
  EXPECT_EQ(sa_a.threads_finished(), sa_a.threads_created());
  EXPECT_EQ(sa_b.threads_finished(), sa_b.threads_created());
  EXPECT_EQ(kt.threads_finished(), kt.threads_created());
  // The full machinery was exercised.
  const auto& c = h.kernel().counters();
  EXPECT_GT(c.upcalls, 20);
  EXPECT_GT(c.io_blocks, 50);
  EXPECT_GT(c.page_faults, 1);
  EXPECT_GT(c.preempt_interrupts, 5);
}

TEST(GoldenTrace, CanonicalBlockUnblockUpcallOrdering) {
  // The exact kernel-event trace of Section 3.1's worked example: a thread
  // blocks in the kernel, a fresh activation takes the processor, and on
  // completion the notification preempts the processor, carrying both the
  // unblocked and the preempted thread in one upcall.
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kUpcall);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(20)); },
           "cpu");
  ft.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Msec(1));
        co_await t.Io(sim::Msec(5));
      },
      "io");
  h.Run();

  // The app space's queued upcall events: (kind, subject activation).
  using Kind = core::UpcallEvent::Kind;
  std::vector<std::pair<Kind, int64_t>> queued;
  for (const trace::Record& r : h.trace()->Snapshot()) {
    if (static_cast<trace::Kind>(r.kind) == trace::Kind::kUpcallQueued &&
        r.as_id == ft.address_space()->id()) {
      queued.emplace_back(static_cast<Kind>(r.arg0), static_cast<int64_t>(r.arg1));
    }
  }
  ASSERT_GE(queued.size(), 4u);
  EXPECT_EQ(queued[0].first, Kind::kAddProcessor);
  EXPECT_EQ(queued[1], std::make_pair(Kind::kBlocked, int64_t{1}));
  EXPECT_EQ(queued[2], std::make_pair(Kind::kUnblocked, int64_t{1}));
  EXPECT_EQ(queued[3], std::make_pair(Kind::kPreempted, int64_t{2}));
}

}  // namespace
}  // namespace sa
