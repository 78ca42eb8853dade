// Page faults: the resident fast path, blocking faults, uniform treatment
// with I/O across runtimes, and the Section 3.1 special case (an upcall that
// itself page faults is delayed until the page is in).

#include <gtest/gtest.h>

#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/invariants.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

TEST(PageFault, ResidentPageIsMinorFault) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  rt.address_space()->vm().MakeResident(7);
  rt.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.PageFault(7, sim::Msec(50));
      },
      "toucher");
  const sim::Time elapsed = h.Run();
  // Minor fault: just a trap, nowhere near 50 ms.
  EXPECT_LT(sim::ToUsec(elapsed), 1000.0);
  EXPECT_EQ(h.kernel().counters().page_faults, 0);
}

TEST(PageFault, NonResidentPageBlocksAndBecomesResident) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  rt.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.PageFault(7, sim::Msec(20));  // major: blocks 20 ms
        co_await t.PageFault(7, sim::Msec(20));  // now resident: minor
      },
      "toucher");
  const sim::Time elapsed = h.Run();
  EXPECT_GT(sim::ToMsec(elapsed), 19.0);
  EXPECT_LT(sim::ToMsec(elapsed), 25.0);
  EXPECT_EQ(h.kernel().counters().page_faults, 1);
  EXPECT_TRUE(rt.address_space()->vm().IsResident(7));
}

TEST(PageFault, TreatedLikeIoOnSchedulerActivations) {
  // A faulting thread frees its processor via the blocked upcall; a compute
  // thread runs during the paging I/O.
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.tuned_upcalls = true;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(18)); },
           "cpu");
  ft.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.PageFault(3, sim::Msec(20));
      },
      "faulter");
  const sim::Time elapsed = h.Run();
  EXPECT_LT(sim::ToMsec(elapsed), 25.0);  // overlapped, not 38 ms
  EXPECT_GE(h.kernel().counters().upcalls_blocked, 1);
  EXPECT_GE(h.kernel().counters().upcalls_unblocked, 1);
  EXPECT_EQ(h.kernel().counters().page_faults, 1);
}

TEST(PageFault, FaultingVcpuStallsOriginalFastThreads) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(18)); },
           "cpu");
  ft.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.PageFault(3, sim::Msec(20));
      },
      "faulter");
  const sim::Time elapsed = h.Run();
  // The faulting thread took its virtual processor with it: serialized.
  EXPECT_GT(sim::ToMsec(elapsed), 37.0);
}

TEST(PageFault, UpcallThatWouldFaultIsDelayed) {
  // Section 3.1: evict the pages holding the upcall entry path; the next
  // upcall must be delayed by one paging latency, not delivered into a
  // non-resident handler.
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.tuned_upcalls = true;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  ft.Spawn(
      [&h, &ft](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Msec(1));
        // Evict the upcall path, then block: the blocked upcall must wait
        // for the 50 ms page-in before the dispatcher can run.
        ft.address_space()->vm().Evict(kern::VmSpace::kUpcallEntryPage);
        co_await t.Io(sim::Msec(2));
      },
      "evictor");
  const sim::Time elapsed = h.Run();
  EXPECT_GE(h.kernel().counters().upcall_page_fault_delays, 1);
  // The run took at least the 50 ms page-in (vs ~3 ms without the eviction).
  EXPECT_GT(sim::ToMsec(elapsed), 50.0);
  EXPECT_EQ(ft.threads_finished(), 1u);
}

TEST(PageFault, UpcallFaultWindowStrandsNoProcessor) {
  // While the upcall path pages in for one processor's delivery, a second
  // processor of the space asks for delivery too (its thread blocks in
  // I/O).  It must be served when the page-in ends, not left idle until an
  // unrelated event: four 20 ms threads keep both processors wanted.
  rt::HarnessConfig config;
  config.processors = 2;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.tuned_upcalls = true;
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kAll);
  ult::UltConfig uc;
  uc.max_vcpus = 2;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  ft.Spawn(
      [&ft](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Msec(1));
        ft.address_space()->vm().Evict(kern::VmSpace::kUpcallEntryPage);
        co_await t.Io(sim::Msec(2));
      },
      "evictor");
  ft.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Msec(3));
        co_await t.Io(sim::Msec(2));
        co_await t.Compute(sim::Msec(1));
      },
      "second");
  for (int i = 0; i < 4; ++i) {
    ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(20)); },
             "cpu");
  }
  const sim::Time elapsed = h.Run();
  const trace::CheckResult check = trace::CheckInvariants(h.trace()->Snapshot());
  EXPECT_TRUE(check.ok()) << check.Summary();
  EXPECT_EQ(ft.threads_finished(), 6u);
  EXPECT_GE(h.kernel().counters().upcall_page_fault_delays, 1);
  // 80 ms of compute on two processors plus one 50 ms page-in: a stranded
  // processor (the old behaviour) pushed the end past 110 ms.
  EXPECT_LT(sim::ToMsec(elapsed), 100.0);
}

TEST(PageFault, WorkloadMixesFaultsAndIoOnAllSystems) {
  for (int mode = 0; mode < 2; ++mode) {
    rt::HarnessConfig config;
    config.processors = 2;
    config.kernel.mode = mode == 0 ? kern::KernelMode::kNativeTopaz
                                   : kern::KernelMode::kSchedulerActivations;
    rt::Harness h(config);
    ult::UltConfig uc;
    uc.max_vcpus = 2;
    ult::UltRuntime ft(&h.kernel(), "app",
                       mode == 0 ? ult::BackendKind::kKernelThreads
                                 : ult::BackendKind::kSchedulerActivations,
                       uc);
    h.AddRuntime(&ft);
    for (int i = 0; i < 4; ++i) {
      ft.Spawn(
          [i](rt::ThreadCtx& t) -> sim::Program {
            co_await t.Compute(sim::Usec(300));
            co_await t.PageFault(i % 2, sim::Msec(2));
            co_await t.Io(sim::Msec(1));
            co_await t.PageFault(i % 2, sim::Msec(2));  // resident by now
          },
          "mix");
    }
    h.Run();
    EXPECT_EQ(ft.threads_finished(), 4u);
    EXPECT_LE(h.kernel().counters().page_faults, 2);  // one per distinct page
  }
}

}  // namespace
}  // namespace sa
