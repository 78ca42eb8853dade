// Run reports: the processor-time breakdown must account for every
// nanosecond of machine time, across systems.

#include <gtest/gtest.h>

#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/rt/topaz_runtime.h"
#include "src/ult/ult_runtime.h"

namespace sa::rt {
namespace {

TEST(RunReport, BreakdownSumsToMachineTime) {
  HarnessConfig config;
  config.processors = 3;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 3;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  for (int i = 0; i < 5; ++i) {
    ft.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          co_await t.Compute(sim::Msec(2));
          co_await t.Io(sim::Msec(1));
          co_await t.Compute(sim::Msec(2));
        },
        "w");
  }
  h.Run();
  const RunReport report = MakeReport(h);
  const sim::Duration total =
      report.user + report.mgmt + report.kernel + report.spin + report.idle_spin +
      report.idle;
  EXPECT_EQ(total, report.elapsed * 3);  // 3 processors, fully accounted
  // 5 threads x 4 ms of computation.
  EXPECT_EQ(report.user, sim::Msec(20));
  EXPECT_GT(report.UserUtilization(), 0.0);
  EXPECT_LT(report.UserUtilization(), 1.0);
}

TEST(RunReport, RendersEveryCategory) {
  HarnessConfig config;
  config.processors = 1;
  Harness h(config);
  TopazRuntime rt(&h.kernel(), "app");
  h.AddRuntime(&rt);
  rt.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(1)); },
           "w");
  h.Run();
  const std::string text = MakeReport(h).ToString();
  for (const char* needle :
       {"application computation", "kernel", "spinning on locks", "idle", "elapsed"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(RunReport, WastedFractionSeesIdleSpinning) {
  // Original FastThreads with an extra vcpu: the idle loop shows up as waste.
  HarnessConfig config;
  config.processors = 2;
  Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 2;
  ult::UltRuntime ft(&h.kernel(), "app", ult::BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  ft.Spawn([](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(10)); },
           "only");
  h.Run();
  const RunReport report = MakeReport(h);
  EXPECT_GT(report.WastedFraction(), 0.4);  // the second vcpu spun idly
  EXPECT_GT(report.idle_spin, sim::Msec(8));
}

TEST(RunReport, LendingSectionAppearsOnlyWhenConfigured) {
  // Without lending, the section is absent entirely (and the flag is off).
  {
    HarnessConfig config;
    config.processors = 2;
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    Harness h(config);
    TopazRuntime rt(&h.kernel(), "app");
    h.AddRuntime(&rt);
    rt.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(1)); },
        "w");
    h.Run();
    const RunReport report = MakeReport(h);
    EXPECT_FALSE(report.lending_active);
    EXPECT_EQ(report.ToString().find("loans:"), std::string::npos);
  }

  // With lending on and loans flowing, the counters line, the recall-latency
  // line, and the per-space rows all render.
  HarnessConfig config;
  config.processors = 4;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.lending = true;
  Harness h(config);

  TopazRuntime lender(&h.kernel(), "lender");
  h.AddRuntime(&lender, /*background=*/true);
  for (int i = 0; i < 2; ++i) {
    lender.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 100; ++k) {
            co_await t.Compute(sim::Msec(3));
            co_await t.Io(sim::Msec(9));
          }
        },
        "lender-" + std::to_string(i));
  }
  ult::UltConfig uc;
  uc.max_vcpus = 4;
  ult::UltRuntime borrower(&h.kernel(), "borrower",
                           ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&borrower);
  for (int i = 0; i < 4; ++i) {
    borrower.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 100; ++k) {
            co_await t.Compute(sim::Usec(500));
          }
        },
        "borrower-" + std::to_string(i));
  }
  h.Run();

  const RunReport report = MakeReport(h);
  EXPECT_TRUE(report.lending_active);
  EXPECT_GT(report.counters.loans_granted, 0);
  EXPECT_GT(report.counters.loans_reclaimed, 0);
  ASSERT_FALSE(report.lending_spaces.empty());
  int64_t lends = 0, borrows = 0;
  bool saw_lender = false;
  for (const RunReport::LendingSpaceRow& row : report.lending_spaces) {
    lends += row.lends;
    borrows += row.borrows;
    if (row.name == "lender") {
      saw_lender = true;
      EXPECT_GT(row.lends, 0);
      EXPECT_GT(row.reclaims, 0);
    }
  }
  EXPECT_TRUE(saw_lender);
  EXPECT_EQ(lends, borrows);  // every loan has exactly one side each
  EXPECT_EQ(lends, report.counters.loans_granted);

  const std::string text = report.ToString();
  EXPECT_NE(text.find("loans:"), std::string::npos);
  EXPECT_NE(text.find("loan reclaim latency"), std::string::npos);
  EXPECT_NE(text.find("space"), std::string::npos);
  EXPECT_NE(text.find("lent"), std::string::npos);
}

}  // namespace
}  // namespace sa::rt
