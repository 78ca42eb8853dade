// Open-loop traffic generation (DESIGN.md §15): seeded-arrival determinism,
// Poisson inter-arrival statistics, per-tenant SLO accounting edge cases,
// tier isolation under saturating load, and the zero-perturbation guarantee
// (an inactive generator leaves seeded SA-protocol traces byte-identical).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/traffic/traffic.h"
#include "src/trace/trace.h"
#include "src/ult/ult_runtime.h"

namespace sa::traffic {
namespace {

TrafficConfig SmallConfig(uint64_t seed) {
  TrafficConfig tc;
  tc.seed = seed;
  tc.horizon = sim::Msec(500);
  tc.drain = sim::Msec(200);
  tc.record_arrivals = true;
  TenantSpec a;
  a.name = "poisson-a";
  a.arrivals.rate = 400.0;
  a.mix = {RequestClass{"small", 3.0, sim::Usec(500), RequestClass::Dist::kFixed, 0},
           RequestClass{"big", 1.0, sim::Msec(2), RequestClass::Dist::kExponential,
                        sim::Usec(200)}};
  a.slo.latency = sim::Msec(50);
  TenantSpec b;
  b.name = "bursty-b";
  b.arrivals.kind = ArrivalSpec::Kind::kOnOff;
  b.arrivals.rate = 800.0;
  b.arrivals.on_mean = sim::Msec(40);
  b.arrivals.off_mean = sim::Msec(60);
  b.mix = {RequestClass{"req", 1.0, sim::Msec(1), RequestClass::Dist::kFixed, 0}};
  b.ramp.period = sim::Msec(200);
  b.ramp.points = {{0, 0.5}, {sim::Msec(100), 2.0}};
  tc.tenants = {a, b};
  return tc;
}

std::vector<ArrivalEvent> RunAndLogArrivals(uint64_t seed) {
  rt::HarnessConfig config;
  config.processors = 8;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  TrafficGenerator gen(&h, SmallConfig(seed));
  h.Run();
  EXPECT_GT(gen.total_arrivals(), 0);
  EXPECT_EQ(gen.total_completions(), gen.total_arrivals());  // light load drains
  return gen.arrival_log();
}

TEST(TrafficDeterminism, EqualSeedsProduceByteIdenticalArrivalSequences) {
  const std::vector<ArrivalEvent> first = RunAndLogArrivals(42);
  const std::vector<ArrivalEvent> second = RunAndLogArrivals(42);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i] == second[i])
        << "arrival " << i << " diverged: tenant " << first[i].tenant << " t="
        << first[i].at << " vs tenant " << second[i].tenant << " t="
        << second[i].at;
  }
}

TEST(TrafficDeterminism, DifferentSeedsDiverge) {
  const std::vector<ArrivalEvent> first = RunAndLogArrivals(42);
  const std::vector<ArrivalEvent> second = RunAndLogArrivals(43);
  bool diverged = first.size() != second.size();
  for (size_t i = 0; !diverged && i < first.size(); ++i) {
    diverged = !(first[i] == second[i]);
  }
  EXPECT_TRUE(diverged);
}

TEST(TrafficArrivals, PoissonInterArrivalMeanWithinTolerance) {
  rt::HarnessConfig config;
  config.processors = 8;
  rt::Harness h(config);
  TrafficConfig tc;
  tc.seed = 7;
  tc.horizon = sim::Sec(4);
  tc.drain = sim::Msec(100);
  tc.record_arrivals = true;
  TenantSpec t;
  t.name = "poisson";
  t.arrivals.rate = 1000.0;  // mean gap 1ms
  t.mix = {RequestClass{"req", 1.0, sim::Usec(100), RequestClass::Dist::kFixed, 0}};
  tc.tenants = {t};
  TrafficGenerator gen(&h, tc);
  h.Run();
  const std::vector<ArrivalEvent>& log = gen.arrival_log();
  ASSERT_GT(log.size(), 2000u);
  double sum_gap = static_cast<double>(log.front().at);
  for (size_t i = 1; i < log.size(); ++i) {
    sum_gap += static_cast<double>(log[i].at - log[i - 1].at);
  }
  const double mean_gap = sum_gap / static_cast<double>(log.size());
  EXPECT_NEAR(mean_gap, 1.0e6, 1.0e5);  // 1ms ± 10%
}

TEST(TrafficSlo, EmptyAndAllViolatingTenantsAreAccountedCorrectly) {
  rt::HarnessConfig config;
  config.processors = 4;
  rt::Harness h(config);
  TrafficConfig tc;
  tc.seed = 3;
  tc.horizon = sim::Msec(200);
  tc.drain = sim::Msec(100);
  TenantSpec empty;
  empty.name = "empty";
  empty.arrivals.rate = 0.001;  // first arrival far past the horizon
  TenantSpec doomed;
  doomed.name = "doomed";
  doomed.arrivals.rate = 200.0;
  doomed.mix = {RequestClass{"req", 1.0, sim::Usec(500), RequestClass::Dist::kFixed, 0}};
  doomed.slo.latency = sim::Nsec(1);  // nothing can finish this fast
  doomed.slo.quantile = 0.999;
  tc.tenants = {empty, doomed};
  TrafficGenerator gen(&h, tc);
  h.Run();

  rt::RunReport report = rt::MakeReport(h);
  ASSERT_TRUE(report.traffic_active);
  ASSERT_EQ(report.tenants.size(), 2u);
  const rt::TenantSloRow& e = report.tenants[0];
  EXPECT_EQ(e.arrivals, 0);
  EXPECT_EQ(e.completions, 0);
  EXPECT_DOUBLE_EQ(e.violation_fraction, 0.0);
  EXPECT_TRUE(e.slo_met);  // an SLO over zero requests is vacuously met
  const rt::TenantSloRow& d = report.tenants[1];
  EXPECT_GT(d.arrivals, 0);
  EXPECT_EQ(d.completions, d.arrivals);
  EXPECT_DOUBLE_EQ(d.violation_fraction, 1.0);
  EXPECT_FALSE(d.slo_met);
  // The rendered table flags the violator.
  const std::string table = report.TenantTable();
  EXPECT_NE(table.find("doomed"), std::string::npos);
  EXPECT_NE(table.find("NO"), std::string::npos);
  EXPECT_NE(report.ToString().find("doomed"), std::string::npos);
}

// Tier isolation, the tentpole property: a high-priority tenant keeps its
// SLO while low-tier tenants offer more load than the machine can serve.
TEST(TrafficSlo, HighTierMeetsSloUnderSaturatingLowTierLoad) {
  rt::HarnessConfig config;
  config.processors = 16;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  TrafficConfig tc;
  tc.seed = 17;
  tc.horizon = sim::Sec(1);
  tc.drain = sim::Msec(300);
  TenantSpec hi;
  hi.name = "hi";
  hi.priority = 2;
  hi.arrivals.rate = 200.0;
  hi.mix = {RequestClass{"req", 1.0, sim::Msec(1), RequestClass::Dist::kFixed, 0}};
  hi.slo.latency = sim::Msec(20);
  hi.slo.quantile = 0.99;
  tc.tenants.push_back(hi);
  // 12 low-tier tenants at ~2 processor-seconds/second each: offered load
  // ~24 processors on a 16-processor machine.
  for (int i = 0; i < 12; ++i) {
    TenantSpec low;
    low.name = std::string("low").append(std::to_string(i));
    low.priority = 0;
    low.arrivals.rate = 200.0;
    low.mix = {RequestClass{"req", 1.0, sim::Msec(10), RequestClass::Dist::kFixed, 0}};
    low.slo.latency = sim::Msec(50);
    tc.tenants.push_back(low);
  }
  TrafficGenerator gen(&h, tc);
  h.Run();

  rt::RunReport report = rt::MakeReport(h);
  ASSERT_EQ(report.tenants.size(), 13u);
  const rt::TenantSloRow& top = report.tenants[0];
  EXPECT_EQ(top.tier, 2);
  EXPECT_GT(top.completions, 0);
  EXPECT_TRUE(top.slo_met) << report.TenantTable();
  EXPECT_LE(top.p999, sim::Msec(20)) << report.TenantTable();
  // The machine really was saturated: low tier left work unserved or
  // violated its own SLO somewhere.
  int64_t low_unserved = 0;
  int64_t low_violations = 0;
  for (size_t i = 1; i < report.tenants.size(); ++i) {
    low_unserved += report.tenants[i].unserved;
    low_violations += report.tenants[i].violation_fraction > 0.0 ? 1 : 0;
  }
  EXPECT_GT(low_unserved + low_violations, 0) << report.TenantTable();
}

// ---------------------------------------------------------------------------
// Zero-perturbation: an *inactive* generator (no tenants) must not perturb a
// seeded SA-protocol trace at all — same machine, same events, same bytes.
// ---------------------------------------------------------------------------

std::vector<trace::Record> RunSeededSaWorkload(bool attach_inactive_generator) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = 11;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kAll);
  TrafficGenerator* gen = nullptr;
  TrafficConfig inactive;  // no tenants: active() == false
  if (attach_inactive_generator) {
    gen = new TrafficGenerator(&h, inactive);
  }
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  ult::UltRuntime sa1(&h.kernel(), "sa1", ult::BackendKind::kSchedulerActivations, uc);
  rt::TopazRuntime kt(&h.kernel(), "kt");
  h.AddRuntime(&sa1);
  h.AddRuntime(&kt);
  h.AddDaemon("daemon", sim::Msec(2), sim::Usec(200));
  for (int i = 0; i < 8; ++i) {
    auto body = [i](rt::ThreadCtx& t) -> sim::Program {
      for (int k = 0; k < 12; ++k) {
        co_await t.Compute(sim::Usec(50 + 9 * (i % 4)));
        if ((k + i) % 3 == 0) {
          co_await t.Io(sim::Usec(70));
        }
      }
    };
    sa1.Spawn(body, std::string("a").append(std::to_string(i)));
    if (i % 2 == 0) {
      kt.Spawn(body, std::string("k").append(std::to_string(i)));
    }
  }
  h.Run();
  std::vector<trace::Record> records = h.trace()->Snapshot();
  delete gen;
  return records;
}

TEST(TrafficZeroPerturbation, InactiveGeneratorLeavesSeededTraceByteIdentical) {
  const std::vector<trace::Record> without = RunSeededSaWorkload(false);
  const std::vector<trace::Record> with = RunSeededSaWorkload(true);
  ASSERT_GT(without.size(), 0u);
  ASSERT_EQ(without.size(), with.size());
  for (size_t i = 0; i < without.size(); ++i) {
    const trace::Record& a = without[i];
    const trace::Record& b = with[i];
    const bool same = a.ts == b.ts && a.cpu == b.cpu && a.as_id == b.as_id &&
                      a.kind == b.kind && a.arg0 == b.arg0 && a.arg1 == b.arg1;
    ASSERT_TRUE(same) << "trace diverged at record " << i << ": t=" << a.ts
                      << " vs t=" << b.ts;
  }
}

}  // namespace
}  // namespace sa::traffic
