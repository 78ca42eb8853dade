// Datacenter-shaped multi-tenant simulation (DESIGN.md §15): hundreds of
// kernel-thread tenant spaces at three priority tiers, driven in open loop
// by src/traffic/ across a {processors} x {tenants} x {arrival pattern}
// grid, with per-tenant SLO accounting from RunReport.
//
// The low tier always offers ~1.5x the machine's capacity, so the grid
// measures exactly the paper's multiprogramming claim at cluster scale: the
// explicit processor allocator must keep high-priority tenants inside their
// latency SLOs while the low tier saturates and sheds load.
//
// Exits non-zero unless, in every >=256-processor x >=256-tenant cell, all
// high-tier tenants meet their p-quantile latency SLO while the low tier
// shows saturation (>=20% of its requests unserved or over its own SLO).
// --smoke still includes the 256x256 gate cells.  (Arrival determinism and
// the inactive generator's zero perturbation are traffic_test's.)
//
// Usage: bench_multitenant [--smoke] [out.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/traffic/traffic.h"

namespace sa {
namespace {

enum class Pattern { kPoisson, kBursty };

const char* PatternName(Pattern p) {
  return p == Pattern::kPoisson ? "poisson" : "bursty";
}

// Three tiers: ~1/16 high-priority latency-sensitive tenants, ~1/4 mid-tier
// with a diurnal ramp, the rest low-tier batch offering ~1.5x capacity.
traffic::TrafficConfig MakeConfig(int processors, int tenants, Pattern pattern,
                                  sim::Duration horizon, uint64_t seed) {
  traffic::TrafficConfig tc;
  tc.seed = seed;
  tc.horizon = horizon;
  tc.drain = sim::Msec(300);

  const int hi = std::max(1, tenants / 16);
  const int mid = std::max(1, tenants / 4);
  const int low = std::max(1, tenants - hi - mid);

  for (int i = 0; i < hi; ++i) {
    traffic::TenantSpec t;
    t.name = "hi" + std::to_string(i);
    t.priority = 2;
    t.arrivals.rate = 50.0;
    t.mix = {traffic::RequestClass{"rpc", 1.0, sim::Msec(1),
                                   traffic::RequestClass::Dist::kExponential, 0}};
    t.slo.latency = sim::Msec(20);
    t.slo.quantile = 0.99;
    tc.tenants.push_back(t);
  }
  // Mid tier: ~0.3x capacity in aggregate, shaped by a diurnal ramp.
  const double mid_rate = 0.3 * processors / (mid * 0.005);
  for (int i = 0; i < mid; ++i) {
    traffic::TenantSpec t;
    t.name = "mid" + std::to_string(i);
    t.priority = 1;
    t.arrivals.rate = mid_rate;
    t.ramp.period = sim::Msec(500);
    t.ramp.points = {{0, 0.5}, {sim::Msec(250), 1.5}};
    t.mix = {traffic::RequestClass{"job", 1.0, sim::Msec(5),
                                   traffic::RequestClass::Dist::kFixed, 0}};
    t.slo.latency = sim::Msec(100);
    t.slo.quantile = 0.99;
    tc.tenants.push_back(t);
  }
  // Low tier: ~1.5x capacity in aggregate — deliberately unserviceable.
  const double low_rate = 1.5 * processors / (low * 0.010);
  for (int i = 0; i < low; ++i) {
    traffic::TenantSpec t;
    t.name = "low" + std::to_string(i);
    t.priority = 0;
    t.arrivals.rate = low_rate;
    if (pattern == Pattern::kBursty) {
      t.arrivals.kind = traffic::ArrivalSpec::Kind::kOnOff;
      t.arrivals.rate = low_rate * 2.5;  // same mean load, bursty shape
      t.arrivals.on_mean = sim::Msec(40);
      t.arrivals.off_mean = sim::Msec(60);
    }
    t.mix = {traffic::RequestClass{"batch", 1.0, sim::Msec(10),
                                   traffic::RequestClass::Dist::kFixed,
                                   i % 4 == 0 ? sim::Msec(1) : 0}};
    t.slo.latency = sim::Msec(200);
    t.slo.quantile = 0.9;
    tc.tenants.push_back(t);
  }
  return tc;
}

struct CellResult {
  int processors = 0;
  int tenants = 0;
  Pattern pattern = Pattern::kPoisson;
  int64_t arrivals = 0;
  int64_t completions = 0;
  int64_t unserved = 0;
  // High tier.
  int hi_tenants = 0;
  int hi_met = 0;
  int64_t hi_worst_p999 = 0;
  // Low tier saturation evidence.
  int64_t low_arrivals = 0;
  int64_t low_bad = 0;  // unserved + completed-over-SLO (approx: violations)
  double low_bad_fraction = 0.0;
  sim::Time virtual_end = 0;
  double wall_sec = 0.0;
};

CellResult RunCell(int processors, int tenants, Pattern pattern,
                   sim::Duration horizon, uint64_t seed) {
  CellResult out;
  out.processors = processors;
  out.tenants = tenants;
  out.pattern = pattern;

  rt::HarnessConfig config;
  config.processors = processors;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  traffic::TrafficGenerator gen(
      &h, MakeConfig(processors, tenants, pattern, horizon, seed));
  const auto t0 = std::chrono::steady_clock::now();
  out.virtual_end = h.Run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_sec =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();

  rt::RunReport report = rt::MakeReport(h);
  for (const rt::TenantSloRow& row : report.tenants) {
    out.arrivals += row.arrivals;
    out.completions += row.completions;
    out.unserved += row.unserved;
    if (row.tier == 2) {
      ++out.hi_tenants;
      out.hi_met += row.slo_met ? 1 : 0;
      out.hi_worst_p999 = std::max(out.hi_worst_p999, row.p999);
    } else if (row.tier == 0) {
      out.low_arrivals += row.arrivals;
      // violation_fraction already counts censored (unserved-past-bound)
      // requests, so it is the full badness numerator on its own.
      out.low_bad += static_cast<int64_t>(row.violation_fraction *
                                          static_cast<double>(row.arrivals));
    }
  }
  out.low_bad_fraction =
      out.low_arrivals > 0
          ? static_cast<double>(out.low_bad) / static_cast<double>(out.low_arrivals)
          : 0.0;
  return out;
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  sa::bench::Record record("multitenant", argc, argv, sa::bench::Sizes::kWithSmoke);
  const bool smoke = record.smoke();
  const sa::sim::Duration horizon = smoke ? sa::sim::Msec(500) : sa::sim::Sec(1);
  std::printf("Multi-tenant open-loop traffic: low tier offers 1.5x capacity, "
              "horizon %s%s\n\n",
              sa::sim::FormatDuration(horizon).c_str(), smoke ? " (smoke)" : "");

  // Grid.  Smoke keeps only the acceptance cells (256 processors x 256
  // tenants, both arrival patterns); the full grid spans 64..512 processors
  // and 16..1024 tenants.
  std::vector<std::pair<int, int>> grid;
  if (smoke) {
    grid = {{256, 256}};
  } else {
    for (int processors : {64, 256, 512}) {
      for (int tenants : {16, 256, 1024}) {
        grid.push_back({processors, tenants});
      }
    }
  }
  auto& t = record.AddTable(
      "cells", {{"processors"}, {"tenants"}, {"pattern"}, {"arrivals"}, {"completions"},
                {"unserved"}, {"hi_tenants"}, {"hi_met"}, {"hi_worst_p999_ms", 3},
                {"low_bad_pct", 1}, {"virtual_ms", 1}, {"wall_s", 2}});
  int gate_cells = 0;
  bool hi_met = true;
  double low_bad_min = 1.0;
  for (const auto& [processors, tenants] : grid) {
    for (const sa::Pattern pattern : {sa::Pattern::kPoisson, sa::Pattern::kBursty}) {
      const sa::CellResult c = sa::RunCell(processors, tenants, pattern, horizon, 21);
      t.Row({c.processors, c.tenants, sa::PatternName(c.pattern), c.arrivals,
             c.completions, c.unserved, c.hi_tenants, c.hi_met,
             sa::sim::ToMsec(c.hi_worst_p999), 100.0 * c.low_bad_fraction,
             sa::sim::ToMsec(c.virtual_end), c.wall_sec});
      if (c.processors >= 256 && c.tenants >= 256) {
        ++gate_cells;
        hi_met = hi_met && c.hi_met == c.hi_tenants;
        low_bad_min = std::min(low_bad_min, c.low_bad_fraction);
      }
    }
  }
  t.Print();
  std::printf("\n");

  const std::string where = " in all " + std::to_string(gate_cells) + " >=256x256 cells";
  record.Gate(gate_cells > 0 && hi_met, "every high-tier tenant met its SLO" + where);
  record.Gate(gate_cells > 0 && low_bad_min >= 0.2,
              "low tier saturated (min " + sa::common::Table::Num(100.0 * low_bad_min, 1) +
                  "% >= 20% unserved or over SLO)" + where);
  return record.Finish();
}
