// Heartbeat-promoted lazy forking ablation (DESIGN.md §17): the N-body
// application run eager vs lazy (ForkLazy + heartbeat) at several task
// grains on original FastThreads with every vcpu bound to the application.
// Lazy forking's claim is the paper's fork-cost story taken to its limit:
// a fork that nobody steals should cost a procedure call, not a TCB — so
// the finer the grain, the larger the win, with no utilization loss because
// the heartbeat and dry stealers re-inflate exactly as much parallelism as
// the processors can use.
//
// Exits non-zero unless the gates hold:
//   1. at the finest grain, lazy per-fork overhead is >= 5x lower;
//   2. lazy user utilization is within 3 points of eager at every grain.
// (That arming the heartbeat with the lazy API unused leaves seeded traces
// byte-identical is heartbeat_test's zero-perturbation test.)
//
// Usage: bench_heartbeat [--smoke] [out.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/apps/nbody_workload.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

struct CellResult {
  sim::Duration elapsed = 0;
  int64_t tasks = 0;
  sim::Duration mgmt = 0;  // UltCounters::mgmt_time, summed over seeds
  sim::Duration fork = 0;  // UltCounters::fork_time (the fork-attributable slice)
  int64_t lazy_promotions = 0;
  int64_t lazy_steal_promotions = 0;
  int64_t lazy_inlines = 0;
  double utilization_sum = 0;
  int runs = 0;

  double MgmtPerTaskUs() const {
    return tasks == 0 ? 0.0
                      : static_cast<double>(mgmt) / 1000.0 /
                            static_cast<double>(tasks);
  }
  // Per-fork overhead: fork-attributable management time per task (every
  // task is one fork, eager or lazy).
  double ForkPerTaskUs() const {
    return tasks == 0 ? 0.0
                      : static_cast<double>(fork) / 1000.0 /
                            static_cast<double>(tasks);
  }
  double Utilization() const {
    return runs == 0 ? 0.0 : utilization_sum / runs;
  }
};

// One seeded N-body run on original FastThreads (user-level threads on
// kernel threads, native oblivious kernel) with the machine sized to the
// application: all vcpus bound, no daemons — management overhead and
// utilization reflect the fork discipline alone.
void RunCell(bool lazy, int chunk, int64_t heartbeat_us, uint64_t seed,
             int bodies, int steps, CellResult* out) {
  rt::HarnessConfig hc;
  hc.processors = 4;
  hc.seed = seed;
  hc.kernel.mode = kern::KernelMode::kNativeTopaz;
  rt::Harness h(hc);
  ult::UltConfig uc;
  uc.max_vcpus = hc.processors;
  uc.heartbeat_us = heartbeat_us;
  ult::UltRuntime ft(&h.kernel(), "nbody", ult::BackendKind::kKernelThreads,
                     uc);
  h.AddRuntime(&ft);

  apps::NBodyConfig nc;
  nc.bodies = bodies;
  nc.steps = steps;
  nc.chunk = chunk;
  nc.lazy_fork = lazy;
  nc.seed = seed * 101 + 7;
  apps::NBodyApp app(nc);
  app.set_clock(&h.engine());
  app.InstallOn(&ft);
  h.Run();

  const ult::UltCounters& c = ft.fast_threads().counters();
  const rt::RunReport report = rt::MakeReport(h);
  out->elapsed += app.finished_at();
  out->tasks += app.total_tasks_run();
  out->mgmt += c.mgmt_time;
  out->fork += c.fork_time;
  out->lazy_promotions += c.lazy_promotions;
  out->lazy_steal_promotions += c.lazy_steal_promotions;
  out->lazy_inlines += c.lazy_inlines;
  out->utilization_sum += report.UserUtilization();
  out->runs += 1;
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  sa::bench::Record record("heartbeat", argc, argv, sa::bench::Sizes::kWithSmoke);
  const bool smoke = record.smoke();
  const int bodies = smoke ? 96 : 300;
  const int steps = smoke ? 2 : 3;
  // The heartbeat is a liveness backstop, not the parallelism engine:
  // processor-demand promotion (a dry stealer, or an idle vcpu noticed at
  // push time) re-inflates parallelism the moment a processor starves, so
  // the period only has to bound worst-case promotion latency.
  // Amortization wants it well above the ~60 us full fork cost (5 ms ->
  // ~1% of a processor spent on beat-promotions); a period below the task
  // grain degenerates into promoting every frame, paying eager cost plus
  // the push.
  const int64_t heartbeat_us = 5000;
  const std::vector<int> grains = {12, 3, 1};  // finest last
  const std::vector<uint64_t> seeds = smoke ? std::vector<uint64_t>{5}
                                            : std::vector<uint64_t>{5, 23, 41};

  std::printf(
      "Heartbeat ablation: %d bodies x %d steps, 4 bound processors, "
      "grains {12,3,1}, heartbeat %lld us, %zu seeds%s\n\n",
      bodies, steps, static_cast<long long>(heartbeat_us), seeds.size(),
      smoke ? " (smoke)" : "");

  std::vector<sa::CellResult> eager(grains.size());
  std::vector<sa::CellResult> lazy(grains.size());
  for (size_t i = 0; i < grains.size(); ++i) {
    for (uint64_t seed : seeds) {
      sa::RunCell(/*lazy=*/false, grains[i], /*heartbeat_us=*/0, seed, bodies,
                  steps, &eager[i]);
      sa::RunCell(/*lazy=*/true, grains[i], heartbeat_us, seed, bodies, steps,
                  &lazy[i]);
    }
  }

  auto& t = record.AddTable(
      "cells", {{"grain"}, {"mode"}, {"elapsed_ms", 3}, {"tasks"},
                {"fork_per_task_us", 2}, {"mgmt_per_task_us", 2}, {"lazy_promotions"},
                {"lazy_steal_promotions"}, {"lazy_inlines"}, {"user_utilization_pct", 1}});
  for (size_t i = 0; i < grains.size(); ++i) {
    for (const sa::CellResult* c : {&eager[i], &lazy[i]}) {
      t.Row({grains[i], c == &eager[i] ? "eager" : "lazy",
             sa::sim::ToMsec(c->elapsed) / c->runs, c->tasks, c->ForkPerTaskUs(),
             c->MgmtPerTaskUs(), c->lazy_promotions, c->lazy_steal_promotions,
             c->lazy_inlines, 100.0 * c->Utilization()});
    }
  }
  t.Print();
  std::printf("\n");

  // Gate 1: at the finest grain the lazy discipline must beat eager forking
  // on per-fork overhead by at least 5x (fork-attributable time per task;
  // mode-independent costs like locks and joins are excluded).
  const sa::CellResult& ef = eager.back();
  const sa::CellResult& lf = lazy.back();
  const double ratio = lf.ForkPerTaskUs() > 0
                           ? ef.ForkPerTaskUs() / lf.ForkPerTaskUs()
                           : 0.0;
  record.Gate(ratio >= 5.0, "finest grain per-fork overhead: eager " +
                                sa::common::Table::Num(ef.ForkPerTaskUs(), 2) +
                                " us vs lazy " +
                                sa::common::Table::Num(lf.ForkPerTaskUs(), 2) + " us (" +
                                sa::common::Table::Num(ratio, 1) + "x >= 5x)");
  // Gate 2: deferring forks must not cost parallelism — utilization within
  // 3 points of eager at every grain.
  for (size_t i = 0; i < grains.size(); ++i) {
    record.Gate(eager[i].Utilization() - lazy[i].Utilization() <= 0.03,
                "grain " + std::to_string(grains[i]) + ": lazy utilization " +
                    sa::common::Table::Num(100.0 * lazy[i].Utilization(), 1) +
                    "% within 3 points of eager " +
                    sa::common::Table::Num(100.0 * eager[i].Utilization(), 1) + "%");
  }
  return record.Finish();
}
