// Reproduces Table 4: Thread Operation Latencies (usec.) with scheduler
// activations, plus the Section 4.3 ablation (flag-based critical sections).
//
//                FastThreads on    FastThreads on      Topaz     Ultrix
//                Topaz threads     Sched. Activations  threads   processes
//   Null Fork         34                 37              948      11300
//   Signal-Wait       37                 42              441       1840
//
// Removing the zero-overhead critical-section optimization (marking every
// internal critical section with an explicit flag) degrades the scheduler-
// activation numbers to 49 / 48 (Section 5.1).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/micro.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

enum class Bench { kNullFork, kSignalWait };

double RunUlt(Bench bench, int n, ult::BackendKind backend, bool flag_cs) {
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = backend == ult::BackendKind::kSchedulerActivations
                           ? kern::KernelMode::kSchedulerActivations
                           : kern::KernelMode::kNativeTopaz;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  uc.flag_based_critical_sections = flag_cs;
  ult::UltRuntime ft(&h.kernel(), "bench", backend, uc);
  h.AddRuntime(&ft);
  if (bench == Bench::kNullFork) {
    apps::SpawnNullFork(&ft, n, h.kernel().costs().procedure_call);
    return apps::MeasureNullForkUs(h, n);
  }
  apps::SpawnSignalWait(&ft, n, /*through_kernel=*/false);
  return apps::MeasureSignalWaitUs(h, n);
}

double RunKernel(Bench bench, int n, bool heavyweight) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "bench", heavyweight);
  h.AddRuntime(&rt);
  if (bench == Bench::kNullFork) {
    apps::SpawnNullFork(&rt, n, h.kernel().costs().procedure_call);
    return apps::MeasureNullForkUs(h, n);
  }
  apps::SpawnSignalWait(&rt, n, /*through_kernel=*/false);
  return apps::MeasureSignalWaitUs(h, n);
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  sa::bench::Record record("table4", argc, argv);
  using sa::ult::BackendKind;
  constexpr int kIters = 20000;
  constexpr int kProcIters = 2000;

  std::printf("Table 4: Thread Operation Latencies (usec.)\n");
  std::printf("(paper: 34/37 | 37/42 | 948/441 | 11300/1840)\n\n");

  auto& table = record.AddTable(
      "latency_us", {{"operation"}, {"fastthreads_on_topaz_threads"},
                     {"fastthreads_on_scheduler_activations"}, {"topaz_threads"},
                     {"ultrix_processes"}});
  for (const sa::Bench bench : {sa::Bench::kNullFork, sa::Bench::kSignalWait}) {
    table.Row({bench == sa::Bench::kNullFork ? "Null Fork" : "Signal-Wait",
               sa::RunUlt(bench, kIters, BackendKind::kKernelThreads, false),
               sa::RunUlt(bench, kIters, BackendKind::kSchedulerActivations, false),
               sa::RunKernel(bench, kIters, false),
               sa::RunKernel(bench, kProcIters, true)});
  }
  table.Print();

  std::printf(
      "\nAblation (Section 4.3/5.1): flag-based critical-section marking instead of\n"
      "the zero-overhead copied-critical-section scheme (paper: 49 / 48):\n\n");
  auto& ablation = record.AddTable(
      "critical_sections_us", {{"operation"}, {"zero_overhead"}, {"flag_based"}});
  for (const sa::Bench bench : {sa::Bench::kNullFork, sa::Bench::kSignalWait}) {
    ablation.Row({bench == sa::Bench::kNullFork ? "Null Fork" : "Signal-Wait",
                  sa::RunUlt(bench, kIters, BackendKind::kSchedulerActivations, false),
                  sa::RunUlt(bench, kIters, BackendKind::kSchedulerActivations, true)});
  }
  ablation.Print();
  return record.Finish();
}
