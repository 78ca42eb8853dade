// Reproduces Table 1: Thread Operation Latencies (usec).
//
//                       FastThreads   Topaz threads   Ultrix processes
//   Null Fork               34             948            11300
//   Signal-Wait             37             441             1840
//
// Each number is measured end to end through the simulated machine on one
// processor, exactly like the paper's benchmark (averaged over repetitions).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/micro.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

rt::HarnessConfig OneProc(kern::KernelMode mode) {
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = mode;
  return config;
}

enum class Bench { kNullFork, kSignalWait };

double RunFastThreads(Bench bench, int n) {
  rt::Harness h(OneProc(kern::KernelMode::kNativeTopaz));
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "bench", ult::BackendKind::kKernelThreads, uc);
  h.AddRuntime(&ft);
  if (bench == Bench::kNullFork) {
    apps::SpawnNullFork(&ft, n, h.kernel().costs().procedure_call);
    return apps::MeasureNullForkUs(h, n);
  }
  apps::SpawnSignalWait(&ft, n, /*through_kernel=*/false);
  return apps::MeasureSignalWaitUs(h, n);
}

double RunKernel(Bench bench, int n, bool heavyweight) {
  rt::Harness h(OneProc(kern::KernelMode::kNativeTopaz));
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
  sa::bench::Record record("table1", argc, argv);
  constexpr int kIters = 20000;
  constexpr int kProcIters = 2000;

  std::printf("Table 1: Thread Operation Latencies (usec.)\n");
  std::printf("(paper: Null Fork 34 / 948 / 11300; Signal-Wait 37 / 441 / 1840)\n\n");

  auto& table = record.AddTable(
      "latency_us", {{"operation"}, {"fastthreads"}, {"topaz_threads"}, {"ultrix_processes"}});
  table.Row({"Null Fork", sa::RunFastThreads(sa::Bench::kNullFork, kIters),
             sa::RunKernel(sa::Bench::kNullFork, kIters, false),
             sa::RunKernel(sa::Bench::kNullFork, kProcIters, true)});
  table.Row({"Signal-Wait", sa::RunFastThreads(sa::Bench::kSignalWait, kIters),
             sa::RunKernel(sa::Bench::kSignalWait, kIters, false),
             sa::RunKernel(sa::Bench::kSignalWait, kProcIters, true)});
  table.Print();

  std::printf("\nReference: procedure call ~7 usec., kernel trap ~19 usec. (Section 2.1)\n");
  return record.Finish();
}
