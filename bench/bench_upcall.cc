// Reproduces Section 5.2 (upcall performance): the time for two user-level
// threads to signal-wait through the kernel — forcing the full scheduler-
// activation machinery (block in the kernel, blocked upcall, wakeup,
// unblocked upcall) on every iteration.
//
// Paper: 2.4 ms on the untuned prototype — "a factor of five worse than
// Topaz threads" (441 us) — attributed to the upcall path being unoptimized
// Modula-2+ built as a quick modification of the Topaz thread layer; "if
// tuned, we expect upcall performance commensurate with Topaz kernel thread
// performance".

#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/micro.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

double RunSaKernelSignalWait(bool tuned, int iters) {
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.tuned_upcalls = tuned;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "bench", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  apps::SpawnSignalWait(&ft, iters, /*through_kernel=*/true);
  return apps::MeasureSignalWaitUs(h, iters);
}

double RunTopazSignalWait(int iters) {
  rt::HarnessConfig config;
  config.processors = 1;
  rt::Harness h(config);
  rt::TopazRuntime rt(&h.kernel(), "bench");
  h.AddRuntime(&rt);
  apps::SpawnSignalWait(&rt, iters, /*through_kernel=*/false);
  return apps::MeasureSignalWaitUs(h, iters);
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  sa::bench::Record record("upcall", argc, argv);
  constexpr int kIters = 5000;

  std::printf("Section 5.2: Upcall Performance\n");
  std::printf("(signal-wait forced through the kernel; paper: 2.4 ms untuned,\n");
  std::printf(" a factor of ~5 worse than Topaz threads' 441 us)\n\n");

  const double topaz = sa::RunTopazSignalWait(kIters);
  const double untuned = sa::RunSaKernelSignalWait(false, kIters);
  const double tuned = sa::RunSaKernelSignalWait(true, kIters);

  auto& table = record.AddTable(
      "signal_wait", {{"system"}, {"signal_wait_us"}, {"vs_topaz_threads", 1}});
  table.Row({"Topaz kernel threads", topaz, 1.0});
  table.Row({"Scheduler activations (untuned prototype)", untuned, untuned / topaz});
  table.Row({"Scheduler activations (tuned projection)", tuned, tuned / topaz});
  table.Print();

  std::printf(
      "\nNote: the blocked and unblocked notifications of each iteration are\n"
      "combined into a single upcall (the paper's own combining rule); the\n"
      "untuned per-upcall cost is calibrated to reproduce the published 2.4 ms.\n");
  return record.Finish();
}
