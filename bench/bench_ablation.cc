// Ablations of the design choices DESIGN.md calls out (none of these tables
// appear in the paper; they quantify the mechanisms Sections 3-4 argue for):
//
//  * activation recycling (Section 4.3) on/off, on an I/O-heavy workload;
//  * idle hysteresis (Section 4.2) on/off, under multiprogramming;
//  * untuned vs tuned upcall paths on the I/O-bound N-body run;
//  * flag-based vs zero-overhead critical sections on the N-body run.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/experiments.h"
#include "src/rt/harness.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

// I/O-heavy microworkload: k threads looping compute+I/O on one processor.
double RunIoHeavySeconds(bool recycle) {
  rt::HarnessConfig config;
  config.processors = 1;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.recycle_activations = recycle;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime ft(&h.kernel(), "bench", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&ft);
  for (int i = 0; i < 4; ++i) {
    ft.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 50; ++k) {
            co_await t.Compute(sim::Usec(400));
            co_await t.Io(sim::Msec(2));
          }
        },
        "io-loop");
  }
  return sim::ToSec(h.Run());
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  sa::bench::Record record("ablation", argc, argv);
  using sa::apps::SystemKind;
  sa::apps::DaemonConfig daemons;

  std::printf("Ablation benches (design choices from DESIGN.md)\n\n");

  {
    std::printf("1. Activation recycling (Section 4.3), I/O-heavy workload, 1 processor:\n");
    auto& t = record.AddTable("recycling", {{"recycling"}, {"elapsed_s", 3}});
    t.Row({"on (default)", sa::RunIoHeavySeconds(true)});
    t.Row({"off (fresh allocation per upcall)", sa::RunIoHeavySeconds(false)});
    t.Print();
  }

  {
    std::printf("\n2. Upcall tuning (Section 5.2), N-body at 50%% memory, 6 processors:\n");
    auto& t = record.AddTable("upcall_tuning", {{"upcall_path"}, {"elapsed_s", 3}});
    sa::apps::NBodyConfig nc;
    nc.memory_percent = 50;
    for (const bool tuned : {false, true}) {
      sa::kern::Config kc;
      kc.tuned_upcalls = tuned;
      t.Row({tuned ? "tuned projection" : "untuned prototype",
             sa::sim::ToSec(
                 sa::apps::RunNBody(SystemKind::kNewFastThreads, 6, nc, daemons, 1, 7, kc)
                     .elapsed)});
    }
    t.Print();
  }

  {
    std::printf("\n3. Idle hysteresis (Section 4.2), multiprogrammed N-body (2 copies):\n");
    auto& t = record.AddTable("idle_hysteresis", {{"hysteresis_ms"}, {"avg_speedup", 2}});
    sa::apps::NBodyConfig nc;
    for (long ms : {0, 5, 20}) {  // 0: notify immediately
      sa::kern::Config kc;
      kc.costs.idle_hysteresis = sa::sim::Msec(ms);
      t.Row({ms, sa::apps::RunNBody(SystemKind::kNewFastThreads, 6, nc, daemons, 2, 7, kc)
                     .speedup});
    }
    t.Print();
  }

  {
    std::printf("\n4. Critical-section strategy (Section 4.3), N-body 6 processors:\n");
    std::printf("   (flag-based marking taxes every thread operation; the paper's\n");
    std::printf("    copied-critical-section scheme costs nothing unless preempted)\n");
    auto& t = record.AddTable("critical_sections", {{"strategy"}, {"speedup", 2}});
    sa::apps::NBodyConfig nc;
    for (const bool flag_based : {false, true}) {
      t.Row({flag_based ? "flag-based marking" : "zero-overhead (default)",
             sa::apps::RunNBody(SystemKind::kNewFastThreads, 6, nc, daemons, 1, 7, {},
                                flag_based)
                 .speedup});
    }
    t.Print();
    std::printf("   (see bench_table4 for the per-operation cost: 37->49 / 42->48 usec)\n");
  }

  return record.Finish();
}
