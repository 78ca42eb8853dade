// Reproduces Figure 1: speedup of the N-body application versus the number
// of processors, with 100% of memory available, uniprogrammed (plus the
// Topaz daemon threads).
//
// Paper shape: all three systems are below 1.0 on one processor (thread
// management overhead); the two user-level-thread systems climb nearly
// linearly to ~4.5+ on six processors while Topaz kernel threads flatten
// out around 2.5-3; original and modified FastThreads track each other
// closely, diverging slightly where daemon wakeups preempt the original
// system's virtual processors.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/experiments.h"

int main(int argc, char** argv) {
  sa::bench::Record record("fig1", argc, argv);
  using sa::apps::SystemKind;

  std::printf("Figure 1: Speedup of N-Body Application vs. Number of Processors\n");
  std::printf("(100%% of memory available, uniprogrammed; speedup relative to a\n");
  std::printf(" sequential implementation of the same computation)\n\n");

  const SystemKind systems[] = {SystemKind::kTopazThreads, SystemKind::kOrigFastThreads,
                                SystemKind::kNewFastThreads};

  auto& table = record.AddTable("speedup", {{"processors"},
                                            {"topaz_threads", 2},
                                            {"orig_fastthreads", 2},
                                            {"new_fastthreads", 2}});
  sa::apps::NBodyConfig config;
  sa::apps::DaemonConfig daemons;

  double results[7][3] = {};
  for (int p = 1; p <= 6; ++p) {
    for (int s = 0; s < 3; ++s) {
      const auto r = sa::apps::RunNBody(systems[s], p, config, daemons, 1, 7);
      results[p][s] = r.speedup;
    }
    table.Row({p, results[p][0], results[p][1], results[p][2]});
  }
  table.Print();

  std::printf("\nPaper's qualitative checks:\n");
  record.Gate(results[1][0] < 1 && results[1][1] < 1 && results[1][2] < 1,
              "all systems < 1.0 at one processor");
  record.Gate(results[6][0] < 3.2, "Topaz flattens (speedup[6] < 3.2): " +
                                       sa::common::Table::Num(results[6][0], 2));
  record.Gate(results[6][1] > 4 && results[6][2] > 4,
              "user-level systems reach > 4 at 6 procs");
  std::printf("user-level vs Topaz advantage at 6 procs: %.1fx (paper ~1.8x)\n",
              results[6][2] / results[6][0]);
  return record.Finish();
}
