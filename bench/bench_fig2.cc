// Reproduces Figure 2: execution time of the N-body application versus the
// amount of available memory (buffer-cache size), on six processors.
//
// Paper shape: performance degrades slowly at first and more sharply as the
// working set stops fitting; original FastThreads degrades fastest because a
// user-level thread that misses in the cache blocks its virtual processor's
// kernel thread — the address space loses that physical processor for the
// whole 50 ms I/O.  Modified FastThreads (scheduler activations) and Topaz
// threads both overlap I/O with computation.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/experiments.h"

int main(int argc, char** argv) {
  sa::bench::Record record("fig2", argc, argv);
  using sa::apps::SystemKind;

  std::printf("Figure 2: Execution Time of N-Body Application vs. Amount of\n");
  std::printf("Available Memory (6 processors; buffer-cache miss blocks 50 ms)\n\n");

  const SystemKind systems[] = {SystemKind::kTopazThreads, SystemKind::kOrigFastThreads,
                                SystemKind::kNewFastThreads};
  const double memory[] = {100, 90, 80, 70, 60, 50, 40};

  auto& table = record.AddTable("elapsed_s", {{"memory_pct"},
                                              {"topaz_threads", 2},
                                              {"orig_fastthreads", 2},
                                              {"new_fastthreads", 2},
                                              {"new_fastthreads_misses"}});
  sa::apps::DaemonConfig daemons;

  double first[3] = {}, last[3] = {};
  for (double m : memory) {
    double row[3];
    int64_t misses = 0;
    for (int s = 0; s < 3; ++s) {
      sa::apps::NBodyConfig config;
      config.memory_percent = m;
      const auto r = sa::apps::RunNBody(systems[s], 6, config, daemons, 1, 7);
      row[s] = sa::sim::ToSec(r.elapsed);
      if (s == 2) {
        misses = r.cache_misses;
      }
      if (m == 100) {
        first[s] = row[s];
      }
      last[s] = row[s];
    }
    table.Row({m, row[0], row[1], row[2], misses});
  }
  table.Print();

  std::printf("\nPaper's qualitative checks:\n");
  record.Gate((last[1] / first[1]) > (last[2] / first[2]),
              "orig FastThreads degrades fastest: " +
                  sa::common::Table::Num(100 * (last[1] / first[1] - 1)) + "% vs " +
                  sa::common::Table::Num(100 * (last[2] / first[2] - 1)) + "% for new FT");
  // At 100% memory original FastThreads is marginally faster (it pays no
  // scheduler-activation bookkeeping), just as in the paper's Figure 1; the
  // new system must win everywhere I/O is involved.
  record.Gate(last[2] <= last[0] && last[2] <= last[1],
              "new FastThreads fastest once I/O appears");
  return record.Finish();
}
