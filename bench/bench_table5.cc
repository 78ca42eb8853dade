// Reproduces Table 5: Speedup of the N-body application with
// multiprogramming level 2 (two simultaneous copies) on six processors,
// 100% of memory available.  A speedup of 3.0 per copy would be the maximum
// possible.
//
// Paper: Topaz threads 1.29, original FastThreads 1.26, new FastThreads
// 2.45 — the scheduler-activation system is within 5% of its own
// uniprogrammed three-processor speedup, while both baselines collapse
// (oblivious time-slicing preempts lock holders and schedules idle virtual
// processors over busy ones).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/apps/experiments.h"

int main(int argc, char** argv) {
  sa::bench::Record record("table5", argc, argv);
  using sa::apps::SystemKind;

  std::printf("Table 5: Speedup for N-Body Application, Multiprogramming Level = 2,\n");
  std::printf("6 Processors, 100%% of Memory Available\n");
  std::printf("(paper: Topaz 1.29, orig FastThreads 1.26, new FastThreads 2.45)\n\n");

  const SystemKind systems[] = {SystemKind::kTopazThreads, SystemKind::kOrigFastThreads,
                                SystemKind::kNewFastThreads};
  sa::apps::NBodyConfig config;
  sa::apps::DaemonConfig daemons;

  double multi[3], uni3[3];
  for (int s = 0; s < 3; ++s) {
    multi[s] = sa::apps::RunNBody(systems[s], 6, config, daemons, 2, 7).speedup;
    uni3[s] = sa::apps::RunNBody(systems[s], 3, config, daemons, 1, 7).speedup;
  }

  auto& table = record.AddTable("speedup", {{"system"},
                                            {"multiprogrammed", 2},
                                            {"uniprogrammed_3_procs", 2},
                                            {"retained_pct"}});
  for (int s = 0; s < 3; ++s) {
    table.Row({sa::apps::SystemName(systems[s]), multi[s], uni3[s],
               100 * multi[s] / uni3[s]});
  }
  table.Print();

  std::printf("\nPaper's qualitative checks:\n");
  record.Gate(multi[2] / uni3[2] > 0.90,
              "new FastThreads close to its uniprogrammed 3-proc speedup: " +
                  sa::common::Table::Num(100 * multi[2] / uni3[2]) + "%");
  record.Gate(multi[0] < 0.8 * multi[2] && multi[1] < 0.8 * multi[2],
              "both baselines collapse well below new FastThreads");
  return record.Finish();
}
