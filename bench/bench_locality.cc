// Locality ablation (DESIGN.md §13): {affinity off, affinity on} x
// {flat, 2-socket hierarchical} on a migration-heavy multiprogrammed
// workload.  "Affinity on" means both halves of the locality policy:
// affinity-preserving processor allocation in the kernel and same-socket-
// first stealing in FastThreads.
//
// Exits non-zero unless, on the hierarchical machine, turning affinity on
// strictly reduces BOTH cross-socket migrations and wall (virtual) time, and
// the flat cells account no locality events at all.
//
// Usage: bench_locality [--smoke] [out.json]

#include <cstdio>
#include <iterator>
#include <string>

#include "bench/bench_common.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

struct Cell {
  const char* name;
  int sockets;
  bool affinity;
  rt::RunReport report;
};

// Three eager address spaces (each wants more than its 2-processor fair
// share) with rotating space-wide I/O phases: when one space dips, the
// other two absorb its processors, and at the moment it wakes the next
// space is dipping — so the pool it draws from holds a mix of its own and
// the dipping space's processors.  The blind LIFO pool rotates ownership
// around the ring, teleporting every space's activations across the socket
// boundary each phase; the affinity-preserving allocator pins each space
// to the processors (and socket) it warmed up.  Penalties model a
// cache-pessimal part (10 us core, 500 us socket) so the saved migrations
// show up in elapsed virtual time, not only in the counters.
rt::RunReport RunCell(int sockets, bool affinity, uint64_t seed, int threads,
                      int iters) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.affinity_allocation = affinity;
  config.topology.sockets = sockets;
  config.topology.core_migration_penalty = sim::Usec(10);
  config.topology.socket_migration_penalty = sim::Usec(500);
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  uc.locality_aware_stealing = affinity;
  ult::UltRuntime app_a(&h.kernel(), "app-a", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime app_b(&h.kernel(), "app-b", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime app_c(&h.kernel(), "app-c", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime* apps[3] = {&app_a, &app_b, &app_c};
  for (ult::UltRuntime* rt : apps) {
    h.AddRuntime(rt);
  }
  h.AddDaemon("daemon", sim::Msec(5), sim::Usec(100));
  // Revocation storms (DESIGN.md §11) are what put several differently-owned
  // processors in the free pool at once: each burst revokes three owned
  // processors and the rebalance regrants them — a fresh placement decision
  // per storm for the policy under test.  Steady-state reallocation alone
  // regrants processors one at a time, where every policy picks the same one.
  inject::FaultPlan plan;
  plan.seed = config.seed;
  plan.storm_period = sim::Msec(1);
  plan.storm_burst = 3;
  h.EnableFaultInjection(plan);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < threads; ++i) {
      apps[s]->Spawn(
          [iters, i, s](rt::ThreadCtx& t) -> sim::Program {
            for (int k = 0; k < iters; ++k) {
              co_await t.Compute(sim::Usec(100 + (i % 4)));
              // Rotating phase: space s sleeps through third s of each
              // 12-iteration period, so one space is always dipping and
              // another always waking into a mixed pool.
              if ((k + 4 * s) % 12 < 4) {
                co_await t.Io(sim::Usec(400));
              }
            }
          },
          std::string("w").append(std::to_string(i)));
    }
  }
  h.Run();
  return rt::MakeReport(h);
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  sa::bench::Record record("locality", argc, argv, sa::bench::Sizes::kWithSmoke);
  const int threads = 4;
  const int iters = record.smoke() ? 120 : 240;
  // Trajectories diverge chaotically between the blind and affine cells, so
  // a single seed's elapsed time is dominated by scheduling luck; each cell
  // aggregates several seeded runs and the gates compare the totals.
  const uint64_t seeds[] = {17, 29, 43};

  std::printf("Locality ablation: 3 spaces x %d threads x %d iters, "
              "6 processors, revocation storms every 1 ms, %zu seeds%s\n\n",
              threads, iters, std::size(seeds), record.smoke() ? " (smoke)" : "");

  sa::Cell cells[4] = {
      {"flat/blind", 1, false, {}},
      {"flat/affinity", 1, true, {}},
      {"2-socket/blind", 2, false, {}},
      {"2-socket/affinity", 2, true, {}},
  };
  for (sa::Cell& c : cells) {
    for (uint64_t seed : seeds) {
      const sa::rt::RunReport r =
          sa::RunCell(c.sockets, c.affinity, seed, threads, iters);
      c.report.elapsed += r.elapsed;
      c.report.counters.migrations_core += r.counters.migrations_core;
      c.report.counters.migrations_socket += r.counters.migrations_socket;
      c.report.counters.migration_penalty_time += r.counters.migration_penalty_time;
      c.report.counters.ult_steals_local += r.counters.ult_steals_local;
      c.report.counters.ult_steals_remote += r.counters.ult_steals_remote;
      c.report.user += r.user;
      c.report.mgmt += r.mgmt;
      c.report.kernel += r.kernel;
      c.report.spin += r.spin;
      c.report.idle_spin += r.idle_spin;
      c.report.idle += r.idle;
    }
  }

  auto& t = record.AddTable(
      "cells", {{"cell"}, {"sockets"}, {"affinity"}, {"elapsed_s", 3},
                {"migrations_core"}, {"migrations_socket"}, {"migration_penalty_s", 3},
                {"ult_steals_local"}, {"ult_steals_remote"}, {"user_utilization", 4}});
  for (const sa::Cell& c : cells) {
    const sa::kern::KernelCounters& kc = c.report.counters;
    t.Row({c.name, c.sockets, c.affinity, sa::sim::ToSec(c.report.elapsed),
           kc.migrations_core, kc.migrations_socket,
           sa::sim::ToSec(kc.migration_penalty_time), kc.ult_steals_local,
           kc.ult_steals_remote, c.report.UserUtilization()});
  }
  t.Print();
  std::printf("\n");

  // On the flat machine topology must be invisible: no migration or
  // steal-distance accounting at all.
  for (const sa::Cell& c : cells) {
    if (c.sockets == 1) {
      const sa::kern::KernelCounters& kc = c.report.counters;
      record.Gate(kc.migrations_core + kc.migrations_socket + kc.migration_penalty_time +
                          kc.ult_steals_local + kc.ult_steals_remote ==
                      0,
                  std::string("flat cell ") + c.name + " accounts no locality events");
    }
  }
  // On the hierarchical machine, affinity must strictly pay for itself.
  const sa::Cell& blind = cells[2];
  const sa::Cell& affine = cells[3];
  record.Gate(affine.report.counters.migrations_socket <
                  blind.report.counters.migrations_socket,
              "affinity reduces cross-socket migrations on 2 sockets");
  record.Gate(affine.report.elapsed < blind.report.elapsed,
              "affinity reduces elapsed virtual time on 2 sockets");
  return record.Finish();
}
