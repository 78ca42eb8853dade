// Hierarchical machine topology and locality policies (DESIGN.md §13).
//
// Covers four layers: the Topology model itself (socket partition, distance,
// penalties), migration accounting in the kernel dispatch paths, the
// affinity-preserving allocator, and locality-aware stealing in FastThreads
// — plus the zero-perturbation guarantee: a flat machine with the policy
// flags off produces seeded traces byte-identical to a machine that predates
// the topology layer entirely.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/hw/topology.h"
#include "src/kern/proc_alloc.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

// ---------------------------------------------------------------------------
// Topology model.
// ---------------------------------------------------------------------------

TEST(Topology, FlatByDefault) {
  hw::Topology flat(6);
  EXPECT_FALSE(flat.hierarchical());
  EXPECT_EQ(flat.num_sockets(), 1);
  for (int cpu = 0; cpu < 6; ++cpu) {
    EXPECT_EQ(flat.SocketOf(cpu), 0);
  }
  EXPECT_EQ(flat.MigrationPenalty(0, 5), 0);
  EXPECT_EQ(flat.DistanceBetween(0, 5), hw::Distance::kSameSocket);
}

TEST(Topology, FlatIgnoresConfiguredPenalties) {
  hw::TopologyConfig config;  // sockets stays 1
  config.core_migration_penalty = sim::Msec(1);
  config.socket_migration_penalty = sim::Msec(10);
  hw::Topology topo(config, 4);
  EXPECT_FALSE(topo.hierarchical());
  EXPECT_EQ(topo.MigrationPenalty(0, 3), 0);
}

TEST(Topology, BlockPartitionAndDistances) {
  hw::TopologyConfig config;
  config.sockets = 2;
  hw::Topology topo(config, 6);  // sockets {0,1,2} and {3,4,5}
  EXPECT_TRUE(topo.hierarchical());
  EXPECT_EQ(topo.cores_per_socket(), 3);
  EXPECT_EQ(topo.SocketOf(2), 0);
  EXPECT_EQ(topo.SocketOf(3), 1);
  EXPECT_EQ(topo.DistanceBetween(1, 1), hw::Distance::kSameCpu);
  EXPECT_EQ(topo.DistanceBetween(0, 2), hw::Distance::kSameSocket);
  EXPECT_EQ(topo.DistanceBetween(2, 3), hw::Distance::kCrossSocket);
  EXPECT_EQ(topo.MigrationPenalty(1, 1), 0);
  EXPECT_EQ(topo.MigrationPenalty(0, 2), config.core_migration_penalty);
  EXPECT_EQ(topo.MigrationPenalty(2, 3), config.socket_migration_penalty);
  // Penalties are symmetric in level even when the partition is uneven.
  hw::Topology uneven(config, 5);  // {0,1,2} and {3,4}
  EXPECT_EQ(uneven.cores_per_socket(), 3);
  EXPECT_EQ(uneven.SocketOf(4), 1);
  EXPECT_EQ(uneven.DistanceBetween(4, 3), hw::Distance::kSameSocket);
}

// ---------------------------------------------------------------------------
// Shared workload: one SA space whose threads mix compute and I/O (so vcpus
// go idle, steal, and processors churn through the allocator), plus a daemon
// that periodically preempts — the migration-heavy shape.
// ---------------------------------------------------------------------------

rt::HarnessConfig BaseConfig(int processors, uint64_t seed) {
  rt::HarnessConfig config;
  config.processors = processors;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  return config;
}

void SpawnMixedLoad(ult::UltRuntime* rt, int threads, int iters) {
  for (int i = 0; i < threads; ++i) {
    rt->Spawn(
        [iters, i](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < iters; ++k) {
            co_await t.Compute(sim::Usec(40 + 7 * (i % 5)));
            if ((k + i) % 3 == 0) {
              co_await t.Io(sim::Usec(60));
            }
          }
        },
        std::string("w").append(std::to_string(i)));
  }
}

struct LocalityRun {
  rt::RunReport report;
  std::vector<trace::Record> records;
};

LocalityRun RunWorkload(rt::HarnessConfig config, bool locality_stealing) {
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kAll);
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  uc.locality_aware_stealing = locality_stealing;
  ult::UltRuntime rt(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&rt);
  h.AddDaemon("daemon", sim::Msec(2), sim::Usec(200));
  SpawnMixedLoad(&rt, /*threads=*/12, /*iters=*/40);
  h.Run();
  LocalityRun out;
  out.report = rt::MakeReport(h);
  out.records = h.trace()->Snapshot();
  return out;
}

// ---------------------------------------------------------------------------
// Zero perturbation: flat topology with explicitly configured (and ignored)
// penalties, policy flags off, must match the default machine to the byte.
// ---------------------------------------------------------------------------

TEST(Locality, FlatTopologyIsZeroPerturbation) {
  auto run = [](bool explicit_flat_topology) {
    rt::HarnessConfig config = BaseConfig(/*processors=*/4, /*seed=*/29);
    if (explicit_flat_topology) {
      // One socket but aggressive penalties: a flat machine must ignore them.
      config.topology.sockets = 1;
      config.topology.core_migration_penalty = sim::Msec(1);
      config.topology.socket_migration_penalty = sim::Msec(10);
    }
    return RunWorkload(config, /*locality_stealing=*/false).records;
  };

  const std::vector<trace::Record> baseline = run(false);
  const std::vector<trace::Record> flat = run(true);
  ASSERT_GT(baseline.size(), 0u);
  ASSERT_EQ(baseline.size(), flat.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    const trace::Record& a = baseline[i];
    const trace::Record& b = flat[i];
    const bool same = a.ts == b.ts && a.cpu == b.cpu && a.as_id == b.as_id &&
                      a.kind == b.kind && a.arg0 == b.arg0 && a.arg1 == b.arg1;
    ASSERT_TRUE(same) << "trace diverged at record " << i << ": t=" << a.ts
                      << " vs t=" << b.ts << ", kind "
                      << trace::KindName(static_cast<trace::Kind>(a.kind)) << " vs "
                      << trace::KindName(static_cast<trace::Kind>(b.kind));
  }
}

// A flat machine must never emit cat::kLocality records — their absence is
// what keeps the byte-identity above safe even with all categories enabled.
TEST(Locality, FlatMachineEmitsNoLocalityRecords) {
  const LocalityRun flat =
      RunWorkload(BaseConfig(/*processors=*/4, /*seed=*/3), false);
  for (const trace::Record& r : flat.records) {
    EXPECT_LT(r.kind, static_cast<uint16_t>(trace::Kind::kLocMigrateCore))
        << "flat machine emitted " << trace::KindName(static_cast<trace::Kind>(r.kind));
  }
  EXPECT_EQ(flat.report.counters.migrations_core, 0);
  EXPECT_EQ(flat.report.counters.migrations_socket, 0);
  EXPECT_EQ(flat.report.counters.migration_penalty_time, 0);
  EXPECT_EQ(flat.report.counters.ult_steals_local, 0);
  EXPECT_EQ(flat.report.counters.ult_steals_remote, 0);
  EXPECT_FALSE(flat.report.hierarchical);
}

// ---------------------------------------------------------------------------
// Migration accounting on a hierarchical machine.
// ---------------------------------------------------------------------------

TEST(Locality, HierarchicalMachineCountsAndChargesMigrations) {
  rt::HarnessConfig config = BaseConfig(/*processors=*/6, /*seed=*/7);
  config.topology.sockets = 2;
  const LocalityRun hier = RunWorkload(config, /*locality_stealing=*/false);

  EXPECT_TRUE(hier.report.hierarchical);
  EXPECT_EQ(hier.report.sockets, 2);
  // The daemon's random-processor wakeups alone guarantee cross-processor
  // dispatches; on two sockets some of them cross the boundary.
  EXPECT_GT(hier.report.counters.migrations_core +
                hier.report.counters.migrations_socket,
            0);
  EXPECT_GT(hier.report.counters.migration_penalty_time, 0);
  bool saw_migration_record = false;
  for (const trace::Record& r : hier.records) {
    if (r.kind == static_cast<uint16_t>(trace::Kind::kLocMigrateCore) ||
        r.kind == static_cast<uint16_t>(trace::Kind::kLocMigrateSocket)) {
      saw_migration_record = true;
      break;
    }
  }
  EXPECT_TRUE(saw_migration_record);

  // The same seed on a flat machine yields a different schedule.  Topology
  // adds migration charges (asserted above), but the two makespans are not
  // ordered: allocation decisions feed back on virtual time, so an added
  // charge can perturb the allocator into a globally earlier finish (a
  // Graham-style scheduling anomaly).  Assert only that both runs complete.
  const LocalityRun flat =
      RunWorkload(BaseConfig(/*processors=*/6, /*seed=*/7), false);
  EXPECT_GT(hier.report.elapsed, 0);
  EXPECT_GT(flat.report.elapsed, 0);
}

// ---------------------------------------------------------------------------
// Locality-aware stealing.
// ---------------------------------------------------------------------------

TEST(Locality, StealDistanceIsTrackedOnHierarchicalMachines) {
  rt::HarnessConfig config = BaseConfig(/*processors=*/6, /*seed=*/13);
  config.topology.sockets = 2;
  const LocalityRun run = RunWorkload(config, /*locality_stealing=*/false);
  const kern::KernelCounters& kc = run.report.counters;
  // The workload forces steals; every one is classified local or remote.
  EXPECT_GT(kc.ult_steals_local + kc.ult_steals_remote, 0);
}

// Migrations are also attributed to the space whose thread moved.
TEST(Locality, PerSpaceMigrationStatsAreCounted) {
  rt::HarnessConfig config = BaseConfig(/*processors=*/6, /*seed=*/7);
  config.topology.sockets = 2;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  ult::UltRuntime rt(&h.kernel(), "app", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&rt);
  h.AddDaemon("daemon", sim::Msec(2), sim::Usec(200));
  SpawnMixedLoad(&rt, /*threads=*/12, /*iters=*/40);
  h.Run();
  const kern::KernelCounters& kc = h.kernel().counters();
  const auto stats = h.kernel().allocator()->stats_for(rt.address_space());
  EXPECT_GT(stats.migrations, 0);
  // The app's and the daemon's migrations must account for the machine total.
  EXPECT_LE(stats.migrations, kc.migrations_core + kc.migrations_socket);
}

// ---------------------------------------------------------------------------
// The locality policies paying off (mirrors bench_locality).  Three spaces
// with rotating I/O phases under revocation storms — the shape where the
// free pool actually holds several differently-owned processors, so the
// allocator's choice matters.  Trajectories diverge chaotically between the
// blind and affine runs, so each side aggregates several seeds and only the
// totals are compared.
// ---------------------------------------------------------------------------

struct StormTotals {
  int64_t migrations_socket = 0;
  int64_t steals_remote = 0;
  sim::Time elapsed = 0;
};

StormTotals RunStormCell(bool affinity) {
  StormTotals totals;
  for (uint64_t seed : {uint64_t{17}, uint64_t{29}, uint64_t{43}}) {
    rt::HarnessConfig config = BaseConfig(/*processors=*/6, seed);
    config.topology.sockets = 2;
    config.topology.core_migration_penalty = sim::Usec(10);
    config.topology.socket_migration_penalty = sim::Usec(500);
    config.kernel.affinity_allocation = affinity;
    rt::Harness h(config);
    ult::UltConfig uc;
    uc.max_vcpus = config.processors;
    uc.locality_aware_stealing = affinity;
    ult::UltRuntime app_a(&h.kernel(), "a", ult::BackendKind::kSchedulerActivations, uc);
    ult::UltRuntime app_b(&h.kernel(), "b", ult::BackendKind::kSchedulerActivations, uc);
    ult::UltRuntime app_c(&h.kernel(), "c", ult::BackendKind::kSchedulerActivations, uc);
    ult::UltRuntime* apps[3] = {&app_a, &app_b, &app_c};
    for (ult::UltRuntime* rt : apps) {
      h.AddRuntime(rt);
    }
    h.AddDaemon("daemon", sim::Msec(5), sim::Usec(100));
    inject::FaultPlan plan;
    plan.seed = seed;
    plan.storm_period = sim::Msec(1);
    plan.storm_burst = 3;
    h.EnableFaultInjection(plan);
    for (int s = 0; s < 3; ++s) {
      for (int i = 0; i < 4; ++i) {
        apps[s]->Spawn(
            [i, s](rt::ThreadCtx& t) -> sim::Program {
              for (int k = 0; k < 120; ++k) {
                co_await t.Compute(sim::Usec(100 + (i % 4)));
                if ((k + 4 * s) % 12 < 4) {
                  co_await t.Io(sim::Usec(400));
                }
              }
            },
            std::string("w").append(std::to_string(i)));
      }
    }
    h.Run();
    const rt::RunReport report = rt::MakeReport(h);
    totals.migrations_socket += report.counters.migrations_socket;
    totals.steals_remote += report.counters.ult_steals_remote;
    totals.elapsed += report.elapsed;
  }
  return totals;
}

TEST(Locality, AffinityPaysOffUnderRevocationStorms) {
  const StormTotals blind = RunStormCell(false);
  const StormTotals affine = RunStormCell(true);
  // Warm regrants keep each space on the processors (and socket) it warmed
  // up, so activations teleport across the boundary less often...
  EXPECT_LT(affine.migrations_socket, blind.migrations_socket);
  // ...same-socket-first scanning steals across the boundary less often...
  EXPECT_LE(affine.steals_remote, blind.steals_remote);
  // ...and the saved cold-cache penalties show up as finished-sooner.
  EXPECT_LE(affine.elapsed, blind.elapsed);
}

}  // namespace
}  // namespace sa
