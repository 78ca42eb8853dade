// Cross-space processor lending under oversubscription (DESIGN.md §16).
//
// Three experiments, each a gate (CI runs --smoke, which keeps every gate
// cell and only trims the fixed work per borrower):
//
//   1. Lending ablation, paired runs (same seed and workload, only
//      config.kernel.lending flipped) across a {2-space dip/surge} x
//      {512-processor tenant-mix} oversubscription grid.  The baseline parks
//      a dipped lender's processors behind the §4.2 idle hysteresis (5ms)
//      before they can move; lending hands them over after the 500us
//      lend-hint grace period and recalls them through the bounded fast
//      path.  Gate: lending strictly reduces borrower completion time in
//      every cell, with loans actually flowing.
//
//   2. Adversarial reclaim sweep, 3 seeds: a kernel-thread lender dips into
//      a hoarding borrower (MisbehavingRuntime: takes every loan, ignores
//      every upcall), clean and with injected reclaim-interrupt delays.
//      Gate: lender reclaim latency p999 stays under the instant-reclaim
//      bound clean, and under the first watchdog deadline with the fault
//      armed — the hoarder never costs the lender a renegotiation.
//
//   3. Churn sweep, 8 seeds: borrower spaces arrive and depart with loans
//      in flight.  Gate: machine-wide processor conservation and a clean
//      loan ledger after every run, protocol invariants intact.
//
// Exits non-zero unless every gate holds.
//
// Usage: bench_lending [--smoke] [out.json]

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/inject/fault_plan.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/space_reaper.h"
#include "src/rt/harness.h"
#include "src/rt/misbehaving_runtime.h"
#include "src/rt/report.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/invariants.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

// Gate bounds.  Clean reclaims resolve in a preempt interrupt plus the
// loan-reclaim charge (~40us) plus queueing; 500us is an order of magnitude
// of slack while still far below a grant-loop renegotiation.  With the
// reclaim-interrupt fault armed the delay itself (3ms) dominates, but the
// watchdog's first deadline (5ms) bounds how long any borrower can sit.
constexpr int64_t kCleanP999Bound = sim::Usec(500);
constexpr int64_t kDelayedP999Bound = sim::Msec(5);

// An SA lender tenant: `threads` workers looping compute `busy` / sleep
// `quiet`, with lend_idle on.  During each sleep phase its vcpus idle; with
// lending enabled they offer their processors after the 500us lend-hint
// grace period, without it they sit out the full 5ms idle hysteresis.
// `stagger` desynchronizes tenants so the machine sees rolling dips rather
// than one synchronized valley.
std::unique_ptr<ult::UltRuntime> MakeSaLender(rt::Harness& h,
                                              const std::string& name,
                                              int threads, sim::Duration busy,
                                              sim::Duration quiet,
                                              sim::Duration stagger) {
  ult::UltConfig uc;
  uc.max_vcpus = threads;
  uc.lend_idle = true;
  auto rt = std::make_unique<ult::UltRuntime>(
      &h.kernel(), name, ult::BackendKind::kSchedulerActivations, uc);
  for (int i = 0; i < threads; ++i) {
    rt->Spawn(
        [busy, quiet, stagger](rt::ThreadCtx& t) -> sim::Program {
          if (stagger > 0) {
            co_await t.Io(stagger);
          }
          for (;;) {
            co_await t.Compute(busy);
            co_await t.Io(quiet);
          }
        },
        name + "-" + std::to_string(i));
  }
  return rt;
}

// A kernel-thread lender tenant (exercises the dip-hysteresis path: demand
// drops below holdings every sleep phase).
std::unique_ptr<rt::TopazRuntime> MakeKtLender(rt::Harness& h,
                                               const std::string& name,
                                               int threads, sim::Duration busy,
                                               sim::Duration quiet, int iters) {
  auto kt = std::make_unique<rt::TopazRuntime>(&h.kernel(), name);
  for (int i = 0; i < threads; ++i) {
    kt->Spawn(
        [busy, quiet, iters](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < iters; ++k) {
            co_await t.Compute(busy);
            co_await t.Io(quiet);
          }
        },
        name + "-" + std::to_string(i));
  }
  return kt;
}

// A hungry SA borrower tenant with a fixed amount of work: `threads` workers
// each computing `iters` slices of 500us.  Its completion time is the
// throughput metric.
std::unique_ptr<ult::UltRuntime> MakeBorrower(rt::Harness& h,
                                              const std::string& name,
                                              int threads, int iters) {
  ult::UltConfig uc;
  uc.max_vcpus = threads;
  auto rt = std::make_unique<ult::UltRuntime>(
      &h.kernel(), name, ult::BackendKind::kSchedulerActivations, uc);
  for (int i = 0; i < threads; ++i) {
    rt->Spawn(
        [iters](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < iters; ++k) {
            co_await t.Compute(sim::Usec(500));
          }
        },
        name + "-" + std::to_string(i));
  }
  return rt;
}

// ---------------------------------------------------------------------------
// Experiment 1: lending ablation over the oversubscription grid.
// ---------------------------------------------------------------------------

struct PairSpec {
  std::string name;
  int processors = 0;
  int sa_lender_spaces = 0;   // SA lenders: threads each, busy/quiet cycle
  int sa_lender_threads = 0;
  sim::Duration sa_busy = 0;
  sim::Duration sa_quiet = 0;
  int kt_lender_spaces = 0;   // kt lenders riding along (dip-hysteresis path)
  int kt_lender_threads = 0;
  int borrower_spaces = 0;    // hungry SA borrowers: the measured foreground
  int borrower_threads = 0;
  int borrower_iters = 0;
};

struct PairSide {
  sim::Time elapsed = 0;
  int64_t loans_granted = 0;
  int64_t loans_reclaimed = 0;
  int64_t loans_reclaimed_fast = 0;
  int64_t loans_force_revoked = 0;
  int64_t reclaim_p999 = 0;
  double wall_sec = 0.0;
  bool ok = false;
};

PairSide RunPairSide(const PairSpec& spec, bool lending) {
  rt::HarnessConfig config;
  config.processors = spec.processors;
  config.seed = 17;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.lending = lending;
  rt::Harness h(config);

  std::vector<std::unique_ptr<rt::Runtime>> tenants;
  for (int i = 0; i < spec.sa_lender_spaces; ++i) {
    tenants.push_back(MakeSaLender(h, "svc" + std::to_string(i),
                                   spec.sa_lender_threads, spec.sa_busy,
                                   spec.sa_quiet,
                                   sim::Usec(700) * (i % 8)));
    h.AddRuntime(tenants.back().get(), /*background=*/true);
  }
  for (int i = 0; i < spec.kt_lender_spaces; ++i) {
    tenants.push_back(MakeKtLender(h, "kt" + std::to_string(i),
                                   spec.kt_lender_threads, sim::Msec(3),
                                   sim::Msec(9), /*iters=*/1 << 20));
    h.AddRuntime(tenants.back().get(), /*background=*/true);
  }
  for (int i = 0; i < spec.borrower_spaces; ++i) {
    tenants.push_back(MakeBorrower(h, "batch" + std::to_string(i),
                                   spec.borrower_threads, spec.borrower_iters));
    h.AddRuntime(tenants.back().get());
  }

  PairSide out;
  const auto t0 = std::chrono::steady_clock::now();
  const rt::RunResult result = h.TryRun();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_sec =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  out.ok = result.ok();
  if (!result.ok()) {
    std::printf("FAIL: %s (%s) did not complete:\n%s\n", spec.name.c_str(),
                lending ? "lending" : "baseline", result.diagnostics.c_str());
    return out;
  }
  out.elapsed = result.end_time;
  const kern::KernelCounters& c = h.kernel().counters();
  out.loans_granted = c.loans_granted;
  out.loans_reclaimed = c.loans_reclaimed;
  out.loans_reclaimed_fast = c.loans_reclaimed_fast;
  out.loans_force_revoked = c.loans_force_revoked;
  out.reclaim_p999 = h.kernel().allocator()->reclaim_latency().Quantile(0.999);
  return out;
}

struct PairCell {
  PairSpec spec;
  PairSide baseline;
  PairSide lending;
  double speedup = 0.0;
};

PairCell RunPairCell(const PairSpec& spec) {
  PairCell cell;
  cell.spec = spec;
  cell.baseline = RunPairSide(spec, /*lending=*/false);
  cell.lending = RunPairSide(spec, /*lending=*/true);
  if (cell.baseline.ok && cell.lending.ok && cell.lending.elapsed > 0) {
    cell.speedup = static_cast<double>(cell.baseline.elapsed) /
                   static_cast<double>(cell.lending.elapsed);
  }
  return cell;
}

// ---------------------------------------------------------------------------
// Experiment 2: adversarial reclaim sweep (hoarding borrower).
// ---------------------------------------------------------------------------

struct AdversarialResult {
  uint64_t seed = 0;
  int64_t clean_p999 = 0;
  int64_t delayed_p999 = 0;
  int64_t loans_hoarded = 0;
  int64_t force_revoked = 0;
  bool ok = false;
};

// One lender-beside-hoarder run; returns reclaim p999 through *p999 and
// whether the run completed with the lender whole and loans flowing.
bool RunBesideHoarder(uint64_t seed, bool delay_reclaims, int64_t* p999,
                      int64_t* hoarded, int64_t* force_revoked) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.lending = true;
  rt::Harness h(config);
  if (delay_reclaims) {
    inject::FaultPlan plan;
    plan.seed = seed;
    plan.reclaim_delay = 0.4;            // 40% of reclaim interrupts held up...
    plan.reclaim_delay_for = sim::Msec(3);  // ...for 3ms, under the deadline
    h.EnableFaultInjection(plan);
  }

  auto lender = MakeKtLender(h, "lender", 2, sim::Msec(4), sim::Msec(8),
                             /*iters=*/12);
  h.AddRuntime(lender.get());

  rt::MisbehavingRuntime hoarder(&h.kernel(), "hoarder",
                                 /*claimed_demand=*/config.processors);
  h.AddRuntime(&hoarder, /*background=*/true);

  const rt::RunResult result = h.TryRun();
  *hoarded = hoarder.loans_hoarded();
  *force_revoked = h.kernel().counters().loans_force_revoked;
  *p999 = h.kernel().allocator()->reclaim_latency().Quantile(0.999);
  if (!result.ok()) {
    std::printf("FAIL: adversarial run (seed %llu%s) did not complete:\n%s\n",
                static_cast<unsigned long long>(seed),
                delay_reclaims ? ", delayed" : "", result.diagnostics.c_str());
    return false;
  }
  if (h.kernel().counters().loans_granted == 0 || *hoarded == 0) {
    std::printf("FAIL: adversarial run (seed %llu%s): no loans reached the "
                "hoarder — the sweep is vacuous\n",
                static_cast<unsigned long long>(seed),
                delay_reclaims ? ", delayed" : "");
    return false;
  }
  if (lender->threads_finished() != lender->threads_created()) {
    std::printf("FAIL: adversarial run (seed %llu%s): lender did not finish "
                "its work\n",
                static_cast<unsigned long long>(seed),
                delay_reclaims ? ", delayed" : "");
    return false;
  }
  return true;
}

AdversarialResult RunAdversarial(uint64_t seed) {
  AdversarialResult out;
  out.seed = seed;
  int64_t hoarded = 0, forced = 0;
  out.ok = RunBesideHoarder(seed, /*delay_reclaims=*/false, &out.clean_p999,
                            &hoarded, &forced);
  out.loans_hoarded = hoarded;
  out.force_revoked = forced;
  if (out.ok) {
    out.ok = RunBesideHoarder(seed, /*delay_reclaims=*/true, &out.delayed_p999,
                              &hoarded, &forced);
    out.loans_hoarded += hoarded;
    out.force_revoked += forced;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Experiment 3: churn sweep with loans in flight.
// ---------------------------------------------------------------------------

bool RunChurnSeed(uint64_t seed, int borrower_iters) {
  rt::HarnessConfig config;
  config.processors = 4;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.lending = true;
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kLending | trace::cat::kLifecycle);

  auto lender = MakeKtLender(h, "lender", 2, sim::Msec(3), sim::Msec(9),
                             /*iters=*/1 << 20);
  h.AddRuntime(lender.get(), /*background=*/true);
  auto anchor = MakeBorrower(h, "anchor", 3, borrower_iters * 4);
  h.AddRuntime(anchor.get());
  h.AddChurn(4, sim::Msec(6), [&h, borrower_iters](int i) {
    return MakeBorrower(h, "churn-" + std::to_string(i), 2, borrower_iters);
  });

  const rt::RunResult result = h.TryRun();
  if (!result.ok()) {
    std::printf("FAIL: churn seed %llu did not complete:\n%s\n",
                static_cast<unsigned long long>(seed),
                result.diagnostics.c_str());
    return false;
  }
  bool ok = true;
  if (h.kernel().counters().loans_granted == 0) {
    std::printf("FAIL: churn seed %llu: no loans in flight — vacuous\n",
                static_cast<unsigned long long>(seed));
    ok = false;
  }
  // Machine-wide conservation: every processor free, held by exactly one
  // space or detaching, the ledger agrees with every space's counts, and
  // reaped spaces audited clean.
  const std::string leak = h.kernel().allocator()->CheckConservation();
  if (!leak.empty()) {
    std::printf("FAIL: churn seed %llu: %s\n", static_cast<unsigned long long>(seed),
                leak.c_str());
    ok = false;
  }
  for (const auto& as : h.kernel().spaces()) {
    if (as->lifecycle() == kern::AsLifecycle::kDead) {
      const std::string report = h.kernel().reaper()->ConservationReport(as.get());
      if (!report.empty()) {
        std::printf("FAIL: churn seed %llu: conservation report for %s: %s\n",
                    static_cast<unsigned long long>(seed), as->name().c_str(),
                    report.c_str());
        ok = false;
      }
    }
  }
  const trace::CheckResult check = trace::CheckInvariants(h.trace()->Snapshot());
  if (!check.ok()) {
    std::printf("FAIL: churn seed %llu: %s\n",
                static_cast<unsigned long long>(seed), check.Summary().c_str());
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  sa::bench::Record record("lending", argc, argv, sa::bench::Sizes::kWithSmoke);
  const bool smoke = record.smoke();
  std::printf("Cross-space lending under oversubscription%s\n\n",
              smoke ? " (smoke)" : "");

  // Ablation grid: two 2-space dip/surge cells and the 512-processor
  // tenant-mix cell (24 SA service tenants dipping on a 2ms/6ms duty cycle,
  // 8 kernel-thread tenants on the dip-hysteresis path, 8 batch tenants of
  // 64 workers each — peak demand 928 processors against 512).
  const int scale = smoke ? 1 : 3;
  std::vector<sa::PairSpec> specs = {
      {"dip-4p", 4, /*sa_lenders=*/1, 2, sa::sim::Msec(2), sa::sim::Msec(6),
       /*kt=*/0, 0, /*borrowers=*/1, 4, 150 * scale},
      {"dip-8p", 8, /*sa_lenders=*/1, 4, sa::sim::Msec(3), sa::sim::Msec(9),
       /*kt=*/0, 0, /*borrowers=*/1, 8, 120 * scale},
      {"mix-512p", 512, /*sa_lenders=*/24, 16, sa::sim::Msec(2), sa::sim::Msec(6),
       /*kt=*/8, 4, /*borrowers=*/8, 64, 15 * scale},
  };
  std::vector<sa::PairCell> cells;
  auto& ablation = record.AddTable(
      "ablation_cells", {{"cell"}, {"processors"}, {"baseline_ms", 3}, {"lending_ms", 3},
                         {"speedup", 3}, {"loans"}, {"fast_reclaims"}, {"force_revoked"},
                         {"reclaim_p999_us", 1}, {"wall_s", 2}});
  for (const sa::PairSpec& spec : specs) {
    cells.push_back(sa::RunPairCell(spec));
    const sa::PairCell& c = cells.back();
    ablation.Row({c.spec.name, c.spec.processors, sa::sim::ToMsec(c.baseline.elapsed),
                  sa::sim::ToMsec(c.lending.elapsed), c.speedup, c.lending.loans_granted,
                  c.lending.loans_reclaimed_fast, c.lending.loans_force_revoked,
                  sa::sim::ToUsec(c.lending.reclaim_p999),
                  c.baseline.wall_sec + c.lending.wall_sec});
  }
  ablation.Print();
  std::printf("\n");

  std::vector<sa::AdversarialResult> adversarial;
  auto& adversary = record.AddTable(
      "adversarial", {{"seed"}, {"clean_p999_us", 1}, {"delayed_p999_us", 1},
                      {"loans_hoarded"}, {"force_revoked"}});
  for (uint64_t seed : {1, 2, 3}) {
    adversarial.push_back(sa::RunAdversarial(seed));
    const sa::AdversarialResult& a = adversarial.back();
    adversary.Row({a.seed, sa::sim::ToUsec(a.clean_p999), sa::sim::ToUsec(a.delayed_p999),
                   a.loans_hoarded, a.force_revoked});
  }
  adversary.Print();
  std::printf("\n");

  auto& churn = record.AddTable("churn", {{"seed"}, {"conserved"}});
  int churn_passed = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const bool conserved = sa::RunChurnSeed(seed, smoke ? 20 : 40);
    churn.Row({seed, conserved});
    churn_passed += conserved ? 1 : 0;
  }
  churn.Print();
  std::printf("\n");

  // Gates.
  for (const sa::PairCell& c : cells) {
    record.Gate(c.baseline.ok && c.lending.ok &&
                    c.lending.elapsed < c.baseline.elapsed &&
                    c.lending.loans_granted > 0 && c.lending.loans_force_revoked == 0,
                c.spec.name + ": both runs complete, lending improves borrower "
                              "completion with loans flowing and no force-revocations");
  }
  const std::string bounds = "clean < " + sa::sim::FormatDuration(sa::kCleanP999Bound) +
                             ", delayed < " + sa::sim::FormatDuration(sa::kDelayedP999Bound);
  for (const sa::AdversarialResult& a : adversarial) {
    record.Gate(a.ok && a.clean_p999 < sa::kCleanP999Bound &&
                    a.delayed_p999 < sa::kDelayedP999Bound,
                "adversary seed " + std::to_string(a.seed) +
                    ": lender reclaim p999 bounded beside the hoarder (" + bounds + ")");
  }
  record.Gate(churn_passed == 8, "churn sweep: " + std::to_string(churn_passed) +
                                     "/8 seeds conserved processors with loans in flight");
  return record.Finish();
}
