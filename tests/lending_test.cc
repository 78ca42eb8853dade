// Cross-space processor lending (DESIGN.md §16).
//
// When a space's demand dips below its holdings past the hysteresis window,
// the allocator lends the surplus to the neediest space instead of idling
// it — but the lender keeps its entitlement, and the instant its demand
// returns the loan is recalled through a bounded-latency revocation (no
// grant-loop renegotiation).  A borrower that sits on the recall deadline is
// force-revoked and quarantined through the space reaper.  These tests
// drive the loan ledger end to end: dip-lending, yield-hint lending,
// instant reclaim, the deadline watchdog, loan settlement across teardown
// in both directions, churn with loans in flight, the zero-perturbation
// guarantee when the feature is disabled, and pinned digests of seeded
// lending-on traces.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/inject/fault_plan.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/space_reaper.h"
#include "src/rt/harness.h"
#include "src/rt/misbehaving_runtime.h"
#include "src/rt/report.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/invariants.h"
#include "src/traffic/traffic.h"
#include "src/ult/ult_runtime.h"
#include "tests/trace_digest.h"

namespace sa {
namespace {

rt::HarnessConfig LendingOn(int processors, uint64_t seed = 1) {
  rt::HarnessConfig config;
  config.processors = processors;
  config.seed = seed;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.lending = true;
  return config;
}

int CountKind(const std::vector<trace::Record>& records, trace::Kind kind,
              int as_id = -1) {
  int n = 0;
  for (const trace::Record& r : records) {
    if (static_cast<trace::Kind>(r.kind) == kind &&
        (as_id < 0 || r.as_id == as_id)) {
      ++n;
    }
  }
  return n;
}

// A kernel-thread space whose demand oscillates: `threads` workers looping
// compute `busy`, then sleep `quiet` in I/O.  While every worker sleeps the
// space's demand is zero but its entitlement is not — the dip the lending
// machinery feeds on.
std::unique_ptr<rt::TopazRuntime> MakeOscillator(rt::Harness& h,
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

// An SA space that wants more processors than its fair share for the whole
// run: `threads` compute-bound workers.
std::unique_ptr<ult::UltRuntime> MakeHungrySpace(rt::Harness& h,
                                                 const std::string& name,
                                                 int threads, int iters,
                                                 bool lend_idle = false) {
  ult::UltConfig uc;
  uc.max_vcpus = threads;
  uc.lend_idle = lend_idle;
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
// Seeded scenarios.  The property tests below and the pinned LendingDigest
// runs build the same runs through these.
// ---------------------------------------------------------------------------

// A lending run set up but not started: the harness and the runtimes it
// drives, lender first.
struct Scenario {
  explicit Scenario(const rt::HarnessConfig& config) : h(config) {}
  void Add(std::unique_ptr<rt::Runtime> runtime, bool background = false) {
    h.AddRuntime(runtime.get(), background);
    runtimes.push_back(std::move(runtime));
  }
  rt::Runtime* lender() { return runtimes.front().get(); }
  rt::Runtime* borrower() { return runtimes.back().get(); }

  rt::Harness h;
  std::vector<std::unique_ptr<rt::Runtime>> runtimes;
};

// A kt lender (2 workers, busy 3ms / asleep 9ms: each sleep phase clears the
// 2ms dip hysteresis with room to spare) beside a compute-bound SA borrower,
// permanently short two processors.  `plan`, when given, is installed first.
std::unique_ptr<Scenario> KtLenderBesideBorrower(
    int lender_iters, bool lender_background, int borrower_iters,
    bool borrower_background, const inject::FaultPlan* plan = nullptr) {
  auto s = std::make_unique<Scenario>(LendingOn(/*processors=*/4));
  if (plan != nullptr) {
    s->h.EnableFaultInjection(*plan);
  }
  s->Add(MakeOscillator(s->h, "lender", 2, sim::Msec(3), sim::Msec(9), lender_iters),
         lender_background);
  s->Add(MakeHungrySpace(s->h, "borrower", 4, borrower_iters), borrower_background);
  return s;
}

// The lender oscillates for as long as the borrower runs.
std::unique_ptr<Scenario> KtDip() {
  return KtLenderBesideBorrower(/*lender_iters=*/1000, /*lender_background=*/true,
                                /*borrower_iters=*/120, /*borrower_background=*/false);
}

// An SA lender with lend_idle on: one long thread and one short one — when
// the short thread exits, its vcpu idles past the lend-hint grace period and
// offers the processor.
std::unique_ptr<Scenario> SaYieldHint() {
  auto s = std::make_unique<Scenario>(LendingOn(/*processors=*/4));
  ult::UltConfig uc;
  uc.max_vcpus = 2;
  uc.lend_idle = true;
  auto lender = std::make_unique<ult::UltRuntime>(
      &s->h.kernel(), "sa-lender", ult::BackendKind::kSchedulerActivations, uc);
  lender->Spawn(
      [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(40)); },
      "long");
  lender->Spawn(
      [](rt::ThreadCtx& t) -> sim::Program { co_await t.Compute(sim::Msec(2)); },
      "short");
  s->Add(std::move(lender));
  s->Add(MakeHungrySpace(s->h, "borrower", 4, /*iters=*/100));
  return s;
}

// Every reclaim interrupt is deferred far past the watchdog ladder (5ms +
// 10ms of deadlines), so the borrower looks like it is sitting on the
// recall.  A finite lender: one dip (lend), then demand returns (reclaim —
// stalled).  The borrower never idles, so the stalled recall cannot resolve
// through the fast path; background, since the watchdog tears it down.
std::unique_ptr<Scenario> StalledReclaim() {
  inject::FaultPlan plan;
  plan.reclaim_delay = 1.0;
  plan.reclaim_delay_for = sim::Msec(60);
  return KtLenderBesideBorrower(/*lender_iters=*/6, /*lender_background=*/false,
                                /*borrower_iters=*/100000,
                                /*borrower_background=*/true, &plan);
}

// Space `crash_space` (0 = lender, 1 = borrower) crashes mid-sleep-phase,
// while the loan is outstanding (the lend lands at ~5ms: 3ms busy + 2ms
// hysteresis).
std::unique_ptr<Scenario> CrashMidLoan(int crash_space, int lender_iters,
                                       int borrower_iters) {
  inject::FaultPlan plan;
  plan.crash_at = sim::Msec(7);
  plan.crash_space = crash_space;
  return KtLenderBesideBorrower(lender_iters, /*lender_background=*/false,
                                borrower_iters, /*borrower_background=*/false, &plan);
}

// Borrower spaces arrive and depart mid-run, so grants, recalls, and
// rebalances interleave with space creation and release.  With `lend_idle`
// the SA spaces also hint their idle processors away.
std::unique_ptr<Scenario> ChurnBesideLender(const rt::HarnessConfig& config,
                                            int anchor_threads, bool lend_idle,
                                            const inject::FaultPlan* plan = nullptr) {
  auto s = std::make_unique<Scenario>(config);
  if (plan != nullptr) {
    s->h.EnableFaultInjection(*plan);
  }
  s->Add(MakeOscillator(s->h, "lender", 2, sim::Msec(3), sim::Msec(9), /*iters=*/1000),
         /*background=*/true);
  s->Add(MakeHungrySpace(s->h, "anchor", anchor_threads, /*iters=*/120, lend_idle));
  rt::Harness* h = &s->h;
  s->h.AddChurn(3, sim::Msec(6), [h, lend_idle](int i) {
    return MakeHungrySpace(*h, "churn-" + std::to_string(i), 2, /*iters=*/30,
                           lend_idle);
  });
  return s;
}

std::unique_ptr<Scenario> Churn() {
  return ChurnBesideLender(LendingOn(/*processors=*/4, /*seed=*/5),
                           /*anchor_threads=*/3, /*lend_idle=*/false);
}

// Both allocator features on a 2-socket machine under 1 ms revocation
// storms: the kt lender oscillates, and the SA anchor plus three churned SA
// spaces hint their idle processors away.  Upcalls are tuned: an untuned one
// (2.05 ms) outlasts the storm period, so once a space is down to one
// processor every re-grant upcall is revoked again before its thread runs —
// a livelock with or without either feature.
rt::HarnessConfig AffinityStormConfig(uint64_t seed) {
  rt::HarnessConfig config = LendingOn(/*processors=*/8, seed);
  config.topology.sockets = 2;
  config.kernel.affinity_allocation = true;
  config.kernel.tuned_upcalls = true;
  return config;
}

inject::FaultPlan StormPlan(uint64_t seed) {
  inject::FaultPlan plan;
  plan.seed = seed;
  plan.storm_period = sim::Msec(1);
  plan.storm_burst = 2;
  return plan;
}

std::unique_ptr<Scenario> AffinityStorm(uint64_t seed) {
  const inject::FaultPlan plan = StormPlan(seed);
  return ChurnBesideLender(AffinityStormConfig(seed), /*anchor_threads=*/4,
                           /*lend_idle=*/true, &plan);
}

// Both lending faults at once.  An SA lender's vcpus idle through its
// threads' I/O sleeps and hint their processors away, and half the hints lie
// (the loan is recalled the instant it lands); a kt lender dips too.  Half
// the recalls of a busy borrower processor are held back past the first
// watchdog deadline.  Both lenders feed one hungry SA borrower.
std::unique_ptr<Scenario> LyingHintsAndDelayedReclaims() {
  auto s = std::make_unique<Scenario>(LendingOn(/*processors=*/6, /*seed=*/3));
  inject::FaultPlan plan;
  plan.seed = 3;
  plan.yield_lie = 0.5;
  plan.reclaim_delay = 0.5;
  plan.reclaim_delay_for = sim::Msec(8);
  s->h.EnableFaultInjection(plan);
  s->Add(MakeOscillator(s->h, "kt-lender", 2, sim::Msec(3), sim::Msec(9), /*iters=*/1000),
         /*background=*/true);
  ult::UltConfig uc;
  uc.max_vcpus = 3;
  uc.lend_idle = true;
  auto sa_lender = std::make_unique<ult::UltRuntime>(
      &s->h.kernel(), "sa-lender", ult::BackendKind::kSchedulerActivations, uc);
  for (int i = 0; i < 3; ++i) {
    sa_lender->Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 30; ++k) {
            co_await t.Compute(sim::Msec(1));
            co_await t.Io(sim::Msec(3));
          }
        },
        "sa-lender-" + std::to_string(i));
  }
  s->Add(std::move(sa_lender));
  s->Add(MakeHungrySpace(s->h, "borrower", 6, /*iters=*/300));
  return s;
}

// A kt lender dipping into a hoarding borrower that takes every loan,
// ignores every upcall and never yields (the adversarial sweep of
// bench_lending), optionally with 40% of recalls held back 3ms.
std::unique_ptr<Scenario> Hoarder(bool delay_reclaims) {
  auto s = std::make_unique<Scenario>(LendingOn(/*processors=*/6, /*seed=*/2));
  if (delay_reclaims) {
    inject::FaultPlan plan;
    plan.seed = 2;
    plan.reclaim_delay = 0.4;
    plan.reclaim_delay_for = sim::Msec(3);
    s->h.EnableFaultInjection(plan);
  }
  s->Add(MakeOscillator(s->h, "lender", 2, sim::Msec(4), sim::Msec(8), /*iters=*/12));
  s->Add(std::make_unique<rt::MisbehavingRuntime>(&s->h.kernel(), "hoarder",
                                                  /*claimed_demand=*/6),
         /*background=*/true);
  return s;
}

// ---------------------------------------------------------------------------
// Dip-lending and instant reclaim.
// ---------------------------------------------------------------------------

TEST(Lending, KtDipLendsSurplusAndDemandReturnReclaimsInstantly) {
  const std::unique_ptr<Scenario> s = KtDip();
  rt::Harness& h = s->h;
  h.EnableTracing(trace::cat::kAll);

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  const kern::KernelCounters& c = h.kernel().counters();
  EXPECT_GT(c.loans_granted, 0);
  EXPECT_GT(c.loans_reclaimed, 0);
  // No hoarding, no watchdog noise on the cooperative path.
  EXPECT_EQ(c.loans_force_revoked, 0);
  EXPECT_EQ(h.kernel().reaper()->stats().hoards, 0);

  // Instant reclaim: every recall resolved in well under a grant-loop
  // renegotiation (the preempt interrupt + the loan-reclaim charge).
  const trace::LatencyHistogram& lat = h.kernel().allocator()->reclaim_latency();
  ASSERT_GT(lat.count(), 0u);
  EXPECT_LT(lat.max(), sim::Msec(1));

  // Ledger and per-space bookkeeping agree machine-wide.
  kern::AddressSpace* las = s->lender()->address_space();
  kern::AddressSpace* bas = s->borrower()->address_space();
  EXPECT_GT(las->loan_state().lends, 0);
  EXPECT_GT(bas->loan_state().borrows, 0);
  EXPECT_EQ(las->loan_state().borrowed_in, 0);
  EXPECT_EQ(h.kernel().allocator()->CheckConservation(), "");

  const std::vector<trace::Record> records = h.trace()->Snapshot();
  EXPECT_GT(CountKind(records, trace::Kind::kLoanGrant, las->id()), 0);
  EXPECT_GT(CountKind(records, trace::Kind::kLoanReclaimIssue, las->id()), 0);
  EXPECT_GT(CountKind(records, trace::Kind::kLoanReturn, las->id()), 0);
  const trace::CheckResult check = trace::CheckInvariants(records);
  EXPECT_TRUE(check.ok()) << check.Summary();
  EXPECT_GT(check.loan_checks, 0u);
  EXPECT_GT(check.alloc_checks, 0u);

  // The report surfaces the lending section.
  const rt::RunReport report = rt::MakeReport(h);
  EXPECT_TRUE(report.lending_active);
  EXPECT_FALSE(report.lending_spaces.empty());
  EXPECT_NE(report.ToString().find("loans:"), std::string::npos);
}

// Dips shorter than the hysteresis window never lend, however close
// together they come: each re-armed window starts a full hysteresis.  The
// lender sleeps 1.2 ms of every 1.4 ms, so a window left over from one dip
// would expire 2 ms after that dip began, inside the next one, and lend.
TEST(Lending, KtDipShorterThanHysteresisNeverLends) {
  static_assert(kern::ProcessorAllocator::kDipHysteresis == sim::Msec(2));
  rt::Harness h(LendingOn(/*processors=*/4));

  auto lender = MakeOscillator(h, "lender", 1, sim::Usec(200), sim::Usec(1200),
                               /*iters=*/1000);
  h.AddRuntime(lender.get(), /*background=*/true);
  auto borrower = MakeHungrySpace(h, "borrower", 4, /*iters=*/120);
  h.AddRuntime(borrower.get());

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  const kern::KernelCounters& c = h.kernel().counters();
  EXPECT_GT(c.io_blocks, 40);  // the lender dipped dozens of times
  EXPECT_EQ(c.loans_granted, 0);
}

TEST(Lending, SaYieldHintLendsIdleProcessor) {
  const std::unique_ptr<Scenario> s = SaYieldHint();
  rt::Harness& h = s->h;
  h.EnableTracing(trace::cat::kLending | trace::cat::kUpcall);

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  const kern::KernelCounters& c = h.kernel().counters();
  kern::AddressSpace* las = s->lender()->address_space();
  EXPECT_GT(c.downcalls_yield_hint, 0);
  EXPECT_GT(c.loans_granted, 0);
  EXPECT_GT(las->loan_state().lends, 0);

  const std::vector<trace::Record> records = h.trace()->Snapshot();
  EXPECT_GT(CountKind(records, trace::Kind::kLoanYieldHint, las->id()), 0);
  const trace::CheckResult check = trace::CheckInvariants(records);
  EXPECT_TRUE(check.ok()) << check.Summary();
}

// ---------------------------------------------------------------------------
// The reclaim-deadline watchdog.
// ---------------------------------------------------------------------------

TEST(Lending, WatchdogForceRevokesLoanStalledPastTheDeadlineLadder) {
  const std::unique_ptr<Scenario> s = StalledReclaim();
  rt::Harness& h = s->h;
  h.EnableTracing(trace::cat::kLending | trace::cat::kLifecycle);

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  const kern::KernelCounters& c = h.kernel().counters();
  EXPECT_GT(c.loans_force_revoked, 0);
  EXPECT_GE(c.loan_deadline_pings, 2);
  // Every recalled loan is one latency sample, the force-revoked ones (the
  // slowest) included.
  EXPECT_EQ(h.kernel().allocator()->reclaim_latency().count(),
            static_cast<uint64_t>(c.loans_reclaimed));

  // The hoarder was quarantined through the reaper with a clean audit, and
  // the lender got its processors back and finished.
  kern::AddressSpace* bas = s->borrower()->address_space();
  EXPECT_EQ(bas->lifecycle(), kern::AsLifecycle::kDead);
  EXPECT_EQ(bas->teardown_cause(), kern::TeardownCause::kHoarded);
  EXPECT_EQ(h.kernel().reaper()->ConservationReport(bas), "");
  EXPECT_GE(h.kernel().reaper()->stats().hoards, 1);
  EXPECT_EQ(s->lender()->threads_finished(), s->lender()->threads_created());
  EXPECT_EQ(h.kernel().allocator()->loans_outstanding(), 0);

  const std::vector<trace::Record> records = h.trace()->Snapshot();
  EXPECT_GT(CountKind(records, trace::Kind::kLoanDeadlinePing), 0);
  EXPECT_GT(CountKind(records, trace::Kind::kLoanForceRevoke), 0);
  // Even force-revocation closes the loan inside the checker's
  // no-loan-outlives-deadline bound.
  const trace::CheckResult check = trace::CheckInvariants(records);
  EXPECT_TRUE(check.ok()) << check.Summary();
}

// ---------------------------------------------------------------------------
// Loans across teardown.
// ---------------------------------------------------------------------------

TEST(Lending, BorrowerCrashReturnsTheProcessorToItsLender) {
  const std::unique_ptr<Scenario> s =
      CrashMidLoan(/*crash_space=*/1, /*lender_iters=*/4, /*borrower_iters=*/100000);
  rt::Harness& h = s->h;
  h.EnableTracing(trace::cat::kLending | trace::cat::kLifecycle);

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  EXPECT_GT(h.kernel().counters().loans_granted, 0);
  kern::AddressSpace* bas = s->borrower()->address_space();
  EXPECT_EQ(bas->lifecycle(), kern::AsLifecycle::kDead);
  EXPECT_EQ(h.kernel().reaper()->ConservationReport(bas), "");
  EXPECT_EQ(s->lender()->address_space()->loan_state().loaned_out, 0);
  EXPECT_EQ(h.kernel().allocator()->loans_outstanding(), 0);
  // The lender survived its debtor's death and finished its work.
  EXPECT_EQ(s->lender()->threads_finished(), s->lender()->threads_created());

  const std::vector<trace::Record> records = h.trace()->Snapshot();
  int borrower_death_returns = 0;
  for (const trace::Record& r : records) {
    if (static_cast<trace::Kind>(r.kind) == trace::Kind::kLoanReturn &&
        r.arg1 == static_cast<uint64_t>(trace::LoanReturnReason::kBorrowerDeath)) {
      ++borrower_death_returns;
    }
  }
  EXPECT_GT(borrower_death_returns, 0);
  const trace::CheckResult check = trace::CheckInvariants(records);
  EXPECT_TRUE(check.ok()) << check.Summary();
}

TEST(Lending, LenderCrashTransfersOwnershipToTheBorrower) {
  const std::unique_ptr<Scenario> s =
      CrashMidLoan(/*crash_space=*/0, /*lender_iters=*/1000, /*borrower_iters=*/60);
  rt::Harness& h = s->h;
  h.EnableTracing(trace::cat::kLending | trace::cat::kLifecycle);

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  // The loan became the borrower's outright: no processor motion, clean
  // conservation on the dead lender, nothing left in the ledger.
  EXPECT_GT(h.kernel().counters().loans_adopted, 0);
  kern::AddressSpace* las = s->lender()->address_space();
  EXPECT_EQ(las->lifecycle(), kern::AsLifecycle::kDead);
  EXPECT_EQ(h.kernel().reaper()->ConservationReport(las), "");
  EXPECT_EQ(h.kernel().allocator()->loans_outstanding(), 0);
  EXPECT_EQ(s->borrower()->threads_finished(), s->borrower()->threads_created());

  const std::vector<trace::Record> records = h.trace()->Snapshot();
  EXPECT_GT(CountKind(records, trace::Kind::kLoanAdopt, las->id()), 0);
  const trace::CheckResult check = trace::CheckInvariants(records);
  EXPECT_TRUE(check.ok()) << check.Summary();
}

// ---------------------------------------------------------------------------
// Churn with loans in flight.
// ---------------------------------------------------------------------------

TEST(Lending, ChurnWithLoansInFlightConservesProcessors) {
  const std::unique_ptr<Scenario> s = Churn();
  rt::Harness& h = s->h;
  h.EnableTracing(trace::cat::kLending | trace::cat::kLifecycle);

  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  EXPECT_GT(h.kernel().counters().loans_granted, 0);
  EXPECT_EQ(h.kernel().allocator()->reclaim_latency().count(),
            static_cast<uint64_t>(h.kernel().counters().loans_reclaimed));
  // Machine-wide conservation: every processor is free, held by exactly one
  // space or detaching, and the ledger agrees with every space's counts.
  EXPECT_EQ(h.kernel().allocator()->CheckConservation(), "");

  const trace::CheckResult check = trace::CheckInvariants(h.trace()->Snapshot());
  EXPECT_TRUE(check.ok()) << check.Summary();
}

// ---------------------------------------------------------------------------
// Composition with affinity allocation.
// ---------------------------------------------------------------------------

TEST(Lending, ComposesWithAffinityUnderRevocationStorms) {
  // Loans, warm regrants and storm revocations interleave on the one
  // allocator decision path.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const std::unique_ptr<Scenario> s = AffinityStorm(seed);
    rt::Harness& h = s->h;
    h.EnableTracing(trace::cat::kAll);

    const rt::RunResult result = h.TryRun();
    ASSERT_TRUE(result.ok()) << "seed " << seed << ":\n" << result.diagnostics;

    kern::Kernel& k = h.kernel();
    EXPECT_GT(k.counters().loans_granted, 0) << "seed " << seed;
    int64_t warm = 0;
    for (const auto& as : k.spaces()) {
      warm += k.allocator()->stats_for(as.get()).warm_grants;
    }
    EXPECT_GT(warm, 0) << "seed " << seed;
    // Conservation: storms can leave a processor mid-revocation when the
    // run stops; it counts as detaching.
    EXPECT_EQ(k.allocator()->CheckConservation(), "") << "seed " << seed;

    trace::CheckOptions opts;
    opts.idle_ready_threshold += StormPlan(seed).ExtraIdleSlack();
    const trace::CheckResult check = trace::CheckInvariants(h.trace()->Snapshot(), opts);
    EXPECT_TRUE(check.ok()) << "seed " << seed << ":\n" << check.Summary();
  }
}

// ---------------------------------------------------------------------------
// Pinned lending-on traces.  Each scenario's full trace (every category) and
// loan counters must match the pinned values: a lending change that moves a
// single record, or opens, recalls, adopts or force-revokes one loan more or
// fewer, fails here.  Simulator event counts are deliberately not pinned: a
// closed loan cancels its timers, so they fall without any record moving.
// ---------------------------------------------------------------------------

struct Pin {
  size_t records;
  uint64_t digest;
  int64_t granted;
  int64_t reclaimed;
  int64_t adopted;
  int64_t force_revoked;
};

void ExpectPinned(Scenario& s, const Pin& pin) {
  s.h.EnableTracing(trace::cat::kAll);
  const rt::RunResult result = s.h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  const std::vector<trace::Record> records = s.h.trace()->Snapshot();
  const kern::KernelCounters& c = s.h.kernel().counters();
  EXPECT_EQ(records.size(), pin.records);
  EXPECT_EQ(TraceDigest(records), pin.digest);
  EXPECT_EQ(c.loans_granted, pin.granted);
  EXPECT_EQ(c.loans_reclaimed, pin.reclaimed);
  EXPECT_EQ(c.loans_adopted, pin.adopted);
  EXPECT_EQ(c.loans_force_revoked, pin.force_revoked);
}

TEST(LendingDigest, KtDipWithReclaim) {
  ExpectPinned(*KtDip(), {1810, 0x87401434ed81480dull, 16, 16, 0, 0});
}

TEST(LendingDigest, SaYieldHint) {
  ExpectPinned(*SaYieldHint(), {967, 0x136140a2062e86b1ull, 2, 0, 0, 0});
}

TEST(LendingDigest, WatchdogForceRevoke) {
  ExpectPinned(*StalledReclaim(), {600, 0x6fdb46c551c6395aull, 2, 2, 0, 1});
}

TEST(LendingDigest, BorrowerCrash) {
  ExpectPinned(*CrashMidLoan(/*crash_space=*/1, /*lender_iters=*/4,
                             /*borrower_iters=*/100000),
               {209, 0x4dffe5494541acc5ull, 2, 0, 0, 0});
}

TEST(LendingDigest, LenderCrashAdoption) {
  ExpectPinned(*CrashMidLoan(/*crash_space=*/0, /*lender_iters=*/1000,
                             /*borrower_iters=*/60),
               {603, 0x16d9b0073d9eb00bull, 2, 0, 2, 0});
}

TEST(LendingDigest, Churn) {
  ExpectPinned(*Churn(), {2089, 0x9eb8adc2ba47bb77ull, 11, 8, 3, 0});
}

TEST(LendingDigest, AffinityUnderRevocationStorms) {
  const Pin pins[] = {
      {7264, 0x31b3c53c24cadea9ull, 14, 6, 6, 0},
      {7276, 0x2c55bda1c95ef429ull, 12, 6, 4, 0},
      {7313, 0x6d6a534f65f5ca30ull, 15, 7, 6, 0},
      {6649, 0xae7eab883817b7a2ull, 11, 4, 5, 0},
      {7433, 0x5e90f8f636f8baa5ull, 13, 8, 4, 0},
      {7261, 0xef109e52c7949dfcull, 12, 6, 4, 0},
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectPinned(*AffinityStorm(seed), pins[seed - 1]);
  }
}

TEST(LendingDigest, Hoarder) {
  ExpectPinned(*Hoarder(/*delay_reclaims=*/false),
               {2165, 0x571ae4396eba7705ull, 24, 24, 0, 0});
}

TEST(LendingDigest, HoarderWithDelayedReclaims) {
  ExpectPinned(*Hoarder(/*delay_reclaims=*/true),
               {2408, 0xdb416ad597264216ull, 25, 22, 3, 0});
}

TEST(LendingDigest, LyingHintsAndDelayedReclaims) {
  const std::unique_ptr<Scenario> s = LyingHintsAndDelayedReclaims();
  ExpectPinned(*s, {10266, 0xd5fbed1526dd22c0ull, 35, 25, 9, 0});
  // Both faults actually fired.
  EXPECT_GT(s->h.injector()->stats().yield_hint_lies, 0);
  EXPECT_GT(s->h.injector()->stats().loan_reclaim_delays, 0);
}

// ---------------------------------------------------------------------------
// Zero perturbation with lending disabled.
// ---------------------------------------------------------------------------

enum class Style { kProtocol, kStorm, kMultitenant };

// `armed` plants every disabled-lending hook on the hot paths behind the
// off switch: lend_idle on every SA space, and zero-probability lending
// fault fields on an (inactive) injector.  None of it may move a single
// record.
std::vector<trace::Record> RunSeededStyle(Style style, bool armed) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = 11;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kAll);
  if (style == Style::kStorm) {
    inject::FaultPlan plan;
    plan.seed = 7;
    plan.storm_period = sim::Msec(1);
    plan.storm_burst = 2;
    if (armed) {
      plan.reclaim_delay = 0.0;  // zero probability: never fires, never draws
      plan.reclaim_delay_for = sim::Msec(77);
      plan.yield_lie = 0.0;
    }
    h.EnableFaultInjection(plan);
  }

  std::unique_ptr<traffic::TrafficGenerator> gen;
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  uc.lend_idle = armed;  // inert while the kernel switch is off
  ult::UltRuntime sa1(&h.kernel(), "sa1", ult::BackendKind::kSchedulerActivations,
                      uc);
  ult::UltRuntime sa2(&h.kernel(), "sa2", ult::BackendKind::kSchedulerActivations,
                      uc);
  rt::TopazRuntime kt(&h.kernel(), "kt");
  if (style == Style::kMultitenant) {
    traffic::TrafficConfig tc;
    tc.seed = 13;
    tc.horizon = sim::Msec(40);
    tc.drain = sim::Msec(30);
    traffic::TenantSpec a;
    a.name = "tenant-a";
    a.arrivals.rate = 300.0;
    a.mix = {traffic::RequestClass{"req", 1.0, sim::Usec(800),
                                   traffic::RequestClass::Dist::kFixed, 0}};
    a.slo.latency = sim::Msec(50);
    traffic::TenantSpec b = a;
    b.name = "tenant-b";
    b.arrivals.rate = 150.0;
    tc.tenants = {a, b};
    gen = std::make_unique<traffic::TrafficGenerator>(&h, tc);
  } else {
    h.AddRuntime(&sa1);
    h.AddRuntime(&sa2);
    h.AddRuntime(&kt);
    h.AddDaemon("daemon", sim::Msec(2), sim::Usec(200));
    for (int i = 0; i < 8; ++i) {
      auto body = [i](rt::ThreadCtx& t) -> sim::Program {
        for (int k = 0; k < 12; ++k) {
          co_await t.Compute(sim::Usec(50 + 9 * (i % 4)));
          if ((k + i) % 3 == 0) {
            co_await t.Io(sim::Usec(70));
          }
        }
      };
      sa1.Spawn(body, "a" + std::to_string(i));
      sa2.Spawn(body, "b" + std::to_string(i));
      if (i % 2 == 0) {
        kt.Spawn(body, "k" + std::to_string(i));
      }
    }
  }
  h.Run();
  return h.trace()->Snapshot();
}

void ExpectByteIdentical(const std::vector<trace::Record>& base,
                         const std::vector<trace::Record>& armed) {
  ASSERT_GT(base.size(), 0u);
  // Nothing lending-flavoured may appear in either run.
  for (const trace::Record& r : armed) {
    const uint16_t k = r.kind;
    ASSERT_FALSE(k >= static_cast<uint16_t>(trace::Kind::kLoanGrant) &&
                 k <= static_cast<uint16_t>(trace::Kind::kLoanDeadlinePing))
        << "lending record " << trace::KindName(static_cast<trace::Kind>(k))
        << " in a lending-disabled run at t=" << r.ts;
  }
  ASSERT_EQ(base.size(), armed.size());
  for (size_t i = 0; i < base.size(); ++i) {
    const trace::Record& a = base[i];
    const trace::Record& b = armed[i];
    const bool same = a.ts == b.ts && a.cpu == b.cpu && a.as_id == b.as_id &&
                      a.kind == b.kind && a.arg0 == b.arg0 && a.arg1 == b.arg1;
    ASSERT_TRUE(same) << "trace diverged at record " << i << ": t=" << a.ts
                      << " vs t=" << b.ts << ", kind "
                      << trace::KindName(static_cast<trace::Kind>(a.kind))
                      << " vs "
                      << trace::KindName(static_cast<trace::Kind>(b.kind));
  }
}

TEST(LendingZeroPerturbation, SaProtocolTraceIsByteIdentical) {
  ExpectByteIdentical(RunSeededStyle(Style::kProtocol, /*armed=*/false),
                      RunSeededStyle(Style::kProtocol, /*armed=*/true));
}

TEST(LendingZeroPerturbation, RevocationStormTraceIsByteIdentical) {
  ExpectByteIdentical(RunSeededStyle(Style::kStorm, /*armed=*/false),
                      RunSeededStyle(Style::kStorm, /*armed=*/true));
}

TEST(LendingZeroPerturbation, MultitenantTraceIsByteIdentical) {
  ExpectByteIdentical(RunSeededStyle(Style::kMultitenant, /*armed=*/false),
                      RunSeededStyle(Style::kMultitenant, /*armed=*/true));
}

}  // namespace
}  // namespace sa
