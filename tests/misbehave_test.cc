// Isolation under misbehavior (paper §4.1: "a misbehaving address space can
// only hurt itself").  A MisbehavingRuntime lies about its demand, hoards
// processors, and ignores every upcall; the well-behaved spaces sharing the
// machine must complete in (nearly) the same time as when the same share of
// the machine is held by a cooperative peer, with the SA protocol invariants
// intact throughout.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/rt/harness.h"
#include "src/rt/misbehaving_runtime.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/invariants.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

constexpr int kProcessors = 6;

void SpawnForegroundWork(rt::Runtime* rt, const std::string& prefix) {
  for (int i = 0; i < 4; ++i) {
    rt->Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 5; ++k) {
            co_await t.Compute(sim::Msec(20));
            co_await t.Io(sim::Msec(2));
          }
        },
        prefix + "-" + std::to_string(i));
  }
}

// Runs the well-behaved foreground spaces next to either a cooperative
// compute-bound peer (claims 2 processors, uses them honestly) or the
// misbehaving space (claims the whole machine, ignores the protocol).
// Returns the foreground completion time.
sim::Time RunBesidePeer(bool misbehaving, trace::CheckResult* check) {
  rt::HarnessConfig config;
  config.processors = kProcessors;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kUpcall | trace::cat::kUlt);

  // Foreground space 1: well-behaved SA client.
  ult::UltConfig uc;
  uc.max_vcpus = 2;
  ult::UltRuntime wb(&h.kernel(), "wb", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&wb);
  SpawnForegroundWork(&wb, "wb");

  // Foreground space 2: plain kernel threads sharing the same allocator.
  rt::TopazRuntime kt(&h.kernel(), "kt");
  h.AddRuntime(&kt);
  SpawnForegroundWork(&kt, "kt");

  // The peer under test (background: never gates completion).
  std::unique_ptr<rt::Runtime> peer;
  std::unique_ptr<rt::MisbehavingRuntime> mis;
  if (misbehaving) {
    mis = std::make_unique<rt::MisbehavingRuntime>(&h.kernel(), "adversary",
                                                   /*claimed_demand=*/kProcessors);
    h.AddRuntime(mis.get(), /*background=*/true);
  } else {
    ult::UltConfig pc;
    pc.max_vcpus = 2;
    auto coop = std::make_unique<ult::UltRuntime>(
        &h.kernel(), "peer", ult::BackendKind::kSchedulerActivations, pc);
    for (int i = 0; i < 2; ++i) {
      coop->Spawn(
          [](rt::ThreadCtx& t) -> sim::Program {
            for (;;) {
              co_await t.Compute(sim::Msec(10));
            }
          },
          "peer-" + std::to_string(i));
    }
    peer = std::move(coop);
    h.AddRuntime(peer.get(), /*background=*/true);
  }

  const sim::Time elapsed = h.Run();
  if (check != nullptr) {
    *check = trace::CheckInvariants(h.trace()->Snapshot());
  }
  if (mis != nullptr) {
    // The adversary must actually have misbehaved for the comparison to mean
    // anything: it held processors (so it got upcalls it then ignored), lied
    // about demand, and had processors yanked back by the allocator.
    EXPECT_GT(mis->upcall_events_ignored(), 0);
    EXPECT_GT(mis->lies_told(), 0);
    EXPECT_GT(mis->preemptions_dropped(), 0);
    std::printf("[ info ] adversary: %lld upcall events ignored, %lld demand "
                "lies, %lld revocations absorbed\n",
                static_cast<long long>(mis->upcall_events_ignored()),
                static_cast<long long>(mis->lies_told()),
                static_cast<long long>(mis->preemptions_dropped()));
  }
  return elapsed;
}

TEST(Misbehave, WellBehavedSpacesAreIsolated) {
  trace::CheckResult coop_check, mis_check;
  const sim::Time with_coop = RunBesidePeer(/*misbehaving=*/false, &coop_check);
  const sim::Time with_mis = RunBesidePeer(/*misbehaving=*/true, &mis_check);

  // Isolation: the adversary costs the well-behaved spaces no more than 10%
  // versus an honest peer holding the same fair share.
  const double ratio =
      static_cast<double>(with_mis) / static_cast<double>(with_coop);
  std::printf("[ info ] foreground completion: %s beside cooperative peer, "
              "%s beside adversary (ratio %.3f)\n",
              sim::FormatDuration(with_coop).c_str(),
              sim::FormatDuration(with_mis).c_str(), ratio);
  EXPECT_LT(ratio, 1.10) << "misbehaving peer slowed foreground: "
                         << sim::FormatDuration(with_coop) << " -> "
                         << sim::FormatDuration(with_mis);
  EXPECT_GT(ratio, 0.90);

  // The protocol invariants hold machine-wide in both runs — including for
  // the adversary's own space, whose kernel-side bookkeeping the kernel
  // maintains no matter what user level does.
  EXPECT_TRUE(coop_check.ok()) << coop_check.Summary();
  EXPECT_TRUE(mis_check.ok()) << mis_check.Summary();
  EXPECT_GT(mis_check.vessel_checks, 0u);
}

// §4.1 isolation under cross-space lending (DESIGN.md §16): an adversary
// that soaks up every loan and never volunteers a processor back may not
// slow the lender beyond the instant-reclaim bound.  The lender's demand
// dips feed the hoarder; every dip's worth of processors must come back the
// moment demand returns, so the lender's completion time with lending on
// (hoarder fattened by its surplus) stays within noise of lending off
// (surplus idles in the kernel instead).
sim::Time RunLenderBesideHoarder(bool lending, int64_t* loans_hoarded,
                                 trace::CheckResult* check) {
  rt::HarnessConfig config;
  config.processors = kProcessors;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.lending = lending;
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kUpcall | trace::cat::kUlt | trace::cat::kLending);

  // The lender-to-be: kernel threads alternating compute and sleep, so its
  // demand dips below its holdings every cycle.
  rt::TopazRuntime kt(&h.kernel(), "kt");
  h.AddRuntime(&kt);
  for (int i = 0; i < 2; ++i) {
    kt.Spawn(
        [](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 8; ++k) {
            co_await t.Compute(sim::Msec(4));
            co_await t.Io(sim::Msec(8));
          }
        },
        "kt-" + std::to_string(i));
  }

  // A well-behaved SA space shares the machine and must also stay whole.
  ult::UltConfig uc;
  uc.max_vcpus = 2;
  ult::UltRuntime wb(&h.kernel(), "wb", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&wb);
  SpawnForegroundWork(&wb, "wb");

  // The hoarding borrower: claims the whole machine, takes every loan,
  // ignores every upcall, and never yields anything voluntarily.
  rt::MisbehavingRuntime mis(&h.kernel(), "hoarder",
                             /*claimed_demand=*/kProcessors);
  h.AddRuntime(&mis, /*background=*/true);

  const sim::Time elapsed = h.Run();
  if (loans_hoarded != nullptr) {
    *loans_hoarded = mis.loans_hoarded();
  }
  if (check != nullptr) {
    *check = trace::CheckInvariants(h.trace()->Snapshot());
  }
  if (lending) {
    // The comparison is vacuous unless loans actually flowed to the
    // adversary and were recalled without the watchdog's help.
    EXPECT_GT(h.kernel().counters().loans_granted, 0);
    EXPECT_GT(h.kernel().counters().loans_reclaimed, 0);
    EXPECT_EQ(h.kernel().counters().loans_force_revoked, 0);
  }
  return elapsed;
}

TEST(Misbehave, HoardingBorrowerCannotSlowItsLender) {
  trace::CheckResult off_check, on_check;
  int64_t hoarded = 0;
  const sim::Time without = RunLenderBesideHoarder(false, nullptr, &off_check);
  const sim::Time with = RunLenderBesideHoarder(true, &hoarded, &on_check);

  EXPECT_GT(hoarded, 0) << "adversary never became a borrower";
  const double ratio = static_cast<double>(with) / static_cast<double>(without);
  std::printf("[ info ] lender foreground: %s without lending, %s lending to "
              "the hoarder (ratio %.3f, %lld loans hoarded)\n",
              sim::FormatDuration(without).c_str(),
              sim::FormatDuration(with).c_str(), ratio,
              static_cast<long long>(hoarded));
  EXPECT_LT(ratio, 1.10) << "hoarding borrower slowed its lender";
  EXPECT_GT(ratio, 0.90);

  EXPECT_TRUE(off_check.ok()) << off_check.Summary();
  EXPECT_TRUE(on_check.ok()) << on_check.Summary();
  EXPECT_GT(on_check.loan_checks, 0u);
}

TEST(Misbehave, AdversaryAloneStillTerminatesForeground) {
  // Degenerate co-run: adversary + a single-threaded foreground space on a
  // small machine.  The foreground must still finish (the allocator revokes
  // hoarded processors on demand).
  rt::HarnessConfig config;
  config.processors = 2;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);

  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime wb(&h.kernel(), "solo", ult::BackendKind::kSchedulerActivations,
                     uc);
  h.AddRuntime(&wb);
  wb.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        for (int k = 0; k < 3; ++k) {
          co_await t.Compute(sim::Msec(5));
          co_await t.Io(sim::Msec(1));
        }
      },
      "solo-0");

  rt::MisbehavingRuntime mis(&h.kernel(), "adversary", /*claimed_demand=*/2);
  h.AddRuntime(&mis, /*background=*/true);

  h.Run();
  EXPECT_EQ(wb.threads_finished(), wb.threads_created());
}

}  // namespace
}  // namespace sa
