// Trace layer tests (DESIGN.md §10): ring buffer mechanics, the invariant
// checker's verdicts on hand-built traces, and end-to-end determinism — the
// same seeded simulation must export a byte-identical Chrome trace twice.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/apps/experiments.h"
#include "src/trace/chrome_export.h"
#include "src/trace/histogram.h"
#include "src/trace/invariants.h"
#include "src/trace/trace.h"

namespace sa {
namespace {

using trace::Kind;
using trace::Record;

Record Rec(Kind kind, int64_t ts, int cpu, int as_id, uint64_t a0, uint64_t a1) {
  Record r;
  r.kind = static_cast<uint16_t>(kind);
  r.ts = ts;
  r.cpu = cpu;
  r.as_id = as_id;
  r.arg0 = a0;
  r.arg1 = a1;
  return r;
}

TEST(TraceBuffer, DisabledCategoryIsNotRecorded) {
  trace::TraceBuffer tb(16);
  tb.set_enabled(trace::cat::kKernel);
  EXPECT_TRUE(tb.enabled(trace::cat::kKernel));
  EXPECT_FALSE(tb.enabled(trace::cat::kUlt));
}

TEST(TraceBuffer, RingWrapKeepsNewestAndCountsDropped) {
  trace::TraceBuffer tb(8);
  tb.set_enabled(trace::cat::kAll);
  for (int i = 0; i < 20; ++i) {
    tb.Emit(Kind::kSyscall, i, 0, 0, static_cast<uint64_t>(i), 0);
  }
  EXPECT_EQ(tb.total_emitted(), 20u);
  EXPECT_EQ(tb.dropped(), 12u);
  const std::vector<Record> snap = tb.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().arg0, 12u);  // oldest surviving
  EXPECT_EQ(snap.back().arg0, 19u);   // newest
}

TEST(Histogram, QuantilesAndMerge) {
  trace::LatencyHistogram a;
  for (int i = 1; i <= 100; ++i) {
    a.Add(i * 1000);
  }
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.min(), 1000);
  EXPECT_EQ(a.max(), 100000);
  // Log2 buckets: quantiles are bucket upper bounds, so only coarse order
  // is guaranteed.
  EXPECT_GE(a.Quantile(0.99), a.Quantile(0.5));
  trace::LatencyHistogram b;
  b.Add(500);
  b.Merge(a);
  EXPECT_EQ(b.count(), 101u);
  EXPECT_EQ(b.min(), 500);
}

// Regression: bucket b holds [2^(b-1), 2^b - 1], so a quantile that lands in
// bucket b must report at most 2^b - 1.  The old UpperBound returned 2^b —
// the *first value of the next bucket* — over-reporting by up to 2x (100
// samples of 3 reported a median of 4).
TEST(Histogram, QuantileNeverExceedsTheBucketItLandsIn) {
  trace::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Add(3);
  }
  EXPECT_LE(h.Quantile(0.5), 3);
  EXPECT_GE(h.Quantile(0.5), 2);  // still within value 3's bucket [2, 3]
  EXPECT_LE(h.Quantile(0.99), 3);

  // A power of two sits at the *bottom* of its bucket [2^k, 2^(k+1) - 1];
  // the reported quantile must stay below the next power of two.
  trace::LatencyHistogram p;
  for (int i = 0; i < 10; ++i) {
    p.Add(1024);
  }
  EXPECT_GE(p.Quantile(0.5), 1024);
  EXPECT_LT(p.Quantile(0.5), 2048);
}

// Regression: the overflow bucket (index 63) used to compute 1 << 63 —
// undefined behaviour that in practice produced a *negative* quantile.  Its
// bound now saturates and the global max clamps it to an observed value.
TEST(Histogram, OverflowBucketQuantileIsSaneAndPositive) {
  trace::LatencyHistogram h;
  const int64_t huge = std::numeric_limits<int64_t>::max();
  for (int i = 0; i < 4; ++i) {
    h.Add(huge);
  }
  EXPECT_EQ(h.max(), huge);
  EXPECT_GT(h.Quantile(0.5), 0);
  EXPECT_EQ(h.Quantile(0.99), huge);
}

// Regression: summing a few INT64_MAX samples used to wrap sum_ negative
// (signed overflow, UB) and report a negative mean.  The sum now saturates.
TEST(Histogram, SumSaturatesInsteadOfWrapping) {
  trace::LatencyHistogram h;
  const int64_t huge = std::numeric_limits<int64_t>::max();
  h.Add(huge);
  h.Add(huge);
  EXPECT_GT(h.mean(), 0);

  // Merging two saturated histograms must not wrap either.
  trace::LatencyHistogram other;
  other.Add(huge);
  other.Add(huge);
  h.Merge(other);
  EXPECT_GT(h.mean(), 0);
  EXPECT_EQ(h.count(), 4u);
}

// The exact p-th percentile (p in [0, 100]) of `values`, interpolated
// linearly between the closest ranks: the oracle for the histogram's
// interpolated quantiles.
double ExactPercentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// Regression (red on the pre-interpolation Quantile): pin p50/p99/p999
// against exact percentiles on the same data.  The old code
// returned the log-2 bucket upper bound outright, so on values spread over
// [1000, 9000] it reported p50 = 8191 (true ~5000) and p999 = 16383 (true
// ~8992) — up to ~2x overstatement.  Count-weighted interpolation across each
// bucket's observed value range must land within a few percent of exact.
TEST(Histogram, InterpolatedQuantilesTrackExactPercentiles) {
  trace::LatencyHistogram h;
  std::vector<double> exact;
  // Deterministic near-uniform sweep of [1000, 9000]; spans five buckets.
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    const int64_t v = 1000 + (static_cast<int64_t>(i) * 8000) / (kN - 1);
    h.Add(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const double q : {0.50, 0.99, 0.999}) {
    const double want = ExactPercentile(exact, q * 100.0);
    const double got = static_cast<double>(h.Quantile(q));
    EXPECT_NEAR(got, want, 0.06 * want)
        << "q=" << q << " exact=" << want << " histogram=" << got;
  }
}

// A single far outlier occupies a high bucket alone; quantiles below it must
// not be dragged toward that bucket, and p999 must stay anchored to the
// bulk's observed range rather than a nominal power-of-two bound.
TEST(Histogram, OutlierDoesNotInflateTailQuantiles) {
  trace::LatencyHistogram h;
  std::vector<double> exact;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    const int64_t v = 1000 + (static_cast<int64_t>(i) * 8000) / (kN - 1);
    h.Add(v);
    exact.push_back(static_cast<double>(v));
  }
  h.Add(10'000'000);
  exact.push_back(10'000'000.0);
  const double want = ExactPercentile(exact, 99.9);  // ~8992, outlier censored
  const double got = static_cast<double>(h.Quantile(0.999));
  EXPECT_NEAR(got, want, 0.06 * want);
  // The outlier itself is still reachable at the very top.
  EXPECT_EQ(h.Quantile(1.0), 10'000'000);
}

// Merge must propagate both the per-bucket observed ranges (so interpolation
// stays tight after combining shards) and the saturation flag.
TEST(Histogram, MergePropagatesBucketRangesAndSaturation) {
  trace::LatencyHistogram a;
  trace::LatencyHistogram b;
  for (int i = 0; i < 1000; ++i) {
    a.Add(1100);  // bucket [1024, 2047], clustered low
    b.Add(1900);  //   same bucket, clustered high
  }
  trace::LatencyHistogram merged;
  merged.Merge(a);
  merged.Merge(b);
  // Half the mass at 1100, half at 1900: the median interpolates inside
  // [1100, 1900], nowhere near the nominal bucket bound 2047.
  EXPECT_GE(merged.Quantile(0.5), 1100);
  EXPECT_LE(merged.Quantile(0.5), 1900);
  EXPECT_FALSE(merged.saturated());

  trace::LatencyHistogram big;
  big.Add(std::numeric_limits<int64_t>::max());
  big.Add(std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(big.saturated());
  merged.Merge(big);
  EXPECT_TRUE(merged.saturated());  // flag survives the merge
  EXPECT_GT(merged.mean(), 0);      // ...and the mean still does not wrap
}

TEST(Invariants, CleanTracePasses) {
  std::vector<Record> recs = {
      Rec(Kind::kVessel, 100, -1, 0, 2, 2),
      Rec(Kind::kUltReady, 150, 0, 0, 7, 1),
      Rec(Kind::kUltDispatch, 160, 0, 0, 0, 7),
      Rec(Kind::kUltRunnable, 160, 0, 0, 0, 0),
      Rec(Kind::kVessel, 200, -1, 0, 1, 1),
  };
  const trace::CheckResult r = trace::CheckInvariants(recs);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.vessel_checks, 2u);
}

TEST(Invariants, VesselMismatchIsViolation) {
  std::vector<Record> recs = {Rec(Kind::kVessel, 100, -1, 3, 2, 1)};
  const trace::CheckResult r = trace::CheckInvariants(recs);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.Summary().find("vessel invariant violated"), std::string::npos);
}

TEST(Invariants, VesselMismatchInFaultWindowIsExempt) {
  std::vector<Record> recs = {
      Rec(Kind::kUpcallFaultBegin, 100, 0, 0, 0, 0),
      Rec(Kind::kVessel, 150, -1, 0, 2, 1),
      Rec(Kind::kUpcallFaultEnd, 200, 0, 0, 0, 0),
      Rec(Kind::kVessel, 300, -1, 0, 1, 1),
  };
  const trace::CheckResult r = trace::CheckInvariants(recs);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST(Invariants, IdleWhileReadyPastThresholdIsViolation) {
  std::vector<Record> recs = {
      Rec(Kind::kUltReady, 100, 0, 0, 7, 1),           // work queued
      Rec(Kind::kUltIdle, 200, 1, 0, 1, 0),            // vcpu 1 idles anyway
      Rec(Kind::kUltDispatch, 10'000'200, 1, 0, 1, 7),  // picked up 10ms later
  };
  const trace::CheckResult r = trace::CheckInvariants(recs);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.Summary().find("idle processor while ready work"), std::string::npos);
}

TEST(Invariants, UnbindClosesIdleIntervalWithoutViolation) {
  // Same shape as above, but the vcpu loses its processor right after going
  // idle: the 10 ms of queueing afterwards is allocator latency, not a lost
  // wakeup.
  std::vector<Record> recs = {
      Rec(Kind::kUltReady, 100, 0, 0, 7, 1),
      Rec(Kind::kUltIdle, 200, 1, 0, 1, 0),
      Rec(Kind::kUltUnbind, 300, 1, 0, 1, 0),
      Rec(Kind::kUltDispatch, 10'000'200, 1, 0, 1, 7),
  };
  const trace::CheckResult r = trace::CheckInvariants(recs);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST(Invariants, OpenIdleWindowAtTraceEndIsViolation) {
  std::vector<Record> recs = {
      Rec(Kind::kUltReady, 100, 0, 0, 7, 1),
      Rec(Kind::kUltIdle, 200, 1, 0, 1, 0),
      Rec(Kind::kSyscall, 20'000'000, 0, 0, 1, 1),  // trace goes on; no pickup
  };
  const trace::CheckResult r = trace::CheckInvariants(recs);
  ASSERT_EQ(r.violations.size(), 1u);
}

TEST(ChromeExport, PairsSpansAndEscapesNothingUnexpected) {
  std::vector<Record> recs = {
      Rec(Kind::kSpanBegin, 1000, 0, 0, 1, 0),
      Rec(Kind::kSpanEnd, 3000, 0, 0, 1, 2000),
      Rec(Kind::kUpcallDeliver, 2000, 1, 0, 2, 5),
  };
  const std::string json = trace::ExportChromeJson(recs);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // paired span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

// The tentpole determinism guarantee: the smallest Figure-1 configuration,
// run twice with the same seed and full tracing, exports byte-identical
// Chrome traces.  Any hidden host state (pointers, wall-clock reads, hash
// iteration order) in the simulated path would break this.
TEST(TraceDeterminism, SeededFig1RunExportsByteIdenticalTraces) {
  const apps::NBodyConfig config;  // bench_fig1's config
  const apps::DaemonConfig daemons;
  std::string first;
  std::string second;
  apps::RunNBody(apps::SystemKind::kNewFastThreads, /*processors=*/1, config,
                 daemons, /*copies=*/1, /*seed=*/7, {}, false, &first);
  apps::RunNBody(apps::SystemKind::kNewFastThreads, /*processors=*/1, config,
                 daemons, /*copies=*/1, /*seed=*/7, {}, false, &second);
  ASSERT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
  // All simulated categories show up.
  EXPECT_NE(first.find("upcall-deliver"), std::string::npos);
  EXPECT_NE(first.find("ult-dispatch"), std::string::npos);
  EXPECT_NE(first.find("syscall"), std::string::npos);
}

}  // namespace
}  // namespace sa
