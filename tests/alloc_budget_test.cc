// Heap allocations on the simulator's event path (DESIGN.md §3).
//
// Small harness runs shaped like the repository benchmark's three simulator
// workloads count `operator new` over TryRun only (set-up excluded) and hold
// allocations per event to a budget: the count this code makes plus 20 %
// headroom.  What still allocates per event is per-thread state (coroutine
// frames and closures), the allocator's deficit heap and tier ranks (tree
// nodes) and upcall batches beyond the one spare buffer a space keeps.  A
// continuation whose
// capture outgrows sim::Callback's 24 inline bytes, or a container rebuilt
// per event, pushes a run over its budget.  The tenants- and firefly-shaped
// runs also hold the high-water mark of outstanding blocks (news minus
// deletes) to a budget, so keeping finished threads' records fails here.
// All three end with exactly two engine timers per processor, its span end
// and its time slice: each doubling of the timers adds a winner-tree level
// to every arm (six more, never armed, measured +1.5 % on `firefly`'s host
// time), so a change that adds timers to these shapes fails here.  A
// last case checks that a warmed scheduler-activation space delivers
// upcalls without allocating.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/apps/nbody_workload.h"
#include "src/inject/fault_plan.h"
#include "src/rt/harness.h"
#include "src/traffic/traffic.h"
#include "src/ult/ult_runtime.h"
#include "tests/trace_digest.h"

// Global operator new and delete, counted while g_count_news is set:
// allocations, and outstanding blocks with their high-water mark.
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<int64_t> g_news{0};
std::atomic<int64_t> g_outstanding{0};
std::atomic<int64_t> g_peak_outstanding{0};

void CountNew() {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
    const int64_t outstanding = g_outstanding.fetch_add(1, std::memory_order_relaxed) + 1;
    if (outstanding > g_peak_outstanding.load(std::memory_order_relaxed)) {
      g_peak_outstanding.store(outstanding, std::memory_order_relaxed);
    }
  }
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  CountNew();
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// std::stable_sort's temporary buffer comes from the nothrow form; it must
// pair with the free() below (and counts like any other allocation).
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  CountNew();
  return std::malloc(n == 0 ? 1 : n);
}
// Out of line, so the compiler does not see malloc() and free() meet
// new-expressions.
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr && g_count_news.load(std::memory_order_relaxed)) {
    g_outstanding.fetch_sub(1, std::memory_order_relaxed);
  }
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace sa {
namespace {

// Allocations per event each shape makes, plus 20 % headroom (rounded up).
// Measured: tenants 0.926, firefly 0.327, storms 0.227, since a fork takes
// its TCB record from the space's spare records (firefly before: 0.357)
// and the allocator's holder and surplus sets are id bitsets (before them:
// 1.101, 0.370, 0.238).
constexpr double kTenantsBudget = 1.12;
constexpr double kFireflyBudget = 0.40;
constexpr double kStormsBudget = 0.28;
// High-water marks of outstanding blocks, plus 20 % headroom (rounded up).
// Measured: tenants 2144, firefly 639 (before the spare TCB records: 774;
// before the bitsets: 2155, 776).
constexpr int64_t kTenantsPeakBlocks = 2573;
constexpr int64_t kFireflyPeakBlocks = 767;

struct Counted {
  int64_t news = 0;
  int64_t peak_outstanding = 0;  // blocks, relative to the run's start
  int64_t events = 0;
  double per_event() const {
    return static_cast<double>(news) / static_cast<double>(std::max<int64_t>(events, 1));
  }
};

// Runs `harness` to completion, counting allocations, outstanding blocks and
// events over TryRun.
Counted CountRun(rt::Harness& harness) {
  const uint64_t fired_before = harness.engine().events_fired();
  const int64_t news_before = g_news.load();
  g_outstanding = 0;
  g_peak_outstanding = 0;
  g_count_news = true;
  const rt::RunResult result = harness.TryRun(50'000'000);
  g_count_news = false;
  EXPECT_TRUE(result.ok()) << result.diagnostics;
  Counted c;
  c.news = g_news.load() - news_before;
  c.peak_outstanding = g_peak_outstanding.load();
  c.events = static_cast<int64_t>(harness.engine().events_fired() - fired_before);
  return c;
}

std::string Name(const char* prefix, int i) {
  return std::string(prefix).append(std::to_string(i));
}

// `tenants`: kernel-thread tenants in three priority tiers, open loop, on
// the explicit allocator, 16 processors.  Each request is a kernel thread
// running a coroutine, so what this shape allocates is per-request state.
traffic::TrafficConfig TenantsShape() {
  constexpr int kProcessors = 16;
  traffic::TrafficConfig tc;
  tc.seed = 6;
  tc.horizon = sim::Msec(300);
  tc.drain = sim::Msec(100);
  for (int i = 0; i < 2; ++i) {
    traffic::TenantSpec t;
    t.name = Name("hi", i);
    t.priority = 2;
    t.arrivals.rate = 50.0;
    t.mix = {traffic::RequestClass{"rpc", 1.0, sim::Msec(1),
                                   traffic::RequestClass::Dist::kExponential, 0}};
    tc.tenants.push_back(t);
  }
  for (int i = 0; i < 4; ++i) {
    traffic::TenantSpec t;
    t.name = Name("mid", i);
    t.priority = 1;
    t.arrivals.rate = 0.3 * kProcessors / (4 * 0.005);
    t.ramp.period = sim::Msec(50);
    t.ramp.points = {{0, 0.5}, {sim::Msec(25), 1.5}};
    t.mix = {traffic::RequestClass{"job", 1.0, sim::Msec(5),
                                   traffic::RequestClass::Dist::kFixed, 0}};
    tc.tenants.push_back(t);
  }
  for (int i = 0; i < 10; ++i) {
    traffic::TenantSpec t;
    t.name = Name("low", i);
    t.priority = 0;
    t.arrivals.kind = traffic::ArrivalSpec::Kind::kOnOff;
    t.arrivals.rate = 2.5 * 1.5 * kProcessors / (10 * 0.010);
    t.arrivals.on_mean = sim::Msec(40);
    t.arrivals.off_mean = sim::Msec(60);
    t.mix = {traffic::RequestClass{"batch", 1.0, sim::Msec(10),
                                   traffic::RequestClass::Dist::kFixed,
                                   i % 4 == 0 ? sim::Msec(1) : 0}};
    tc.tenants.push_back(t);
  }
  return tc;
}

rt::HarnessConfig TenantsMachine() {
  rt::HarnessConfig config;
  config.processors = 16;
  config.seed = 5;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  return config;
}

TEST(AllocBudget, TenantsShapedRun) {
  rt::Harness harness(TenantsMachine());
  traffic::TrafficGenerator gen(&harness, TenantsShape());
  const Counted c = CountRun(harness);
  ASSERT_GT(gen.total_completions(), 400);
  EXPECT_LE(c.per_event(), kTenantsBudget) << c.news << " allocations for " << c.events
                                           << " events";
  EXPECT_LE(c.peak_outstanding, kTenantsPeakBlocks);
  EXPECT_EQ(harness.engine().num_timers(), 2u * TenantsMachine().processors);
}

// The same run traced: every record is pinned from the code that gave each
// thread a fresh record, so reusing records must leave them alone.  A
// request's 200 ms time slice belongs to its processor and is disarmed
// where the request leaves it, so no slice outlives the thread it timed,
// and the event count holds no fire of a stale one.
TEST(AllocBudget, TenantsShapedTraceIsPinned) {
  rt::Harness harness(TenantsMachine());
  traffic::TrafficGenerator gen(&harness, TenantsShape());
  harness.EnableTracing(trace::cat::kAll, 1u << 14);
  const rt::RunResult result = harness.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  const std::vector<trace::Record> records = harness.trace()->Snapshot();
  EXPECT_EQ(harness.trace()->dropped(), 0u);
  EXPECT_EQ(records.size(), 11723u);
  EXPECT_EQ(TraceDigest(records), 0x7eb529dd4d6988eeull);
  EXPECT_EQ(harness.engine().events_fired(), 4729u);
  EXPECT_EQ(harness.kernel().counters().timeslices, 0);
}

// `firefly`: two N-body copies on FastThreads over scheduler activations,
// six processors, a periodic daemon.  One thread per task, so TCB reuse and
// coroutine frames set the floor.  Each copy's first step starts its
// producer thread, which computes the trajectory ahead on the host and
// starts its force pass's workers (a few allocations, as many as the host
// has CPUs to spare, at most 4 here); the producer's tree, pass results and
// ring slots are allocated once and counted here too.
struct FireflyShape {
  static constexpr int kProcessors = 6;

  static rt::HarnessConfig Machine() {
    rt::HarnessConfig config;
    config.processors = kProcessors;
    config.seed = 5;
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    return config;
  }

  FireflyShape() {
    for (int c = 0; c < 2; ++c) {
      ult::UltConfig uc;
      uc.max_vcpus = kProcessors;
      runtimes.push_back(std::make_unique<ult::UltRuntime>(
          &harness.kernel(), Name("nbody", c), ult::BackendKind::kSchedulerActivations, uc));
      apps::NBodyConfig nc;
      nc.bodies = 300;
      nc.steps = 2;
      nc.memory_percent = 60.0;
      nc.seed = 10 + static_cast<uint64_t>(c);
      apps.push_back(std::make_unique<apps::NBodyApp>(nc));
      apps.back()->InstallOn(runtimes.back().get());
      harness.AddRuntime(runtimes.back().get());
    }
    harness.AddDaemon("daemon", sim::Msec(20), sim::Msec(2));
  }

  rt::Harness harness{Machine()};
  std::vector<std::unique_ptr<ult::UltRuntime>> runtimes;
  std::vector<std::unique_ptr<apps::NBodyApp>> apps;
};

TEST(AllocBudget, FireflyShapedRun) {
  FireflyShape shape;
  const Counted c = CountRun(shape.harness);
  for (const auto& app : shape.apps) {
    EXPECT_TRUE(app->done());
  }
  EXPECT_LE(c.per_event(), kFireflyBudget) << c.news << " allocations for " << c.events
                                           << " events";
  EXPECT_LE(c.peak_outstanding, kFireflyPeakBlocks);
  EXPECT_EQ(shape.harness.engine().num_timers(), 2u * FireflyShape::kProcessors);
}

// The same run traced, every category: the kUltReady and kUltDispatch
// records carry TCB ids, so the pin holds each fork to the id its forking
// processor's free list gives it, whatever record serves that id.
TEST(AllocBudget, FireflyShapedTraceIsPinned) {
  FireflyShape shape;
  shape.harness.EnableTracing(trace::cat::kAll, 1u << 16);
  const rt::RunResult result = shape.harness.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  const std::vector<trace::Record> records = shape.harness.trace()->Snapshot();
  EXPECT_EQ(shape.harness.trace()->dropped(), 0u);
  EXPECT_EQ(records.size(), 10746u);
  EXPECT_EQ(TraceDigest(records), 0x69d2d3da26b7f380ull);
  EXPECT_EQ(shape.harness.engine().events_fired(), 4048u);
}

// An SA space of `threads` threads alternating ~100 µs slices with I/O
// phases, like the `storms` benchmark's spaces.
std::unique_ptr<ult::UltRuntime> IoPhasedSpace(kern::Kernel* kernel, const std::string& name,
                                               int phase, int threads, int iters) {
  ult::UltConfig uc;
  uc.max_vcpus = 8;
  uc.locality_aware_stealing = true;
  auto rt = std::make_unique<ult::UltRuntime>(kernel, name,
                                              ult::BackendKind::kSchedulerActivations, uc);
  for (int i = 0; i < threads; ++i) {
    const sim::Duration slice = sim::Usec(90 + 3 * i);
    const sim::Duration io = sim::Usec(300 + 40 * i);
    rt->Spawn(
        [iters, phase, slice, io](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < iters; ++k) {
            co_await t.Compute(slice);
            if ((k + 4 * phase) % 12 < 4) {
              co_await t.Io(io);
            }
          }
        },
        Name("w", i));
  }
  return rt;
}

// `storms`: a two-socket machine with affinity allocation and
// locality-aware stealing, revocation storms every millisecond, spaces
// arriving mid-run, one crash and one exit for the reaper.  Nearly every
// event is an upcall, a revocation or a span, so this budget is the tightest.
TEST(AllocBudget, StormsShapedRun) {
  rt::HarnessConfig config;
  config.processors = 16;
  config.seed = 5;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  config.kernel.affinity_allocation = true;
  config.topology.sockets = 2;
  config.topology.core_migration_penalty = sim::Usec(10);
  config.topology.socket_migration_penalty = sim::Usec(500);
  rt::Harness harness(config);
  std::vector<std::unique_ptr<ult::UltRuntime>> runtimes;
  for (int s = 0; s < 4; ++s) {
    runtimes.push_back(IoPhasedSpace(&harness.kernel(), Name("app", s), s, 8, 150));
    harness.AddRuntime(runtimes.back().get());
  }
  harness.AddDaemon("daemon", sim::Msec(5), sim::Usec(100));
  inject::FaultPlan plan;
  plan.seed = 9;
  plan.storm_period = sim::Msec(1);
  plan.storm_burst = 2;
  plan.crash_at = sim::Msec(8);
  plan.crash_space = 1;
  plan.exit_at = sim::Msec(16);
  plan.exit_space = 3;
  harness.EnableFaultInjection(plan);
  harness.AddChurn(2, sim::Msec(4), [&harness](int i) -> std::unique_ptr<rt::Runtime> {
    return IoPhasedSpace(&harness.kernel(), Name("churn", i), i, 4, 75);
  });
  harness.set_stall_timeout(sim::Sec(10));
  const Counted c = CountRun(harness);
  EXPECT_GT(harness.kernel().counters().upcalls, 1000);
  EXPECT_LE(c.per_event(), kStormsBudget) << c.news << " allocations for " << c.events
                                          << " events";
  EXPECT_EQ(harness.engine().num_timers(), 2u * config.processors);
}

// Repeated deliveries on a warmed scheduler-activation space — QueueEvent,
// DeliverNow, the backend's RunOn and Drain, the discard downcalls — reuse
// the space's batch buffers, its activation cache and the backend's inbox:
// after warm-up, a window full of upcalls allocates nothing.  One processor,
// so deliveries never overlap and the space's one spare batch suffices.
TEST(AllocBudget, WarmSaSpaceDeliversWithoutAllocating) {
  rt::HarnessConfig config;
  config.processors = 1;
  config.seed = 3;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness harness(config);
  ult::UltConfig uc;
  uc.max_vcpus = 1;
  ult::UltRuntime runtime(&harness.kernel(), "io", ult::BackendKind::kSchedulerActivations,
                          uc);
  for (int i = 0; i < 3; ++i) {
    runtime.Spawn(
        [i](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < 400; ++k) {
            co_await t.Compute(sim::Usec(150 + 20 * i));
            co_await t.Io(sim::Usec(400 + 70 * i));
          }
        },
        Name("w", i));
  }
  harness.AddRuntime(&runtime);
  harness.Start();
  harness.engine().RunUntil(sim::Msec(40));  // warm-up
  const int64_t upcalls_before = harness.kernel().counters().upcalls;
  const int64_t news_before = g_news.load();
  g_count_news = true;
  harness.engine().RunUntil(sim::Msec(160));
  g_count_news = false;
  const int64_t upcalls = harness.kernel().counters().upcalls - upcalls_before;
  EXPECT_GT(upcalls, 50);
  EXPECT_EQ(g_news.load() - news_before, 0) << "over " << upcalls << " upcalls";
  EXPECT_FALSE(runtime.AllDone());  // the window was all steady state
}

}  // namespace
}  // namespace sa
