// The three simulator workloads: `tenants` (multi-tenant open loop),
// `firefly` (the paper's N-body on new FastThreads) and `storms`
// (hierarchical machine under revocation storms, churn and lifecycle
// faults).  Each unit is one rt::Harness run, driven only through the
// library's public classes and always through Harness::TryRun, with an event
// budget and a virtual stall timeout so a unit that cannot finish fails
// instead of hanging the benchmark.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/apps/nbody_workload.h"
#include "src/inject/fault_plan.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/space_reaper.h"
#include "src/rt/harness.h"
#include "src/rt/report.h"
#include "src/trace/invariants.h"
#include "src/traffic/traffic.h"
#include "src/ult/ult_runtime.h"

namespace perfbench {
namespace {

using namespace sa;

// What every simulator unit shares: the harness, the FastThreads runtimes
// whose counters it reports, and the run's outcome.
class SimWorkload : public Workload {
 public:
  void Prepare(bool traced) override {
    traced_ = traced;
    Build();
    if (traced) {
      // Every category but the per-span processor records, which would
      // multiply the ring's size without feeding any reported number.
      harness_->EnableTracing(trace::cat::kAll & ~trace::cat::kProcessor, kTraceCapacity);
    }
    harness_->set_stall_timeout(stall_timeout_);
  }

  void Run() override { result_ = harness_->TryRun(event_budget_); }

  Unit Finish() override {
    Unit u;
    if (!result_.ok()) {
      u.Fail(std::string("run ended ") + rt::RunOutcomeName(result_.outcome) +
             " at virtual " + sim::FormatDuration(result_.end_time));
    }
    const rt::RunReport report = rt::MakeReport(*harness_);
    Collect(report, &u);
    Check(report, &u);
    if (traced_) {
      CollectTrace(&u);
    }
    Release();
    harness_.reset();
    ults_.clear();
    return u;
  }

 protected:
  // Builds harness_ and the unit's runtimes from the seed's inputs.
  virtual void Build() = 0;
  // Workload-specific numbers, fingerprint entries and output checks.
  virtual void Check(const rt::RunReport& report, Unit* u) = 0;
  // Destroys what Build created apart from the harness (before it).
  virtual void Release() = 0;
  // Slack the no-idle-while-ready invariant needs for this unit.
  virtual int64_t IdleSlack() const { return 0; }

  std::unique_ptr<rt::Harness> harness_;
  std::vector<ult::UltRuntime*> ults_;  // includes churn-spawned runtimes
  uint64_t event_budget_ = 0;
  sim::Duration stall_timeout_ = 0;

 private:
  static constexpr size_t kTraceCapacity = 1u << 21;

  void Collect(const rt::RunReport& r, Unit* u) {
    const kern::KernelCounters& c = r.counters;
    const int64_t events = static_cast<int64_t>(harness_->engine().events_fired());
    kern::ProcessorAllocator* alloc = harness_->kernel().allocator();
    int64_t warm = 0;
    int64_t cold = 0;
    for (const auto& as : harness_->kernel().spaces()) {
      const kern::SpaceAllocStats s = alloc->stats_for(as.get());
      warm += s.warm_grants;
      cold += s.cold_grants;
    }
    ult::UltCounters ult;
    for (ult::UltRuntime* rt : ults_) {
      const ult::UltCounters& x = rt->fast_threads().counters();
      ult.forks += x.forks;
      ult.steals += x.steals;
      ult.dispatches += x.dispatches;
      ult.spin_acquires += x.spin_acquires;
      ult.spin_contended += x.spin_contended;
      ult.mgmt_time += x.mgmt_time;
    }
    const int64_t up_p50 = r.upcall_latency.Quantile(0.5);
    const int64_t up_p99 = r.upcall_latency.Quantile(0.99);

    u->fingerprint = {
        r.elapsed, events, r.user, r.mgmt, r.kernel, r.spin, r.idle_spin, r.idle,
        c.forks, c.exits, c.io_blocks, c.page_faults, c.kernel_waits, c.wakeups,
        c.timeslices, c.preempt_interrupts, c.dispatches, c.upcalls, c.upcall_events,
        c.activation_allocs, c.activation_reuses, c.cs_recoveries,
        c.migrations_core, c.migrations_socket, c.migration_penalty_time,
        static_cast<int64_t>(r.upcall_latency.count()), up_p50, up_p99,
        r.inject.storm_revocations, r.reaper.spaces_reaped, alloc->decisions(), warm,
        cold, ult.forks, ult.steals, ult.dispatches, ult.spin_acquires,
        ult.spin_contended, ult.mgmt_time};

    const double machine = static_cast<double>(r.user + r.mgmt + r.kernel + r.spin +
                                               r.idle_spin + r.idle);
    Values& l = u->layer;
    l["virt_elapsed_s"] = sim::ToSec(r.elapsed);
    l["sim.events"] = static_cast<double>(events);
    l["hw.user_frac"] = Ratio(static_cast<double>(r.user), machine);
    l["hw.mgmt_frac"] = Ratio(static_cast<double>(r.mgmt), machine);
    l["hw.kernel_frac"] = Ratio(static_cast<double>(r.kernel), machine);
    l["hw.spin_frac"] = Ratio(static_cast<double>(r.spin), machine);
    l["hw.idle_frac"] = Ratio(static_cast<double>(r.idle_spin + r.idle), machine);
    l["hw.migrations_socket"] = static_cast<double>(c.migrations_socket);
    l["hw.migration_penalty_ms"] = sim::ToMsec(c.migration_penalty_time);
    l["kern.dispatches"] = static_cast<double>(c.dispatches);
    l["kern.timeslices"] = static_cast<double>(c.timeslices);
    l["kern.io_blocks"] = static_cast<double>(c.io_blocks);
    l["kern.preempt_interrupts"] = static_cast<double>(c.preempt_interrupts);
    l["alloc.decisions"] = static_cast<double>(alloc->decisions());
    l["alloc.warm_grant_frac"] =
        Ratio(static_cast<double>(warm), static_cast<double>(warm + cold));
    l["core.upcalls"] = static_cast<double>(c.upcalls);
    l["core.upcall_events"] = static_cast<double>(c.upcall_events);
    l["core.activation_reuse_frac"] =
        Ratio(static_cast<double>(c.activation_reuses),
              static_cast<double>(c.activation_allocs + c.activation_reuses));
    l["core.upcall_latency_p50_us"] = sim::ToUsec(up_p50);
    l["core.upcall_latency_p99_us"] = sim::ToUsec(up_p99);
    l["core.cs_recoveries"] = static_cast<double>(c.cs_recoveries);
    l["ult.forks"] = static_cast<double>(ult.forks);
    l["ult.steals"] = static_cast<double>(ult.steals);
    l["ult.spin_contended_frac"] = Ratio(static_cast<double>(ult.spin_contended),
                                         static_cast<double>(ult.spin_acquires));
    l["ult.mgmt_ms"] = sim::ToMsec(ult.mgmt_time);
    l["inject.storm_revocations"] = static_cast<double>(r.inject.storm_revocations);
    l["reaper.spaces_reaped"] = static_cast<double>(r.reaper.spaces_reaped);
  }

  // Trace-derived numbers, and the protocol invariants over the whole run.
  void CollectTrace(Unit* u) {
    trace::TraceBuffer* buffer = harness_->trace();
    const std::vector<trace::Record> records = buffer->Snapshot();
    int64_t grants = 0;
    int64_t revokes = 0;
    for (const trace::Record& rec : records) {
      grants += rec.kind == static_cast<uint16_t>(trace::Kind::kProcGrant);
      revokes += rec.kind == static_cast<uint16_t>(trace::Kind::kProcRevoke);
    }
    Values& l = u->layer;
    l["alloc.grants"] = static_cast<double>(grants);
    l["alloc.revokes"] = static_cast<double>(revokes);
    l["trace.records"] = static_cast<double>(buffer->total_emitted());
    l["trace.dropped"] = static_cast<double>(buffer->dropped());
    if (buffer->dropped() > 0) {
      u->Fail("trace ring overflowed; invariants cannot be checked");
      return;
    }
    trace::CheckOptions options;
    options.idle_ready_threshold += IdleSlack();
    const trace::CheckResult check = trace::CheckInvariants(records, options);
    if (!check.ok()) {
      u->Fail("trace invariants violated: " + check.violations.front());
    }
  }

  bool traced_ = false;
  rt::RunResult result_;
};

// ---------------------------------------------------------------------------
// tenants: 512 processors x 1024 kernel-thread tenants in three priority
// tiers, open loop, SA kernel; the bursty low tier offers 1.5x capacity.
// ---------------------------------------------------------------------------

traffic::TrafficConfig TenantsConfig(int processors, int tenants, sim::Duration horizon,
                                     uint64_t seed) {
  traffic::TrafficConfig tc;
  tc.seed = seed;
  tc.horizon = horizon;
  tc.drain = sim::Msec(300);
  const int hi = std::max(1, tenants / 16);
  const int mid = std::max(1, tenants / 4);
  const int low = std::max(1, tenants - hi - mid);
  for (int i = 0; i < hi; ++i) {
    traffic::TenantSpec t;
    t.name = Name("hi", i);
    t.priority = 2;
    t.arrivals.rate = 50.0;
    t.mix = {traffic::RequestClass{"rpc", 1.0, sim::Msec(1),
                                   traffic::RequestClass::Dist::kExponential, 0}};
    t.slo.latency = sim::Msec(20);
    t.slo.quantile = 0.99;
    tc.tenants.push_back(t);
  }
  const double mid_rate = 0.3 * processors / (mid * 0.005);
  for (int i = 0; i < mid; ++i) {
    traffic::TenantSpec t;
    t.name = Name("mid", i);
    t.priority = 1;
    t.arrivals.rate = mid_rate;
    t.ramp.period = sim::Msec(500);
    t.ramp.points = {{0, 0.5}, {sim::Msec(250), 1.5}};
    t.mix = {traffic::RequestClass{"job", 1.0, sim::Msec(5),
                                   traffic::RequestClass::Dist::kFixed, 0}};
    t.slo.latency = sim::Msec(100);
    t.slo.quantile = 0.99;
    tc.tenants.push_back(t);
  }
  const double low_rate = 1.5 * processors / (low * 0.010);
  for (int i = 0; i < low; ++i) {
    traffic::TenantSpec t;
    t.name = Name("low", i);
    t.priority = 0;
    t.arrivals.kind = traffic::ArrivalSpec::Kind::kOnOff;
    t.arrivals.rate = low_rate * 2.5;  // same mean load as Poisson, bursty
    t.arrivals.on_mean = sim::Msec(40);
    t.arrivals.off_mean = sim::Msec(60);
    t.mix = {traffic::RequestClass{"batch", 1.0, sim::Msec(10),
                                   traffic::RequestClass::Dist::kFixed,
                                   i % 4 == 0 ? sim::Msec(1) : 0}};
    t.slo.latency = sim::Msec(200);
    t.slo.quantile = 0.9;
    tc.tenants.push_back(t);
  }
  return tc;
}

class Tenants : public SimWorkload {
 public:
  Tenants(uint64_t seed, bool small)
      : seed_(seed),
        processors_(small ? 64 : 512),
        tenants_(small ? 64 : 1024),
        horizon_(small ? sim::Msec(200) : sim::Msec(500)) {
    event_budget_ = 200'000'000;
    stall_timeout_ = sim::Sec(5);  // tenants are background: no thread "finishes"
  }

  void Probe(Values* layer) override {
    AllocShape shape;
    shape.processors = processors_;
    shape.spaces = tenants_;
    shape.tiers = 3;
    (*layer)["alloc.ns_per_decision"] = AllocNsPerDecision(shape, seed_, 6000, 3);
    (*layer)["sim.engine_ns_per_event"] = EngineNsPerEvent(processors_, seed_, 1'000'000, 3);
  }

 protected:
  void Build() override {
    rt::HarnessConfig config;
    config.processors = processors_;
    config.seed = SubSeed(seed_, 1);
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    harness_ = std::make_unique<rt::Harness>(config);
    gen_ = std::make_unique<traffic::TrafficGenerator>(
        harness_.get(), TenantsConfig(processors_, tenants_, horizon_, SubSeed(seed_, 2)));
  }

  void Check(const rt::RunReport& report, Unit* u) override {
    // Per-tier sojourn histograms, merged over the tier's tenants.
    trace::LatencyHistogram tiers[3];
    int64_t hi_worst_p99 = 0;
    int64_t hi_unserved = 0;
    for (size_t i = 0; i < report.tenants.size(); ++i) {
      const rt::TenantSloRow& row = report.tenants[i];
      tiers[row.tier].Merge(gen_->stats(i).sojourn);
      if (row.tier == 2) {
        hi_worst_p99 = std::max(hi_worst_p99, row.p99);
        hi_unserved += row.unserved;
      }
    }
    const int64_t arrivals = gen_->total_arrivals();
    const int64_t completions = gen_->total_completions();
    Values& l = u->layer;
    l["hi_p99_ms"] = sim::ToMsec(hi_worst_p99);
    l["served_frac"] = Ratio(static_cast<double>(completions), static_cast<double>(arrivals));
    l["traffic.arrivals"] = static_cast<double>(arrivals);
    l["traffic.completions"] = static_cast<double>(completions);
    const char* names[3] = {"low", "mid", "hi"};
    for (int t = 0; t < 3; ++t) {
      const std::string p = std::string("traffic.") + names[t];
      for (const auto& [suffix, q] :
           {std::pair{"_p50_ms", 0.5}, {"_p99_ms", 0.99}, {"_p999_ms", 0.999}}) {
        const int64_t v = tiers[t].Quantile(q);
        l[p + suffix] = sim::ToMsec(v);
        u->fingerprint.push_back(v);
      }
    }
    u->fingerprint.insert(u->fingerprint.end(),
                          {arrivals, completions, hi_worst_p99, hi_unserved});
    if (arrivals <= 0 || completions > arrivals) {
      u->Fail("traffic totals inconsistent");
    }
    if (report.tenants.size() != static_cast<size_t>(tenants_)) {
      u->Fail("tenant table incomplete");
    }
    // The high tier is never starved: every request arriving before the
    // drain deadline completes.
    if (hi_unserved != 0) {
      u->Fail("high-tier requests left unserved");
    }
  }

  void Release() override { gen_.reset(); }

 private:
  uint64_t seed_;
  int processors_;
  int tenants_;
  sim::Duration horizon_;
  std::unique_ptr<traffic::TrafficGenerator> gen_;
};

// ---------------------------------------------------------------------------
// firefly: two copies of the N-body application on new FastThreads over
// scheduler activations, six processors, buffer cache below 100% memory.
// ---------------------------------------------------------------------------

class Firefly : public SimWorkload {
 public:
  Firefly(uint64_t seed, bool small)
      : seed_(seed), bodies_(small ? 600 : 4000), steps_(small ? 2 : 35) {
    event_budget_ = 100'000'000;
    stall_timeout_ = sim::Sec(5);
  }

  void Probe(Values* layer) override {
    AllocShape shape;
    shape.processors = kProcessors;
    shape.spaces = kCopies + 1;  // plus the daemon space
    shape.tiers = 2;
    (*layer)["alloc.ns_per_decision"] = AllocNsPerDecision(shape, seed_, 6000, 3);
    (*layer)["sim.engine_ns_per_event"] = EngineNsPerEvent(kProcessors, seed_, 1'000'000, 3);
    (*layer)["apps.tree_build_us"] = TreeBuildUs(bodies_, SubSeed(seed_, 10), 9);
  }

 protected:
  void Build() override {
    rt::HarnessConfig config;
    config.processors = kProcessors;
    config.seed = SubSeed(seed_, 1);
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    harness_ = std::make_unique<rt::Harness>(config);
    for (int c = 0; c < kCopies; ++c) {
      ult::UltConfig uc;
      uc.max_vcpus = kProcessors;
      runtimes_.push_back(std::make_unique<ult::UltRuntime>(
          &harness_->kernel(), Name("nbody", c),
          ult::BackendKind::kSchedulerActivations, uc));
      apps::NBodyConfig nc;
      nc.bodies = bodies_;
      nc.steps = steps_;
      nc.memory_percent = 60.0;
      nc.seed = SubSeed(seed_, 10 + static_cast<uint64_t>(c));
      apps_.push_back(std::make_unique<apps::NBodyApp>(nc));
      apps_.back()->set_clock(&harness_->engine());
      apps_.back()->InstallOn(runtimes_.back().get());
      harness_->AddRuntime(runtimes_.back().get());
      ults_.push_back(runtimes_.back().get());
    }
    harness_->AddDaemon("daemon", sim::Msec(200), sim::Msec(2));
  }

  void Check(const rt::RunReport& report, Unit* u) override {
    double speedup = 0.0;
    int64_t misses = 0;
    const int tasks_per_step = (bodies_ + 2) / 3;  // NBodyConfig::chunk = 3
    for (const auto& app : apps_) {
      if (!app->done() || app->finished_at() <= 0) {
        u->Fail("an N-body copy did not finish");
        continue;
      }
      speedup += static_cast<double>(app->SequentialTime()) /
                 static_cast<double>(app->finished_at());
      misses += app->cache().misses();
      u->fingerprint.insert(u->fingerprint.end(),
                            {app->finished_at(), app->total_interactions(),
                             app->total_tasks_run(), app->cache().misses()});
      if (app->total_tasks_run() != tasks_per_step * steps_) {
        u->Fail("N-body tasks lost");
      }
    }
    speedup /= kCopies;
    u->layer["sa_speedup"] = speedup;
    u->layer["apps.cache_misses"] = static_cast<double>(misses);
    if (!(speedup > 0.5 && speedup <= kProcessors)) {
      u->Fail("N-body speedup out of range");
    }
  }

  void Release() override {
    apps_.clear();
    runtimes_.clear();
  }

 private:
  static constexpr int kProcessors = 6;
  static constexpr int kCopies = 2;
  uint64_t seed_;
  int bodies_;
  int steps_;
  std::vector<std::unique_ptr<ult::UltRuntime>> runtimes_;
  std::vector<std::unique_ptr<apps::NBodyApp>> apps_;
};

// ---------------------------------------------------------------------------
// storms: a 2-socket, 64-processor machine with affinity allocation and
// locality-aware stealing; SA spaces with rotating I/O phases, revocation
// storms every millisecond, spaces arriving mid-run, and one crash and one
// leaky exit for the reaper.
// ---------------------------------------------------------------------------

class Storms : public SimWorkload {
 public:
  Storms(uint64_t seed, bool small)
      : seed_(seed), iters_(small ? 24 : 1500), churn_(small ? 2 : 8) {
    event_budget_ = 100'000'000;
    // Threads finish only at the end of their loops, so the watchdog must
    // allow the whole run.
    stall_timeout_ = sim::Sec(60);
  }

  void Probe(Values* layer) override {
    AllocShape shape;
    shape.processors = kProcessors;
    shape.sockets = 2;
    shape.spaces = kSpaces + churn_ + 1;
    shape.tiers = 2;
    shape.affinity = true;
    (*layer)["alloc.ns_per_decision"] = AllocNsPerDecision(shape, seed_, 6000, 3);
    (*layer)["sim.engine_ns_per_event"] = EngineNsPerEvent(kProcessors, seed_, 1'000'000, 3);
  }

 protected:
  void Build() override {
    rt::HarnessConfig config;
    config.processors = kProcessors;
    config.seed = SubSeed(seed_, 1);
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    config.kernel.affinity_allocation = true;
    config.topology.sockets = 2;
    config.topology.core_migration_penalty = sim::Usec(10);
    config.topology.socket_migration_penalty = sim::Usec(500);
    harness_ = std::make_unique<rt::Harness>(config);
    for (int s = 0; s < kSpaces; ++s) {
      runtimes_.push_back(MakeSpace(Name("app", s), s, 16, kThreads, iters_,
                                    SubSeed(seed_, 20 + static_cast<uint64_t>(s))));
      harness_->AddRuntime(runtimes_.back().get());
      ults_.push_back(runtimes_.back().get());
    }
    harness_->AddDaemon("daemon", sim::Msec(5), sim::Usec(100));
    plan_ = inject::FaultPlan{};
    plan_.seed = SubSeed(seed_, 3);
    plan_.storm_period = sim::Msec(1);
    plan_.storm_burst = 4;
    plan_.crash_at = sim::Msec(30);
    plan_.crash_space = 1;
    plan_.exit_at = sim::Msec(60);
    plan_.exit_space = 4;
    harness_->EnableFaultInjection(plan_);
    harness_->AddChurn(churn_, sim::Msec(15), [this](int i) -> std::unique_ptr<rt::Runtime> {
      auto rt = MakeSpace(Name("churn", i), i, 8, kThreads / 2, iters_ / 2,
                          SubSeed(seed_, 40 + static_cast<uint64_t>(i)));
      ults_.push_back(rt.get());
      return rt;
    });
  }

  int64_t IdleSlack() const override { return plan_.ExtraIdleSlack(); }

  void Check(const rt::RunReport& report, Unit* u) override {
    // Both planted lifecycle faults hit live spaces and were reaped.
    if (report.reaper.spaces_reaped != 2) {
      u->Fail("expected 2 reaped spaces, got " + std::to_string(report.reaper.spaces_reaped));
    }
    for (ult::UltRuntime* rt : ults_) {
      const bool reaped = rt->address_space() != nullptr && rt->address_space()->reaped();
      if (!reaped && rt->threads_finished() != rt->threads_created()) {
        u->Fail("threads lost in surviving space " + rt->name());
      }
    }
    if (static_cast<int>(ults_.size()) != kSpaces + churn_) {
      u->Fail("not every churn arrival was spawned");
    }
  }

  void Release() override { runtimes_.clear(); }

 private:
  static constexpr int kProcessors = 64;
  static constexpr int kSpaces = 8;
  static constexpr int kThreads = 16;

  // An SA space of `threads` threads, each computing `iters` ~100 µs slices
  // and sleeping through one third of every 12-slice period (offset by
  // `phase`, so one space is always dipping while another wakes).
  std::unique_ptr<ult::UltRuntime> MakeSpace(const std::string& name, int phase,
                                             int vcpus, int threads, int iters,
                                             uint64_t seed) {
    ult::UltConfig uc;
    uc.max_vcpus = vcpus;
    uc.locality_aware_stealing = true;
    auto rt = std::make_unique<ult::UltRuntime>(&harness_->kernel(), name,
                                                ult::BackendKind::kSchedulerActivations, uc);
    common::Rng rng(seed);
    for (int i = 0; i < threads; ++i) {
      const sim::Duration slice = sim::Usec(90) + static_cast<sim::Duration>(rng.Below(20'000));
      const sim::Duration io = sim::Usec(300) + static_cast<sim::Duration>(rng.Below(200'000));
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

  uint64_t seed_;
  int iters_;
  int churn_;
  inject::FaultPlan plan_;
  std::vector<std::unique_ptr<ult::UltRuntime>> runtimes_;
};

}  // namespace

std::unique_ptr<Workload> MakeTenants(uint64_t seed, bool small) {
  return std::make_unique<Tenants>(seed, small);
}
std::unique_ptr<Workload> MakeFirefly(uint64_t seed, bool small) {
  return std::make_unique<Firefly>(seed, small);
}
std::unique_ptr<Workload> MakeStorms(uint64_t seed, bool small) {
  return std::make_unique<Storms>(seed, small);
}

}  // namespace perfbench
