#include "src/rt/harness.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/kern/proc_alloc.h"
#include "src/kern/space_reaper.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/invariants.h"

namespace sa::rt {

const char* RunOutcomeName(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kCompleted:
      return "completed";
    case RunOutcome::kEventBudget:
      return "event-budget";
    case RunOutcome::kDeadlock:
      return "deadlock";
    case RunOutcome::kStalled:
      return "stalled";
  }
  return "?";
}

Harness::Harness(HarnessConfig config)
    : config_(config),
      machine_(config.processors, config.seed, config.topology),
      kernel_(&machine_, config.kernel) {}

Harness::~Harness() = default;

void Harness::AddRuntime(Runtime* rt, bool background) {
  SA_CHECK(!started_);
  runtimes_.push_back(Entry{rt, background});
  if (!background) {
    AddForeground(rt);
  }
}

void Harness::AddForeground(Runtime* rt) {
  foreground_.push_back(rt);
  finished_threads_ += rt->threads_finished();
  rt->threads().CountFinishesInto(&finished_threads_);
}

Runtime* Harness::AddDaemon(const std::string& name, sim::Duration period,
                            sim::Duration busy) {
  auto daemon = std::make_unique<TopazRuntime>(&kernel_, name, /*heavyweight=*/false,
                                               /*priority=*/1);
  daemon->Spawn(
      [period, busy](ThreadCtx& t) -> sim::Program {
        for (;;) {
          co_await t.Io(period);  // sleep until the next wakeup
          co_await t.Compute(busy);
        }
      },
      name + "-loop");
  Runtime* raw = daemon.get();
  owned_.push_back(std::move(daemon));
  AddRuntime(raw, /*background=*/true);
  return raw;
}

trace::TraceBuffer& Harness::EnableTracing(uint32_t categories, size_t capacity) {
  if (trace_ == nullptr) {
    trace_ = std::make_unique<trace::TraceBuffer>(capacity);
    engine().set_tracer(trace_.get());
  }
  trace_->set_enabled(categories);
  return *trace_;
}

void Harness::AddChurn(int count, sim::Duration interval,
                       std::function<std::unique_ptr<Runtime>(int)> factory) {
  SA_CHECK(!started_);
  SA_CHECK_MSG(churn_factory_ == nullptr, "churn already configured");
  SA_CHECK(count > 0 && interval > 0);
  churn_factory_ = std::move(factory);
  churn_count_ = count;
  churn_interval_ = interval;
  churn_pending_ = count;
}

void Harness::SpawnChurn(int index) {
  --churn_pending_;
  std::unique_ptr<Runtime> rt = churn_factory_(index);
  Runtime* raw = rt.get();
  owned_.push_back(std::move(rt));
  runtimes_.push_back(Entry{raw, /*background=*/false});
  AddForeground(raw);
  engine().TraceEmit(trace::cat::kLifecycle, trace::Kind::kLifeSpawn, -1,
                     raw->address_space()->id(), static_cast<uint64_t>(index));
  raw->Start();
}

void Harness::Start() {
  SA_CHECK(!started_);
  started_ = true;
  for (Entry& e : runtimes_) {
    e.rt->Start();
  }
  for (int i = 0; i < churn_count_; ++i) {
    engine().ScheduleIn(churn_interval_ * (i + 1), [this, i] { SpawnChurn(i); });
  }
}

void Harness::AddCompletionGate(std::function<bool()> gate) {
  SA_CHECK(!started_);
  completion_gates_.push_back(std::move(gate));
}

void Harness::AddReportHook(std::function<void(RunReport&)> hook) {
  SA_CHECK(!started_);
  report_hooks_.push_back(std::move(hook));
}

bool Harness::AllDone() const {
  if (churn_pending_ > 0) {
    return false;
  }
  for (const auto& gate : completion_gates_) {
    if (!gate()) {
      return false;
    }
  }
  // Only a finished thread, a completed teardown or a new runtime can turn
  // the foreground done, so a walk that found work left holds until one of
  // them happens.
  const size_t finished = ForegroundFinished();
  if (undone_.set && finished == undone_.finished &&
      foreground_.size() == undone_.runtimes) {
    return false;
  }
  for (Runtime* rt : foreground_) {
    if (rt->AllDone()) {
      continue;
    }
    if (rt->address_space()->lifecycle() == kern::AsLifecycle::kDead) {
      // Torn down: its threads will never finish, and that is fine.  A space
      // still kTearingDown gates completion — the run must not end while the
      // reaper's revocation interrupts are in flight, or conservation could
      // not be asserted (and no post-mortem record would exist).
      continue;
    }
    undone_ = {true, finished, foreground_.size()};
    return false;
  }
  undone_ = {};
  return true;
}

size_t Harness::ForegroundFinished() const {
  return finished_threads_ + static_cast<size_t>(kernel_.reaper()->stats().spaces_reaped);
}

sim::Time Harness::Run(uint64_t max_events) {
  RunResult result = TryRun(max_events);
  if (!result.ok()) {
    std::fputs(result.diagnostics.c_str(), stderr);
    SA_CHECK_MSG(result.outcome != RunOutcome::kEventBudget,
                 "simulation exceeded event budget (livelock?)");
    SA_CHECK_MSG(result.outcome != RunOutcome::kStalled,
                 "simulation stalled (no foreground progress)");
    SA_CHECK_MSG(false, "event queue drained before workloads finished (deadlock?)");
  }
  if (!result.diagnostics.empty()) {
    // Success with reaped spaces: surface the post-mortem.
    std::fputs(result.diagnostics.c_str(), stderr);
  }
  return result.end_time;
}

RunResult Harness::TryRun(uint64_t max_events) {
  if (!started_) {
    Start();
  }
  RunResult result;
  uint64_t fired = 0;
  size_t last_finished = ForegroundFinished();
  sim::Time last_progress = engine().now();
  while (!AllDone()) {
    if (fired >= max_events) {
      result.outcome = RunOutcome::kEventBudget;
      break;
    }
    if (!engine().Step()) {
      result.outcome = RunOutcome::kDeadlock;
      break;
    }
    ++fired;
    if (stall_timeout_ > 0) {
      const size_t finished = ForegroundFinished();
      if (finished != last_finished) {
        last_finished = finished;
        last_progress = engine().now();
      } else if (engine().now() - last_progress > stall_timeout_) {
        result.outcome = RunOutcome::kStalled;
        break;
      }
    }
  }
  result.end_time = engine().now();
  if (result.ok() && kernel_.allocator() != nullptr) {
    // Every processor is pooled, held by one space, or detaching.
    const std::string leak = kernel_.allocator()->CheckConservation();
    SA_CHECK_MSG(leak.empty(), leak.c_str());
  }
  if (!result.ok()) {
    char reason[128];
    std::snprintf(reason, sizeof(reason), "%s after %" PRIu64 " events",
                  RunOutcomeName(result.outcome), fired);
    result.diagnostics = DumpDiagnostics(reason);
  } else if (kernel_.reaper()->stats().spaces_reaped > 0) {
    // The run finished, but not every space survived: attach the same dump
    // so teardown post-mortems are visible on success too.
    result.diagnostics = DumpDiagnostics("completed with reaped spaces");
  }
  return result;
}

std::string Harness::DumpDiagnostics(const std::string& reason) {
  std::string out;
  char buf[512];
  auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  line("=== harness diagnostics: %s ===\n", reason.c_str());
  line("virtual time %s | %" PRIu64 " events fired, %zu pending\n",
       sim::FormatDuration(engine().now()).c_str(), engine().events_fired(),
       engine().pending_events());
  for (const Entry& e : runtimes_) {
    line("runtime %-16s %s: %zu threads, %zu finished%s\n",
         e.rt->name().c_str(), e.background ? "(background)" : "(foreground)",
         e.rt->threads_created(), e.rt->threads_finished(),
         e.rt->AllDone() ? ", done" : "");
    e.rt->threads().DescribeUnfinished(&out);
  }
  const kern::KernelCounters& c = kernel_.counters();
  line("kernel: %lld live threads | %lld upcalls (%lld events), %lld timeslices, "
       "%lld preempt irqs, %lld page faults\n",
       static_cast<long long>(kernel_.live_threads()),
       static_cast<long long>(c.upcalls), static_cast<long long>(c.upcall_events),
       static_cast<long long>(c.timeslices),
       static_cast<long long>(c.preempt_interrupts),
       static_cast<long long>(c.page_faults));
  const kern::ReaperStats& rs = kernel_.reaper()->stats();
  if (rs.spaces_reaped > 0) {
    line("reaper: %lld spaces reaped (%lld crashed, %lld hung, %lld exited); "
         "%lld threads, %lld upcalls, %lld io completions discarded; "
         "%lld processors returned, %lld hang pings\n",
         static_cast<long long>(rs.spaces_reaped), static_cast<long long>(rs.crashes),
         static_cast<long long>(rs.hangs), static_cast<long long>(rs.exits),
         static_cast<long long>(rs.threads_reclaimed),
         static_cast<long long>(rs.upcalls_discarded),
         static_cast<long long>(rs.io_discarded),
         static_cast<long long>(rs.procs_returned),
         static_cast<long long>(rs.hang_pings));
    for (const kern::TeardownRecord& td : kernel_.reaper()->teardowns()) {
      line("  space %d (%s): reclaimed in %s — %d procs, %d threads, %d upcalls\n",
           td.as_id, kern::TeardownCauseName(td.cause),
           sim::FormatDuration(td.latency()).c_str(), td.procs_returned,
           td.threads_reclaimed, td.upcalls_discarded);
    }
  }
  if (injector_ != nullptr) {
    const inject::InjectStats& s = injector_->stats();
    line("injector: plan \"%s\"\n", injector_->plan().ToSpec().c_str());
    line("  %lld faults (%lld io failures, %lld retries, %lld failed ops, "
         "%lld spikes, %lld upcall delays, %lld alloc denials, %lld storm "
         "revocations), backoff %s\n",
         static_cast<long long>(s.faults_injected),
         static_cast<long long>(s.io_failures), static_cast<long long>(s.io_retries),
         static_cast<long long>(s.failed_ops),
         static_cast<long long>(s.latency_spikes),
         static_cast<long long>(s.upcall_delays),
         static_cast<long long>(s.alloc_denials),
         static_cast<long long>(s.storm_revocations),
         sim::FormatDuration(s.backoff_time).c_str());
  }
  if (trace_ != nullptr) {
    const std::vector<trace::Record> records = trace_->Snapshot();
    trace::CheckResult check = trace::CheckInvariants(records);
    line("invariants: %s (%" PRIu64 " vessel checks)\n",
         check.ok() ? "ok" : "VIOLATED", check.vessel_checks);
    for (const std::string& v : check.violations) {
      line("  %s\n", v.c_str());
    }
    constexpr size_t kTail = 40;
    const size_t start = records.size() > kTail ? records.size() - kTail : 0;
    line("trace tail (%zu of %zu records):\n", records.size() - start,
         records.size());
    for (size_t i = start; i < records.size(); ++i) {
      const trace::Record& r = records[i];
      line("  %12lld cpu=%-2d as=%-2d %-24s %llu %llu\n",
           static_cast<long long>(r.ts), r.cpu, r.as_id,
           trace::KindName(static_cast<trace::Kind>(r.kind)),
           static_cast<unsigned long long>(r.arg0),
           static_cast<unsigned long long>(r.arg1));
    }
  } else {
    out += "trace: disabled (EnableTracing for a trace tail here)\n";
  }
  out += "=== end diagnostics ===\n";
  return out;
}

inject::FaultInjector& Harness::EnableFaultInjection(const inject::FaultPlan& plan) {
  SA_CHECK_MSG(injector_ == nullptr, "fault injection already enabled");
  // A hung space stops acknowledging upcalls, and the native kernel
  // delivers none, so its watchdog could never declare the hang.
  SA_CHECK_MSG(plan.hang_at == 0 || kernel_.mode() == kern::KernelMode::kSchedulerActivations,
               "hang faults require scheduler activations");
  injector_ = std::make_unique<inject::FaultInjector>(plan);
  machine_.set_injector(injector_.get());
  if (plan.storm_period > 0) {
    ScheduleStormTick();
  }
  if (plan.hang_at > 0) {
    // Watchdog events exist only on runs that inject a hang — without this
    // the deadline machinery schedules nothing (zero-perturbation).
    kernel_.reaper()->EnableHangDetection();
  }
  if (plan.crash_at > 0) {
    ScheduleLifecycleFault(plan.crash_at, plan.crash_space, kern::TeardownCause::kCrashed);
  }
  if (plan.hang_at > 0) {
    ScheduleLifecycleFault(plan.hang_at, plan.hang_space, kern::TeardownCause::kHung);
  }
  if (plan.exit_at > 0) {
    ScheduleLifecycleFault(plan.exit_at, plan.exit_space, kern::TeardownCause::kExited);
  }
  return *injector_;
}

kern::AddressSpace* Harness::ForegroundSpace(int index) {
  if (index < 0 || index >= static_cast<int>(foreground_.size())) {
    return nullptr;
  }
  return foreground_[static_cast<size_t>(index)]->address_space();
}

void Harness::ScheduleLifecycleFault(sim::Duration at, int space_index,
                                     kern::TeardownCause cause) {
  engine().ScheduleIn(at, [this, space_index, cause] {
    kern::AddressSpace* as = ForegroundSpace(space_index);
    if (as == nullptr || as->hung()) {
      return;  // target never existed, or hung: nothing to inject (the
               // reaper ignores a fault on a space already torn down)
    }
    switch (cause) {
      case kern::TeardownCause::kCrashed:
        kernel_.reaper()->InjectCrash(as);
        break;
      case kern::TeardownCause::kHung:
        kernel_.reaper()->InjectHang(as);
        break;
      case kern::TeardownCause::kExited:
        kernel_.reaper()->InjectExit(as);
        break;
      case kern::TeardownCause::kNone:
      case kern::TeardownCause::kHoarded:
        break;  // kHoarded is reaper-detected, never injected directly
    }
  });
}

void Harness::ScheduleStormTick() {
  engine().ScheduleIn(injector_->plan().storm_period, [this] {
    if (AllDone()) {
      return;  // run is over; stop re-arming
    }
    kern::ProcessorAllocator* alloc = kernel_.allocator();
    if (alloc != nullptr) {
      const int revoked =
          alloc->InjectRevocations(injector_->plan().storm_burst, injector_->rng());
      if (revoked > 0) {
        injector_->NoteStormRevocations(revoked);
        engine().TraceEmit(trace::cat::kInject, trace::Kind::kInjectStorm, -1, -1,
                           static_cast<uint64_t>(revoked));
      }
    }
    ScheduleStormTick();
  });
}

}  // namespace sa::rt
