// Experiment harness: builds a machine + kernel, hosts runtimes, runs the
// simulation until all foreground workloads finish, and reports timing and
// processor-usage breakdowns.

#ifndef SA_RT_HARNESS_H_
#define SA_RT_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/inject/fault_injector.h"
#include "src/kern/kernel.h"
#include "src/rt/runtime.h"
#include "src/trace/trace.h"

namespace sa::rt {

struct HarnessConfig {
  int processors = 6;  // the paper's Firefly had six CVAX processors
  uint64_t seed = 1;
  // Machine shape (sockets × cores + migration penalties).  The default is
  // flat — one socket, no penalties — which reproduces the uniform Firefly
  // and leaves seeded traces byte-identical to the pre-topology behaviour.
  hw::TopologyConfig topology;
  kern::Config kernel;
};

// Why a run ended (TryRun).
enum class RunOutcome {
  kCompleted,    // every foreground runtime finished
  kEventBudget,  // max_events fired without finishing (livelock?)
  kDeadlock,     // event queue drained with work outstanding
  kStalled,      // no foreground progress for longer than the stall timeout
};

const char* RunOutcomeName(RunOutcome outcome);

struct RunReport;  // report.h; hooks fill sections the harness knows nothing about

struct RunResult {
  RunOutcome outcome = RunOutcome::kCompleted;
  sim::Time end_time = 0;
  // Human-readable failure context (engine state, per-runtime progress,
  // kernel counters, injector stats, invariant report, trace tail).  Empty
  // on success — unless the run completed with reaped address spaces, in
  // which case the post-mortem dump is attached here too.
  std::string diagnostics;

  bool ok() const { return outcome == RunOutcome::kCompleted; }
};

class Harness {
 public:
  explicit Harness(HarnessConfig config);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  hw::Machine& machine() { return machine_; }
  kern::Kernel& kernel() { return kernel_; }
  sim::Engine& engine() { return machine_.engine(); }
  const HarnessConfig& config() const { return config_; }

  // Registers a runtime.  Background runtimes (daemons) do not gate
  // completion.  The harness does not own runtimes.
  void AddRuntime(Runtime* rt, bool background = false);

  // Adds a Topaz-threads daemon address space: a thread that sleeps for
  // `period`, computes for `busy`, repeats — the paper's "daemon threads
  // which wake up periodically, execute briefly, and go back to sleep".
  Runtime* AddDaemon(const std::string& name, sim::Duration period, sim::Duration busy);

  // Dynamic space churn (DESIGN.md §12): schedules `count` extra foreground
  // runtimes to be created and started mid-run, `interval` apart (the first
  // at `interval` after Start).  `factory(i)` builds the i-th runtime when
  // its spawn time arrives, so the address space itself is created mid-run
  // and the allocator rebalances under arrival.  The harness owns the
  // spawned runtimes.  Call before Start(); at most once.
  void AddChurn(int count, sim::Duration interval,
                std::function<std::unique_ptr<Runtime>(int)> factory);

  // Completion gates: AllDone() additionally requires every registered gate
  // to return true.  Drivers that feed work in open loop (src/traffic/) use
  // one to keep the run alive while arrivals are still scheduled, since
  // their background tenant runtimes never gate completion themselves.
  // Call before Start().
  void AddCompletionGate(std::function<bool()> gate);

  // Report hooks: MakeReport(harness) invokes each with the report being
  // built, letting layered drivers (traffic SLO accounting) attach their
  // sections without rt depending on them.  Call before Start().
  void AddReportHook(std::function<void(RunReport&)> hook);
  const std::vector<std::function<void(RunReport&)>>& report_hooks() const {
    return report_hooks_;
  }

  // Starts every registered runtime.
  void Start();

  // Runs the simulation until all foreground runtimes are done (or the event
  // queue drains / `max_events` fire).  Returns the virtual completion time.
  // On failure, dumps diagnostics to stderr and aborts (SA_CHECK).
  sim::Time Run(uint64_t max_events = 500000000);

  // Like Run, but reports failure (with diagnostics attached) instead of
  // aborting — the form fuzzers and fault sweeps use.  A completed run
  // under the explicit allocator must conserve processors
  // (ProcessorAllocator::CheckConservation); a breach aborts (SA_CHECK).
  RunResult TryRun(uint64_t max_events = 500000000);

  // Virtual-time progress watchdog for TryRun/Run: if no foreground thread
  // finishes for `timeout` virtual nanoseconds, the run ends with kStalled
  // and a diagnostics dump.  0 (default) disables the watchdog.
  void set_stall_timeout(sim::Duration timeout) { stall_timeout_ = timeout; }

  // True iff every foreground runtime reports AllDone.
  bool AllDone() const;

  // Fault injection (DESIGN.md §11).  Installs a deterministic injector
  // built from `plan` on the machine (kernel and SA spaces pick it up from
  // there) and, if the plan asks for revocation storms, schedules them.
  // Call before Start(); at most once.  With no active plan the injector
  // perturbs nothing and seeded traces stay byte-identical.  Crash and
  // exit faults work under either kernel; a hang needs upcalls to leave
  // unacknowledged, so under the native kernel a hang plan aborts.
  inject::FaultInjector& EnableFaultInjection(const inject::FaultPlan& plan);
  // The installed injector, or null if fault injection was never enabled.
  inject::FaultInjector* injector() { return injector_.get(); }

  // The failure-context dump TryRun attaches to a bad outcome; callable
  // directly for ad-hoc debugging.
  std::string DumpDiagnostics(const std::string& reason);

  // Event tracing (DESIGN.md §10).  Allocates the trace ring, installs it on
  // the engine, and enables the given categories.  Call before Start();
  // idempotent (later calls only adjust the category mask).
  trace::TraceBuffer& EnableTracing(uint32_t categories = trace::cat::kAll,
                                    size_t capacity = 1u << 20);
  // The installed buffer, or null if tracing was never enabled.
  trace::TraceBuffer* trace() { return trace_.get(); }

 private:
  HarnessConfig config_;
  hw::Machine machine_;
  kern::Kernel kernel_;
  struct Entry {
    Runtime* rt;
    bool background;
  };
  // Sum of finished threads across foreground runtimes, plus completed
  // teardowns (watchdog progress: a reap is forward progress too).
  size_t ForegroundFinished() const;
  // Registers a foreground runtime and hooks its thread table's finishes
  // into finished_threads_.
  void AddForeground(Runtime* rt);
  void ScheduleStormTick();
  void SpawnChurn(int index);
  // The `index`-th foreground runtime's address space, in arrival order
  // (churn-spawned spaces included once they exist); null if out of range.
  kern::AddressSpace* ForegroundSpace(int index);
  // Schedules a lifecycle fault from the plan: at virtual time `at`, the
  // `space_index`-th foreground space (resolved at fire time) fails with
  // `cause`.  Already-reaped or missing targets are skipped.
  void ScheduleLifecycleFault(sim::Duration at, int space_index,
                              kern::TeardownCause cause);

  std::vector<Entry> runtimes_;  // registration order (Start, diagnostics)
  // The non-background runtimes in arrival order, churn spawns included:
  // the only ones AllDone and the stall watchdog look at.
  std::vector<Runtime*> foreground_;
  // Threads finished across foreground_, counted by their thread tables.
  size_t finished_threads_ = 0;
  // What AllDone's last walk saw when it found a foreground runtime not
  // done: ForegroundFinished() and the number of foreground runtimes.
  struct Undone {
    bool set = false;
    size_t finished = 0;
    size_t runtimes = 0;
  };
  mutable Undone undone_;
  std::vector<std::function<bool()>> completion_gates_;
  std::vector<std::function<void(RunReport&)>> report_hooks_;
  std::vector<std::unique_ptr<Runtime>> owned_;
  std::unique_ptr<trace::TraceBuffer> trace_;
  std::unique_ptr<inject::FaultInjector> injector_;
  sim::Duration stall_timeout_ = 0;
  bool started_ = false;
  std::function<std::unique_ptr<Runtime>(int)> churn_factory_;
  int churn_count_ = 0;
  sim::Duration churn_interval_ = 0;
  int churn_pending_ = 0;  // spawns not yet fired (gates AllDone)
};

}  // namespace sa::rt

#endif  // SA_RT_HARNESS_H_
