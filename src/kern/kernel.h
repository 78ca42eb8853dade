// The simulated operating system kernel.
//
// Two personalities, selected by Config::mode:
//
//  * kNativeTopaz — models the unmodified Topaz kernel the paper's baselines
//    ran on: one global ready queue, round-robin quantum time-slicing,
//    scheduling oblivious to address spaces and to user-level thread state.
//    Higher-priority wakeups (daemon threads) land on the processor where
//    the wakeup interrupt happens to arrive, preempting whatever runs there.
//
//  * kSchedulerActivations — the paper's modified kernel: processors are
//    explicitly allocated to address spaces by the space-sharing allocator
//    (Section 4.1); kKernelThreads spaces still run under a per-space Topaz
//    scheduler on their allocated processors (binary compatibility), while
//    kSchedulerActivations spaces receive events via upcalls (src/core/).
//
// All kernel services charge virtual time on the calling context's processor
// and complete through continuations, which run only for a live space: the
// kernel's span-end check drops a dead space's continuation where its span
// ends (StopIfReaped, DESIGN.md §12).  Continuations must never capture a
// Processor pointer directly — always re-read `kt->processor()` — because a
// preempted execution may be continued on a different processor.  (A kernel
// span is the exception: it is never preempted, so its own continuation may
// hold the processor it began on.)

#ifndef SA_KERN_KERNEL_H_
#define SA_KERN_KERNEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/intrusive_list.h"
#include "src/hw/machine.h"
#include "src/kern/address_space.h"
#include "src/kern/costs.h"
#include "src/kern/kthread.h"
#include "src/sim/callback.h"
#include "src/trace/histogram.h"

namespace sa::kern {

class ProcessorAllocator;
class SpaceReaper;

enum class KernelMode {
  kNativeTopaz,
  kSchedulerActivations,
};

struct Config {
  CostModel costs;
  KernelMode mode = KernelMode::kNativeTopaz;
  // Section 5.2: project the upcall path as if recoded/tuned (divides upcall
  // delivery cost by costs.sa_tuned_factor).
  bool tuned_upcalls = false;
  // Section 4.3: cache and recycle discarded activations (ablation switch).
  bool recycle_activations = true;
  // Locality-aware processor allocation (off = the paper's locality-blind
  // Section 4.1 policy, byte-identical on seeded traces).  When on, the
  // allocator re-grants free processors to their last owning space (warm
  // cache), picks revocation victims that keep each space's holdings
  // socket-compact, and breaks fair-share leftover ties toward incumbency.
  bool affinity_allocation = false;
  // Cross-space processor lending (DESIGN.md §16).  Off by default: the
  // allocator then takes no lending decisions, schedules no lending events,
  // and seeded traces stay byte-identical to a build without the feature.
  // Composes with affinity_allocation: both ride the one incremental
  // decision path.  Its timings are ProcessorAllocator constants.
  bool lending = false;
};

// Event counters for experiments and tests.
struct KernelCounters {
  int64_t forks = 0;
  int64_t exits = 0;
  int64_t io_blocks = 0;
  int64_t page_faults = 0;
  int64_t upcall_page_fault_delays = 0;  // Section 3.1 special case
  int64_t kernel_waits = 0;
  int64_t wakeups = 0;
  int64_t timeslices = 0;
  int64_t preempt_interrupts = 0;
  int64_t dispatches = 0;
  // Scheduler-activation machinery (filled in by src/core/).
  int64_t upcalls = 0;
  int64_t upcall_events = 0;
  int64_t upcalls_add_processor = 0;
  int64_t upcalls_preempted = 0;
  int64_t upcalls_blocked = 0;
  int64_t upcalls_unblocked = 0;
  int64_t downcalls_add_more = 0;
  int64_t downcalls_idle = 0;
  int64_t downcalls_discard = 0;
  int64_t downcalls_preempt_request = 0;
  int64_t activation_allocs = 0;
  int64_t activation_reuses = 0;
  int64_t delayed_notifications = 0;
  int64_t cs_recoveries = 0;  // critical-section continuations at user level
  // Topology / locality (src/hw/topology.h).  Migrations count a context
  // dispatched on a different processor than it last ran on; all four stay
  // zero on a flat machine except same-socket migrations, which flat
  // machines do not track (no topology to attribute them to).
  int64_t migrations_core = 0;         // same socket, different core
  int64_t migrations_socket = 0;       // crossed sockets (cold cache)
  sim::Duration migration_penalty_time = 0;  // virtual time charged for both
  int64_t ult_steals_local = 0;   // user-level steals within a socket
  int64_t ult_steals_remote = 0;  // user-level steals across sockets
  // Cross-space processor lending (DESIGN.md §16).  All zero unless
  // Config::lending.
  int64_t loans_granted = 0;         // loans opened (dip surplus or yield hint)
  int64_t loans_reclaimed = 0;       // recalled loans that returned their processor
  int64_t loans_reclaimed_fast = 0;  // of those, synchronous (borrower idle)
  int64_t loans_adopted = 0;         // loans converted to ownership transfers
  int64_t loans_force_revoked = 0;   // watchdog gave up; borrower quarantined
  int64_t loan_deadline_pings = 0;   // unanswered reclaim-deadline pings
  int64_t downcalls_yield_hint = 0;  // accepted yield-hint downcalls
  int64_t yield_hints_declined = 0;  // hints offered with no eligible borrower
};

// Why the kernel asked a processor to stop (set before RequestInterrupt).
struct PendingAction {
  enum class Kind {
    kNone,
    kTimeslice,         // round-robin: requeue current, dispatch next
    kDispatchThread,    // priority wakeup: requeue current, run `thread`
    kRevoke,            // allocator takes the processor away from its space
    kLoanReclaim,       // lender's demand returned; bounded-latency loan recall
    kUpcallDeliver,     // stop current activation; space delivers an upcall here
    kDebugStop,         // debugger stop: save state, no notification (§4.4)
  };
  Kind kind = Kind::kNone;
  KThread* thread = nullptr;       // kDispatchThread
  SaSpaceIface* space = nullptr;   // kUpcallDeliver
  uint64_t loan_epoch = 0;         // kLoanReclaim: which loan this recalls
};

// A counting kernel event (a Topaz-style semaphore): signals not yet
// consumed, and the contexts blocked on it, oldest first.  A wait commits
// through SysBlockWait with Block as its check; a signal goes through
// SysEventSignal.
struct KernelEvent {
  int pending = 0;
  std::deque<KThread*> waiters;

  // A wait's commit check: consumes a pending signal (false: do not sleep)
  // or queues `kt` (true: sleep until signalled).
  bool Block(KThread* kt) {
    if (pending > 0) {
      --pending;
      return false;
    }
    waiters.push_back(kt);
    return true;
  }
};

class Kernel {
 public:
  Kernel(hw::Machine* machine, Config config);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  hw::Machine* machine() { return machine_; }
  sim::Engine& engine() { return machine_->engine(); }
  const CostModel& costs() const { return config_.costs; }
  const Config& config() const { return config_; }
  KernelMode mode() const { return config_.mode; }
  KernelCounters& counters() { return counters_; }
  ProcessorAllocator* allocator() { return allocator_.get(); }
  // Every address space ever created, reaped ones included (reporting).
  const std::vector<std::unique_ptr<AddressSpace>>& spaces() const {
    return spaces_;
  }
  // Teardown state machine for failed address spaces (space_reaper.h).
  SpaceReaper* reaper() const { return reaper_.get(); }
  // Fault injector installed on the machine (null = injection off).
  inject::FaultInjector* injector() const { return machine_->injector(); }

  // Upcall latency (event queued in the kernel -> upcall dispatched on a
  // processor); filled in by src/core/ and surfaced through rt::RunReport.
  trace::LatencyHistogram& upcall_latency() { return upcall_latency_; }
  const trace::LatencyHistogram& upcall_latency() const { return upcall_latency_; }

  // ---- setup (boot time, cost-free) ----
  AddressSpace* CreateAddressSpace(const std::string& name, AsMode mode, int priority);
  KThread* CreateThread(AddressSpace* as, KThreadHost* host, void* host_data);
  // Makes a thread runnable without charging syscall costs (boot/startup).
  void StartThread(KThread* kt);

  // ---- syscall services ----
  // All must be invoked from code logically running as `caller` on
  // `caller->processor()`.  `done` resumes the caller's user execution.

  // Create a new thread in the caller's space (Topaz Fork).
  void SysFork(KThread* caller, KThread* child, sim::Callback done);
  // Terminate the calling thread.
  void SysExit(KThread* caller);
  // Block in the kernel for a device operation of the given latency.
  void SysBlockIo(KThread* caller, sim::Duration latency);
  // Touch a virtual page.  Resident: a trap-only minor fault (`done`
  // resumes the caller).  Not resident: the caller blocks for `latency`
  // exactly like I/O and the page becomes resident at completion.
  void SysPageFault(KThread* caller, int64_t page, sim::Duration latency,
                    sim::Callback done);
  // Block in the kernel until SysWakeup(target=caller).  `block_check` runs
  // atomically inside the kernel at commit point: return true to block
  // (register on a wait queue there), false to abort the sleep (lost-wakeup
  // avoidance); on abort, `not_blocked` resumes the caller.
  void SysBlockWait(KThread* caller, sim::InlineFunction<bool()> block_check,
                    sim::Callback not_blocked);
  // Voluntarily yield the processor (requeue at the back of the ready queue).
  void SysYield(KThread* caller);
  // Make a kernel-blocked thread runnable again.
  void SysWakeup(KThread* caller, KThread* target, sim::Callback done);
  // Signal `ev`: wake its oldest waiter, or count the signal.  A signal that
  // finds no waiter is counted before its trap, so a wait committing on
  // another processor meanwhile consumes it instead of sleeping past it.
  void SysEventSignal(KThread* caller, KernelEvent* ev, sim::Callback done);
  // Charge an arbitrary kernel-mode span on the caller's processor (traps
  // that do not block: TAS fallback paths, downcalls).
  void ChargeKernel(KThread* caller, sim::Duration d, sim::Callback done);

  // ---- scheduling (kKernelThreads spaces) ----
  void MakeReady(KThread* kt);
  // Gives `proc` (which must have no span) something to do: runs a latched
  // action, dispatches from its ready queue, or leaves it idle.
  void DispatchOn(hw::Processor* proc);

  KThread* running_on(const hw::Processor* proc) const {
    return running_[static_cast<size_t>(proc->id())];
  }

  // True when `proc` is idle in kernel with nothing in flight: no running
  // thread, no span, no pending action, no latched interrupt.  Only such a
  // processor may be reclaimed synchronously by the allocator.
  bool IdleInKernel(const hw::Processor* proc) const {
    return running_on(proc) == nullptr && !proc->has_span() &&
           pending_[static_cast<size_t>(proc->id())].kind ==
               PendingAction::Kind::kNone &&
           !proc->interrupt_latched();
  }

  // True when an interrupt action is latched on (or in flight to) `proc`.
  // Such a processor is spoken for: moving it to another space out from
  // under the action would deliver the old owner's upcall — or worse, a
  // revocation — on a processor it no longer holds.
  bool HasPendingAction(const hw::Processor* proc) const {
    return pending_[static_cast<size_t>(proc->id())].kind !=
               PendingAction::Kind::kNone ||
           proc->interrupt_latched();
  }

  // ---- hooks used by the allocator and SA machinery (src/core/) ----
  // Requests an interrupt with the given purpose; returns false if another
  // action is already pending on that processor.
  bool RequestPreemption(hw::Processor* proc, PendingAction action);
  // Re-binds a running context to a processor (dispatch bookkeeping + host
  // RunOn after charging `dispatch_cost`).  Used by SA upcall delivery.
  void RunContextOn(hw::Processor* proc, KThread* kt, sim::Duration extra_kernel_cost);
  // Clears the running marker (processor going idle or leaving kernel
  // control).  The one place a thread leaves a processor, so its time slice
  // ends here.
  void ClearRunning(hw::Processor* proc) {
    const size_t pid = static_cast<size_t>(proc->id());
    running_[pid] = nullptr;
    engine().DisarmTimer(quantum_[pid]);
  }

  // The space the explicit allocator has given `proc` to: null while it is
  // free or detaching, and always in native mode.
  AddressSpace* OwnerOf(const hw::Processor* proc) const;

  // Demand bookkeeping for kKernelThreads spaces under the explicit
  // allocator: desired = runnable thread count.
  void UpdateKtDemand(AddressSpace* as);

  // Effective upcall delivery cost (honours tuned_upcalls).
  sim::Duration UpcallCost() const;

  // Total number of live (not dead) workload threads across spaces — used by
  // harnesses to detect completion.
  int64_t live_threads() const { return live_threads_; }

 private:
  friend class ProcessorAllocator;
  friend class SpaceReaper;

  // The ready queue of kernel-thread space `as`: the one global queue under
  // the native kernel, the space's own under the explicit allocator.
  ReadyQueue& ReadyQueueOf(AddressSpace* as);
  // The ready queue that feeds `proc`: the global one under the native
  // kernel, else its owner's if that is a kernel-thread space (null for a
  // free or scheduler-activation processor).
  ReadyQueue* QueueOfProcessor(const hw::Processor* proc);

  void OnInterrupt(hw::Processor* proc, hw::Interrupt irq);
  void HandleAction(hw::Processor* proc, PendingAction action, KThread* stopped);
  // Every hand-off of a processor starts here: unassign `proc` from its
  // owner, if any, and tell the context it stopped.  A live SA owner gets a
  // preempted upcall; a kernel-thread context is requeued and an idle
  // processor of its space kicked.  `stopped` is nullptr when the processor
  // was caught between spans.  Returns the old owner.  Outside tests, the
  // only caller of ProcessorAllocator::Unassign and
  // SaSpaceIface::OnProcessorRevoked.
  AddressSpace* DetachAndNotify(hw::Processor* proc, KThread* stopped);
  // The one revoke step: detach `proc`, charge the preempt interrupt, then
  // hand it to the allocator (OnRevokeComplete).  Serves kRevoke, an upcall
  // delivery that finds its space reaped, and DispatchOn's reaped-owner
  // catch-all.
  void RevokeNow(hw::Processor* proc, KThread* stopped);
  // Makes `kt` the thread running on `proc` where a dispatch starts.
  void MarkRunning(hw::Processor* proc, KThread* kt);
  void ChargeDispatchAndRun(hw::Processor* proc, KThread* kt);
  void RunThread(KThread* kt);
  // Starts a time slice on `proc` (a kernel-thread processor), replacing
  // the one it had.
  void ArmQuantum(hw::Processor* proc);
  // The time slice of the thread running on `proc` ended.
  void OnQuantumFire(hw::Processor* proc);
  void OnIoComplete(KThread* kt);
  // Schedules the completion of `kt`'s device wait, its latency from now.
  // With an active injector and an injectable wait, the completion may fail
  // transiently: the kernel retries with exponential backoff up to the
  // plan's budget, then completes with an error flagged on the thread
  // (take_io_failed).  Paging I/O is not injectable — page residency is
  // scheduled independently and must not desynchronize from the thread's
  // wake-up.
  void ScheduleIoCompletion(KThread* kt);
  void FinishIo(KThread* kt);
  // The trap of every blocking call: charges the block, then commits —
  // SysBlockWait's check first — and starts the caller's device wait.
  void FinishBlock(KThread* caller);
  void CommitBlock(KThread* caller, hw::Processor* proc);

  // The kernel call charging on a processor: what its span's continuation
  // needs besides the caller.  Kept once per processor because a kernel
  // span is never preempted: the call ends on the processor that began it,
  // so the continuation captures only pointers.
  struct Call {
    sim::Callback done;                       // resumes the caller
    sim::InlineFunction<bool()> block_check;  // SysBlockWait's commit check
    KThread* peer = nullptr;                  // SysFork's child, SysWakeup's target
  };
  // Files `call` for the kernel span `proc` is about to begin.
  void BeginCall(const hw::Processor* proc, Call call);
  // Hands back the call of `proc`'s ending kernel span.
  Call TakeCall(const hw::Processor* proc);
  // Applies the injector's latency-spike perturbation (if any) to a blocking
  // I/O's latency, tracing the spike.  Identity when injection is off.
  sim::Duration MaybePerturbLatency(KThread* caller, sim::Duration latency);
  // Every processor's span-end check, the one place a torn-down space's
  // continuation stops (DESIGN.md §12): if the context on `proc` belongs to
  // a reaped space, parks the processor and returns true, so the processor
  // drops the span's continuation too.  Inline: it runs at every span end.
  bool StopIfReaped(hw::Processor* proc) {
    const KThread* kt = running_on(proc);
    if (kt == nullptr || !kt->address_space()->reaped()) {
      return false;
    }
    ParkReaped(proc);
    return true;
  }
  // Drops the filed call of `proc`'s ended span, takes the dead context off
  // and gives the kernel a dispatch point there, where a latched action is
  // consumed or the reaped-owner catch-all revokes the processor.
  void ParkReaped(hw::Processor* proc);
  hw::Processor* FindIdleProcessorFor(AddressSpace* as);
  // Native mode: place a high-priority wakeup at a random processor
  // (modelling interrupt-local delivery); may preempt lower-priority work.
  bool PlaceHighPriority(KThread* kt);

  // Cold-cache accounting for `kt` landing on `proc` after last running
  // elsewhere: counts the migration by hierarchy level, emits the
  // cat::kLocality record, and returns the virtual-time penalty to fold
  // into the dispatch span.  Zero (and silent) on a flat machine.
  sim::Duration NoteMigration(hw::Processor* proc, const KThread* kt);

  sim::Duration CreateCost(const AddressSpace* as) const;
  sim::Duration ExitCost(const AddressSpace* as) const;
  sim::Duration DispatchCost(const AddressSpace* as) const;
  sim::Duration BlockCost(const AddressSpace* as) const;
  sim::Duration WakeupCost(const AddressSpace* as) const;

  hw::Machine* machine_;
  Config config_;
  KernelCounters counters_;
  std::unique_ptr<ProcessorAllocator> allocator_;
  std::unique_ptr<SpaceReaper> reaper_;

  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  std::vector<KThread*> running_;           // per processor id
  std::vector<sim::TimerId> quantum_;       // time-slice timer, per processor id
  std::vector<PendingAction> pending_;      // per processor id
  std::vector<Call> calls_;                 // per processor id
  ReadyQueue global_ready_;                 // native mode
  int64_t next_thread_id_ = 1;
  int64_t live_threads_ = 0;
  trace::LatencyHistogram upcall_latency_;
};

}  // namespace sa::kern

#endif  // SA_KERN_KERNEL_H_
