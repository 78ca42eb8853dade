// FastThreads: the user-level thread package (Anderson et al. 1989), as used
// by the paper.
//
// Structure (Section 4.2 / 4.3):
//  * per-virtual-processor ready lists, accessed LIFO for cache locality,
//    with a scan of the other processors' lists when the local one is empty;
//  * per-virtual-processor unlocked free lists of thread control blocks
//    (of their ids: the records behind them are one stack for the space);
//  * user-level locks and conditions — blocking a thread never enters the
//    kernel;
//  * critical sections are continued (not restarted) after an inopportune
//    preemption: when the kernel reports a stopped thread that held a
//    spinlock, the thread is continued via a user-level context switch until
//    it exits the critical section, then control returns to the event
//    handler (Section 3.3, recovery — deadlock-free).
//
// Modelling note: the package's *internal* critical sections (a few
// microseconds around free-list and ready-list operations) are modelled as
// non-preemptible management spans — an interrupt arriving during one is
// latched and delivered at the next preemptible boundary.  The latency
// effect is identical to continuing the few-microsecond remainder via the
// paper's copied-critical-section mechanism, without modelling copied code.
// Application-level spinlock critical sections — the long, performance-
// relevant ones — get the full recovery protocol.

#ifndef SA_ULT_FAST_THREADS_H_
#define SA_ULT_FAST_THREADS_H_

#include <memory>
#include <vector>

#include "src/kern/kernel.h"
#include "src/rt/runtime.h"
#include "src/sim/callback.h"
#include "src/ult/backend.h"
#include "src/ult/config.h"
#include "src/ult/tcb.h"

namespace sa::ult {

// User-level operation counters (reported by experiments).
struct UltCounters {
  int64_t forks = 0;
  int64_t exits = 0;
  int64_t dispatches = 0;
  int64_t steals = 0;
  int64_t signals = 0;
  int64_t waits = 0;
  int64_t spin_acquires = 0;
  int64_t spin_contended = 0;
  int64_t idles = 0;
  // Threads made ready during an idle transition, parked on the
  // transitioning vcpu's list for its end-of-downcall re-check.
  int64_t idle_handoffs = 0;
  // Locality split of `steals`, classified against the machine topology.
  // Counted whenever the machine is hierarchical — with or without
  // locality_aware_stealing — so ablations can compare steal distance across
  // policies.  Both stay zero on a flat machine.
  int64_t steals_same_socket = 0;
  int64_t steals_cross_socket = 0;
  // Heartbeat-promoted lazy forking (DESIGN.md §17).  `forks` counts only
  // eager forks; a lazy fork counts here and then exactly one of
  // {promotions, inlines} when resolved.
  int64_t lazy_forks = 0;
  int64_t lazy_promotions = 0;        // heartbeat picked the oldest frame
  // Processor-demand promotions: a dry work-stealer, or an idle vcpu
  // noticed at frame-push time (both resolve to kSteal/kDrain trace args).
  int64_t lazy_steal_promotions = 0;
  int64_t lazy_inlines = 0;           // join ran the unpromoted frame inline
  // Total virtual time spent in management spans (ChargeMgmt).
  sim::Duration mgmt_time = 0;
  // The fork-attributable slice of mgmt_time: eager fork charges, lazy
  // pushes, inline (pcall) resolution, and deferred promotion charges.
  // Mode-independent costs (locks, joins, dispatch) are excluded, so
  // fork_time/tasks is the per-fork overhead bench_heartbeat gates on.
  sim::Duration fork_time = 0;
};

class FastThreads {
 public:
  // `table` is the hosting runtime's: it creates, finishes and releases
  // the threads this package runs.
  FastThreads(kern::Kernel* kernel, kern::AddressSpace* as, UltConfig config,
              VcpuBackend* backend, rt::ThreadTable& table);

  const UltConfig& config() const { return config_; }
  UltCounters& counters() { return counters_; }

  // ---- setup ----
  int CreateLock(rt::LockKind kind);
  int CreateCond();
  // A counting event whose wait and signal trap into the kernel
  // (rt::Runtime::CreateKernelEvent; Section 5.2's upcall benchmark).
  int CreateKernelEvent();
  // Creates a thread with no cost (pre-start spawn); enqueues it ready.
  Tcb* SpawnThread(rt::WorkThread* w);

  Vcpu* vcpu(int index) { return vcpus_[static_cast<size_t>(index)].get(); }
  int num_vcpus() const { return static_cast<int>(vcpus_.size()); }
  UltLock* lock(int id) { return locks_[static_cast<size_t>(id)].get(); }
  // TCB records made so far: the peak number of threads live at once.
  size_t tcb_records() const { return tcbs_.size(); }

  // Number of threads that are ready or running (parallelism signal).
  int runnable() const { return runnable_; }
  // True once any thread with a non-default priority exists.  Until then
  // every ready thread ties, so dispatch takes the first candidate it meets
  // (the Table 1/4 fast path) and the SA backend never looks for a
  // lower-priority processor to preempt.
  bool has_priorities() const { return has_priorities_; }
  // Highest priority among ready threads (INT_MIN if none are ready).
  int HighestReadyPriority() const;
  // The bound virtual processor (other than `exclude`) running the
  // lowest-priority thread, or nullptr if none is running a thread.
  Vcpu* LowestPriorityRunningVcpu(const Vcpu* exclude) const;
  // Mutable access for the SA backend, which counts a thread runnable again
  // when an unblocked upcall hands it back.
  int& runnable_ref() { return runnable_; }

  // ---- execution entry points (called by backends/hosts) ----
  // Continue whatever `v` should be doing: its current thread or a dispatch.
  void RunVcpu(Vcpu* v);
  // Run the next ready thread on `v` (TakeReady), else promote a lazy-fork
  // frame (DESIGN.md §17), else go idle.
  void Dispatch(Vcpu* v);
  // Load `t` into `v` and continue its execution (saved span, pending
  // spinlock, or coroutine step).
  void ContinueThread(Vcpu* v, Tcb* t);
  // Make `t` runnable; wakes an idle virtual processor if one exists.
  // `from` is the vcpu doing the enqueue (locality).  front=false queues at
  // the back (used for just-preempted threads so that an unblocked thread in
  // the same upcall batch runs first — a thread-system policy choice the
  // paper leaves to user level).
  void EnqueueReady(Vcpu* from, Tcb* t, bool front = true);

  // The kernel event/IO op of `t` completed while it stayed bound to `v`
  // (kernel-thread backend): surface a failed I/O the kernel filed in v's
  // context, then resume the coroutine.
  void ResumeAfterKernel(Vcpu* v, Tcb* t);

  // Idle transitions.  A backend that must block wakes while it notifies the
  // kernel of an idle processor (the downcall runs with idle_spinning
  // cleared and no open span, so EnqueueReady's wake scan skips the vcpu)
  // brackets the window with these.  EndIdleTransition re-checks for work
  // that arrived meanwhile — EnqueueReady parks such threads on the
  // transitioning vcpu's own list, so the re-check finds them by
  // construction rather than relying on every caller to rescan remote
  // lists.  EndIdleTransition is a no-op if the slot was unbound or rebound
  // while the downcall was in flight (those paths re-dispatch themselves).
  void BeginIdleTransition(Vcpu* v);
  void EndIdleTransition(Vcpu* v);

  // Backend notification that `v` is losing its processor (revocation or
  // idle return).  Emits the trace record that closes the vcpu's idle
  // interval — without it the invariant checker would read a processor-less
  // vcpu as idle-spinning while work queues for the space's remaining
  // processors.
  void NoteUnbound(Vcpu* v, int processor_id);

  // Teardown (space reaped): disarms the heartbeat, the one timer of the
  // package itself.  Nothing else is needed: the kernel drops every span
  // continuation of a dead space where the span ends (Kernel::StopIfReaped),
  // so no code of this package runs for the space again.
  void Halt();

  // Critical-section recovery (Section 3.3): `t` arrived from the kernel
  // stopped while holding a spinlock.  Continue it on `v` until it exits the
  // critical section, then run `after` with the vcpu on which processing
  // resumes (recovery can migrate across processors).  If `t` holds no lock
  // this readies it immediately and runs `after` synchronously.
  void RecoverOrReady(Vcpu* v, Tcb* t, sim::InlineFunction<void(Vcpu*)> after);

  // ---- cost helpers ----
  sim::Duration FlagCs(int crossings) const {
    return config_.flag_based_critical_sections
               ? crossings * kernel_->costs().cs_flag_overhead
               : 0;
  }

  // Charge a management span (non-preemptible; see file comment) on v's
  // processor, then run `fn`.
  void ChargeMgmt(Vcpu* v, sim::Duration d, sim::Callback fn);

  // Interpret the pending op of `t` (public for the runtime facade).
  void Interpret(Tcb* t);
  void StepAndInterpret(Tcb* t);

 private:
  void DoFork(Tcb* parent);
  void DoForkLazy(Tcb* parent);
  void DoJoin(Tcb* t);
  void DoAcquire(Tcb* t);
  void DoRelease(Tcb* t);
  void DoWait(Tcb* t);
  void DoSignal(Tcb* t);
  void DoYield(Tcb* t);
  void DoDone(Tcb* t);
  // Blocks the running thread `t` at user level (it is already queued
  // where its waker finds it) and dispatches its vcpu.
  void BlockSync(Tcb* t);
  // `w`'s body finished: marks it finished and readies its joiners.
  void FinishWork(Vcpu* v, rt::WorkThread* w);
  // `t` blocks in the kernel on its context v->kt: a kernel thread takes its
  // processor with it, an activation's processor gets a fresh upcall.
  void BlockInKernel(Vcpu* v, Tcb* t);
  // Waits on the kernel event named by t's current op.
  void KernelWait(Vcpu* v, Tcb* t);
  void TrySpinAcquire(Vcpu* v, Tcb* t);
  void GrantSpinLock(UltLock* lock);
  void FinishRecovery(Tcb* t);

  // ---- heartbeat promotion (DESIGN.md §17) ----
  // Removes the frame for `tid` from whichever promotion stack holds it;
  // returns false if the child was already promoted (or eagerly forked).
  bool TakeLazyFrame(int tid, LazyFrame* out);
  // Pops the globally oldest frame (lowest seq).  Returns false if none.
  bool PopOldestLazyFrame(LazyFrame* out, Vcpu** owner);
  // Promotes the oldest frame for an idle-spinning vcpu, if both exist.
  void PromoteForIdleVcpu();
  // Materializes `frame` into a ready TCB.  The deferred fork cost rides on
  // the TCB (lazy_promote_charge) and is charged at its first dispatch.
  Tcb* PromoteFrame(const LazyFrame& frame, Vcpu* owner,
                    trace::HbPromoteSource source, int promoting_cpu);
  // Arms the virtual-time beat if enabled and not already pending.
  void ArmHeartbeat();
  void OnHeartbeat();
  // The inline (pcall) completion path of DoDone: the finished body was
  // running on a joiner's TCB; pop back to the caller body and continue it.
  void DoneInline(Tcb* t);

  Tcb* AllocTcb(Vcpu* v, rt::WorkThread* w);
  void FreeTcb(Vcpu* v, Tcb* t);
  // The one selection rule: removes and returns the highest-priority ready
  // thread, or nullptr.  Ties go to v's own list, newest first (LIFO,
  // Section 4.2), then to the other lists in victim order (the Section 4.2
  // rotation, same-socket victims first under locality_aware_stealing),
  // oldest first.
  // `*owner` is the vcpu whose list held it.
  Tcb* TakeReady(Vcpu* v, Vcpu** owner);
  // Charges the dispatch of `t` on `v` (plus a promoted frame's deferred
  // fork and a resumed thread's condition-code restore), then runs it.
  void ChargeDispatch(Vcpu* v, Tcb* t);
  // Classifies a successful steal by topology distance (counters + trace);
  // returns the virtual-time penalty to fold into the thief's steal charge.
  sim::Duration NoteSteal(Vcpu* thief, Vcpu* victim);

  // Tracing (cat::kUlt).  TraceOn() gates sites whose arguments (queued
  // ready count) cost something to compute.
  bool TraceOn() const;
  void TraceUlt(trace::Kind kind, int cpu, uint64_t a0, uint64_t a1);
  // Threads sitting on ready lists (excludes running/spinning threads);
  // kUltReady/kUltRunnable records carry this so the trace checker can tell
  // a legitimately idle vcpu from one idling above unclaimed work.
  size_t QueuedReady() const;

  kern::Kernel* kernel_;
  kern::AddressSpace* as_;
  UltConfig config_;
  VcpuBackend* backend_;
  rt::ThreadTable& table_;
  UltCounters counters_;

  std::vector<std::unique_ptr<Vcpu>> vcpus_;
  std::vector<std::unique_ptr<Tcb>> tcbs_;  // owns every record
  std::vector<Tcb*> spare_tcbs_;            // records serving no thread
  std::vector<std::unique_ptr<UltLock>> locks_;
  std::vector<std::unique_ptr<UltSem>> sems_;
  std::vector<std::unique_ptr<kern::KernelEvent>> kernel_events_;
  int runnable_ = 0;
  int next_tcb_id_ = 0;
  bool has_priorities_ = false;

  // Heartbeat promotion state.  lazy_outstanding_ gates every lazy check on
  // the hot paths (a single integer compare when the feature is unused);
  // the beat is armed only while frames are outstanding, so an idle system
  // drains and seeded eager-only traces stay byte-identical.
  int64_t lazy_outstanding_ = 0;
  uint64_t lazy_seq_ = 0;
  // The beat's timer, added only when heartbeat_us > 0.
  sim::TimerId heartbeat_ = sim::kNoTimer;
};

}  // namespace sa::ult

#endif  // SA_ULT_FAST_THREADS_H_
