// Kernel-side scheduler-activation machinery for one address space.
//
// This is the heart of the paper (Section 3): the kernel gives the address
// space a virtual multiprocessor, vectors every scheduling-relevant event to
// user level via upcalls on fresh activations (Table 2), and accepts the two
// processor-allocation hints from user level (Table 3).  Invariants
// maintained here (and checked by tests):
//
//   * there are always exactly as many running activations as processors
//     assigned to the address space;
//   * a user-level thread stopped by the kernel is never resumed directly —
//     its state travels up in a fresh activation's event list;
//   * events that coincide are delivered in a single upcall;
//   * when the last processor is preempted, notification is delayed until
//     the space next receives a processor.

#ifndef SA_CORE_SA_SPACE_H_
#define SA_CORE_SA_SPACE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/activation.h"
#include "src/core/upcall.h"
#include "src/kern/kernel.h"
#include "src/kern/sa_iface.h"
#include "src/sim/callback.h"

namespace sa::core {

class SaSpace : public kern::SaSpaceIface {
 public:
  // `act_host` is the user-level thread system's host for activation
  // contexts: its RunOn processes a fresh activation's event inbox and then
  // dispatches user-level threads.
  SaSpace(kern::Kernel* kernel, kern::AddressSpace* as, kern::KThreadHost* act_host);
  ~SaSpace() override;

  kern::AddressSpace* address_space() const { return as_; }
  kern::Kernel* kernel() const { return kernel_; }

  // Boot-time demand registration (program start: the kernel creates the
  // first activation once the allocator can grant a processor).  Cost-free.
  void BootDemand(int desired);

  // ---- downcalls from the user level (Table 3) ----
  // Each is made by a running activation `caller`; `done` resumes it once
  // the kernel has charged the call and acted on it.
  // "Add more processors (additional # of processors needed)".
  void DowncallAddProcessors(kern::KThread* caller, int additional, sim::Callback done);
  // "This processor is idle ()".
  void DowncallProcessorIdle(kern::KThread* caller, sim::Callback done);
  // Cross-space lending (DESIGN.md §16): "this processor is idle — lend it
  // if someone wants it right now".  When lending is off or no space would
  // take the processor, the hint declines synchronously and cost-free
  // (`declined` runs at once: no charge, no trace, no events).  On
  // acceptance the calling activation is stopped, the processor travels to
  // the borrower through the loan ledger, and `declined` is dropped unrun —
  // the space hears about the loss through the ordinary preempted upcall.
  void DowncallYieldHint(kern::KThread* caller, sim::Callback declined);
  // Return discarded activations for reuse, in bulk (Section 4.3).  Takes
  // the ids before the charge begins, leaving `ids` empty with its
  // capacity, so the caller's buffer is ready for the next batch even when
  // `done` runs at once.
  void DowncallReturnDiscards(kern::KThread* caller, std::vector<int64_t>&& ids,
                              sim::Callback done);
  // Priority extension (Section 3.1): the user level knows exactly which
  // thread runs on each of its processors, so it can ask the kernel to
  // interrupt one of its *own* processors that is running a low-priority
  // thread; the kernel answers with the usual preempted upcall.
  void DowncallPreemptProcessor(kern::KThread* caller, int processor_id,
                                sim::Callback done);

  // The user level took the events of an upcall (Activation::inbox) and
  // hands over the buffer, which carries a later batch.  The caller's vector
  // is always left empty, kept or not.  Upcall batches cycle between
  // pending_ and one spare, so a warmed space whose deliveries do not
  // overlap delivers without allocating.
  void ReturnBatch(std::vector<UpcallEvent> batch);

  // ---- kernel event entry points (kern::SaSpaceIface) ----
  void OnProcessorGranted(hw::Processor* proc) override;
  void OnProcessorRevoked(hw::Processor* proc, kern::KThread* stopped) override;
  void OnThreadBlockedInKernel(kern::KThread* blocked, hw::Processor* proc) override;
  void OnThreadUnblockedInKernel(kern::KThread* unblocked) override;
  void OnUpcallProcessorReady(hw::Processor* proc, kern::KThread* stopped) override;
  int OnSpaceReaped() override;

  // ---- debugger interface (Section 4.4) ----
  // Stops an activation without generating an upcall (logical processor);
  // the kernel directly resumes it on DebuggerResume — the one sanctioned
  // exception to the never-resume rule.
  void DebuggerStop(kern::KThread* act);
  void DebuggerResume(kern::KThread* act);

  // ---- introspection (tests / experiments) ----
  int num_assigned() const { return static_cast<int>(as_->assigned().size()); }
  int num_running_activations() const;
  int num_cached_activations() const { return static_cast<int>(cache_.size()); }
  size_t num_pending_events() const { return pending_.size(); }
  int user_desired() const { return user_desired_; }

 private:
  Activation* NewActivation(sim::Duration* setup_cost);
  kern::KThread* LookupActivation(int64_t id);
  void QueueEvent(UpcallEvent ev);
  UserThreadState CaptureUserState(kern::KThread* act);
  // Delivers pending events: picks one of our processors (second preemption)
  // or waits for / requests a grant.
  void EnsureDelivery();
  // Fresh activation + upcall on `proc` (which must be span-free and ours),
  // through TryDeliver.
  void DeliverOn(hw::Processor* proc);
  // Why a delivery is held back (DESIGN.md §8).
  enum class Hold {
    kPageIn,       // §3.1: the upcall entry page is being read in
    kAllocDenied,  // injected activation-allocation denial: the retry draws again
    kDelayed,      // injected upcall delay: the retry is never delayed again
  };
  // The one deferral step: holds delivery on `proc` back while the upcall
  // path pages in (a processor that faults during a page-in joins it), or
  // when the injector (DESIGN.md §11) denies or delays it — drawn only when
  // `draw`.  Otherwise delivers now.
  void TryDeliver(hw::Processor* proc, bool draw);
  // A hold ended: serves every processor that waited on it.
  void Resume(hw::Processor* proc, Hold why);
  // `proc` is still ours and bare: no span, no context running.
  bool Usable(const hw::Processor* proc) const;
  // Is a delivery held back?  No upcall starts in the space meanwhile.
  bool Holding() const { return held_.injected > 0 || !held_.paging.empty(); }
  // The delivery itself: batch pending events into a fresh activation and
  // run it on `proc`.  Only called once TryDeliver's holds passed.
  void DeliverNow(hw::Processor* proc);
  // Queues the preempted event of `stopped` (its user state travels up), or
  // an anonymous loss of `proc` when no activation was stopped.
  void QueuePreempted(hw::Processor* proc, kern::KThread* stopped);
  void UpdateDemand();
  // Vessel-invariant trace snapshot at protocol-quiescent points (§10).
  void TraceVessel();
  // Starts downcall `then` for `caller`, keeping `done` on its activation
  // until ResumeCaller.
  void Downcall(kern::KThread* caller, sim::Duration cost, sim::Callback done,
                sim::Callback then);
  // Resumes the caller of a charged downcall.
  static void ResumeCaller(kern::KThread* caller);

  kern::Kernel* kernel_;
  kern::AddressSpace* as_;
  kern::KThreadHost* act_host_;

  std::vector<UpcallEvent> pending_;
  std::vector<UpcallEvent> spare_;  // the next batch's buffer (ReturnBatch)
  bool upcall_requested_ = false;  // a kUpcallDeliver preemption is in flight
  // Deliveries held back and the processors waiting on them.
  struct Held {
    int injected = 0;  // injected denials and delays in flight, one processor each
    // Processors waiting on the §3.1 page-in, first the one that started
    // it; non-empty exactly while a page-in runs.
    std::vector<hw::Processor*> paging;
  };
  Held held_;
  std::vector<kern::KThread*> cache_;  // recycled activations
  // Ids of the DowncallReturnDiscards batches in flight, back to back, and
  // each batch's caller and size, oldest first.  Every such downcall charges
  // the same non-preemptible kernel span, so they end in the order they
  // started.
  std::vector<int64_t> returning_;
  std::vector<std::pair<kern::KThread*, size_t>> returning_batches_;
  // Every activation made, in creation order: ids count up from 1, so
  // activation `id` is owned_[id - 1].
  std::vector<std::unique_ptr<Activation>> owned_;
  int user_desired_ = 0;
};

}  // namespace sa::core

#endif  // SA_CORE_SA_SPACE_H_
