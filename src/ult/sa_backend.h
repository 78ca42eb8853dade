// Modified FastThreads: virtual processors are scheduler activations.
//
// This backend is the user-level half of the paper's system: it consumes the
// Table-2 upcalls (processing each event list in a fresh activation and then
// using that activation as an ordinary vessel), issues the Table-3 downcalls
// on parallelism transitions, continues preempted critical sections before
// taking any locks, recycles discarded activations in bulk, and idles with
// hysteresis before telling the kernel a processor is free.
//
// Event processing is queue-driven: the events of an upcall are appended to
// a single ordered inbox and drained by whichever vessel is currently
// processing.  This is what makes processing itself recoverable — if the
// vessel draining the inbox is preempted mid-recovery, the next upcall's
// vessel simply continues draining (Section 3.1's "recover in one way if a
// user-level thread is running, and in a different way if not").

#ifndef SA_ULT_SA_BACKEND_H_
#define SA_ULT_SA_BACKEND_H_

#include <memory>
#include <vector>

#include "src/core/sa_space.h"
#include "src/kern/kernel.h"
#include "src/ult/backend.h"

namespace sa::ult {

class SaBackend : public VcpuBackend, public kern::KThreadHost {
 public:
  SaBackend(kern::Kernel* kernel, kern::AddressSpace* as);
  ~SaBackend() override;

  core::SaSpace* space() { return space_.get(); }

  // VcpuBackend:
  void Attach(FastThreads* ft) override;
  void Start() override;
  void OnIdle(Vcpu* v) override;
  void NotifyParallelism(Vcpu* v, sim::Callback resume) override;
  void OnThreadLoaded(Vcpu* v, Tcb* t) override;
  void OnThreadUnloaded(Vcpu* v) override;
  sim::Duration ForkOverhead() const override;
  sim::Duration WaitOverhead() const override;
  sim::Duration ResumeCheckOverhead() const override;

  // kern::KThreadHost (activation contexts):
  void RunOn(kern::KThread* kt) override;
  void OnPreempted(kern::KThread* kt, const hw::Interrupt& irq) override;
  void OnSpaceReaped() override;

 private:
  // Processes an upcall's events (Table 2) in the context of the fresh
  // activation that carries them, after the kernel charged the delivery;
  // the activation then serves as an ordinary vessel for user-level threads.
  // The events move to the shared inbox and their buffer goes back to the
  // space for the next batch, leaving `events` empty.
  void HandleUpcall(kern::KThread* upcall_activation,
                    std::vector<core::UpcallEvent>& events);
  // Binds the vcpu slot for kt's processor to kt; returns nullptr if every
  // slot is in use (surplus processor).
  Vcpu* BindSlot(kern::KThread* kt);
  // Unbinds the slot whose backing context is the given (stopped)
  // activation.  Keyed by activation identity, not processor id: the
  // processor may already have been re-granted and its slot rebound by the
  // time the preemption notification is processed.
  void UnbindSlotOfActivation(int64_t activation_id);
  // Anonymous preemption (no activation): unbind by processor, but only if
  // the slot's context is not running there any more.
  void UnbindIdleSlotByProcessor(int processor_id);
  void UnbindSlot(Vcpu* v);
  // Clears what a slot knows of its previous binding and backs it with `kt`
  // (nullptr when unbinding).
  void ResetSlot(Vcpu* v, kern::KThread* kt);
  Vcpu* SlotByProcessor(int processor_id);
  int BoundCount() const;
  // Processors to ask the kernel for in an add-processors downcall: how
  // far the bound count trails the runnable threads the slots could run,
  // when that also exceeds the demand the kernel knows (0: none).
  int ProcessorsToAsk() const;

  // Drains the shared event inbox in the context of `kt` / slot `v`
  // (v == nullptr for a surplus processor), then dispatches.
  void Drain(kern::KThread* kt, Vcpu* v);
  // Pops the inbox's oldest event; false when it is empty.
  bool TakeEvent(core::UpcallEvent* ev);
  void FinishDrain(kern::KThread* kt, Vcpu* v);
  void NoteDiscard(int64_t activation_id);
  // Tells the kernel `v`'s processor is idle (Table 3).  Wakes are blocked
  // for the downcall; work arriving meanwhile is parked on v's list, where
  // EndIdleTransition finds it when the downcall returns.
  void NotifyIdle(Vcpu* v);

  kern::Kernel* kernel_;
  kern::AddressSpace* as_;
  FastThreads* ft_ = nullptr;
  std::unique_ptr<core::SaSpace> space_;
  // The slot bound on each processor (nullptr if none), indexed by
  // processor id, and how many slots are bound.
  std::vector<Vcpu*> proc_slots_;
  int bound_slots_ = 0;
  // Events not yet processed are inbox_[inbox_head_..]; the vector is
  // emptied (keeping its capacity) whenever the head catches up.
  std::vector<core::UpcallEvent> inbox_;
  size_t inbox_head_ = 0;
  std::vector<int64_t> discards_;  // keeps its capacity across batches
};

}  // namespace sa::ult

#endif  // SA_ULT_SA_BACKEND_H_
