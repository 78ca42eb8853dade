// An adversarial scheduler-activations client (DESIGN.md §11).
//
// The paper's allocator is explicitly designed so that a misbehaving address
// space can only hurt itself: processors are allocated by the kernel, not
// trusted to user-level cooperation.  This runtime exercises that claim.  It
// speaks the SA protocol just well enough to hold processors and then
// misbehaves in every way the interface allows:
//
//   * it lies in its Table-3 hints — it always claims `claimed_demand`
//     processors regardless of actual work, and never issues the
//     "processor is idle" downcall (hoarding);
//   * it ignores the events in every upcall: preempted-thread state is
//     dropped on the floor and discarded activations are never returned
//     (so the kernel's recycle cache stays empty for this space);
//   * every processor it holds burns in an endless user-mode compute loop.
//
// It hosts no workload threads (background-only: its empty thread table is
// always done); Spawn and the sync-object factories abort.  Tests co-run it
// with well-behaved spaces and assert the isolation property: the others'
// completion time is unaffected beyond the fair-share split.

#ifndef SA_RT_MISBEHAVING_RUNTIME_H_
#define SA_RT_MISBEHAVING_RUNTIME_H_

#include <memory>
#include <string>

#include "src/core/sa_space.h"
#include "src/kern/kernel.h"
#include "src/rt/runtime.h"

namespace sa::rt {

class MisbehavingRuntime : public Runtime, private kern::KThreadHost {
 public:
  // Creates an SA-mode address space named `name` that will claim
  // `claimed_demand` processors forever.
  MisbehavingRuntime(kern::Kernel* kernel, std::string name, int claimed_demand,
                     int priority = 0);
  ~MisbehavingRuntime() override;

  int CreateLock(LockKind kind) override;
  int CreateCond() override;
  int CreateKernelEvent() override;
  int Spawn(WorkloadFn fn, std::string thread_name) override;
  void Start() override;

  core::SaSpace* space() { return space_.get(); }

  // Misbehavior counters (tests assert these are non-zero, i.e. the
  // adversary actually adversed).
  int64_t upcall_events_ignored() const { return upcall_events_ignored_; }
  int64_t lies_told() const { return lies_told_; }
  int64_t preemptions_dropped() const { return preemptions_dropped_; }
  // Cross-space lending: loans this space received as borrower — and, being
  // a hoarder, never volunteered back.  It burns on every processor it
  // holds, so each reclaim must preempt it (no fast path); with an injected
  // reclaim delay it sits on the deadline until force-revoked.
  int64_t loans_hoarded() const { return address_space()->loan_state().borrows; }

 private:
  // kern::KThreadHost (activation contexts):
  void RunOn(kern::KThread* kt) override;
  void OnPreempted(kern::KThread* kt, const hw::Interrupt& irq) override;

  void Burn(kern::KThread* kt);

  std::unique_ptr<core::SaSpace> space_;
  const int claimed_demand_;
  const sim::Duration burn_slice_;

  int64_t upcall_events_ignored_ = 0;
  int64_t lies_told_ = 0;
  int64_t preemptions_dropped_ = 0;
};

}  // namespace sa::rt

#endif  // SA_RT_MISBEHAVING_RUNTIME_H_
