// Virtual-processor backend interface: what FastThreads needs from whatever
// supplies its processors.  Everything else — dispatch, synchronization,
// kernel I/O, page faults and kernel-event waits — lives in FastThreads, and
// the kernel tells the two kinds of context apart: it keeps each kernel
// event (kern::KernelEvent) and files a stopped context's span and failed
// I/O, so as kernel-context hosts the backends do only open-span (spin and
// idle loop) bookkeeping when preempted.  The two implementations differ
// only where the paper's two FastThreads do: how a virtual processor gets
// and gives up a processor, and the per-operation costs of Section 5.1.
//
//  * KtBackend  — original FastThreads: virtual processors are kernel threads
//    scheduled obliviously by the (native) kernel.  Each is bound for the
//    whole run, an idle one spins in the user-level scheduler, and a thread
//    blocked in the kernel takes its processor with it.  No operation pays
//    an accounting overhead.
//
//  * SaBackend  — modified FastThreads: virtual processors are scheduler
//    activations.  Slots bind and unbind as Table 2 upcalls grant, stop and
//    preempt them; parallelism changes issue the Table 3 downcalls (plus the
//    priority preempt-processor request), an idle processor is returned
//    after hysteresis (Section 4.2) or lent, and fork, wait and resume pay
//    the busy-count and condition-code costs of Section 5.1.

#ifndef SA_ULT_BACKEND_H_
#define SA_ULT_BACKEND_H_

#include "src/sim/callback.h"
#include "src/sim/time.h"
#include "src/ult/tcb.h"

namespace sa::ult {

class FastThreads;

class VcpuBackend {
 public:
  virtual ~VcpuBackend() = default;

  // Called once the engine is constructed.
  virtual void Attach(FastThreads* ft) = 0;

  // Boot: make the initial virtual processors / processor requests happen.
  virtual void Start() = 0;

  // The dispatcher found no work on `v`.  A backend that gives an idle
  // processor back after a while spins with that while as the open span's
  // deadline (hw::Processor::BeginOpenSpan): the wake that ends the spin
  // withdraws it.
  virtual void OnIdle(Vcpu* v) = 0;

  // Parallelism bookkeeping hook, called after a change in the number of
  // runnable threads with the vcpu whose context we can charge costs to.
  // The SA backend issues Table-3 downcalls from here; `resume` continues
  // the interrupted user path.
  virtual void NotifyParallelism(Vcpu* /*v*/, sim::Callback resume) { resume(); }

  // A thread was loaded into / unloaded from a virtual processor (the SA
  // backend records which user-level thread runs in which activation).
  virtual void OnThreadLoaded(Vcpu* v, Tcb* t) {}
  virtual void OnThreadUnloaded(Vcpu* v) {}

  // Per-operation overheads (Section 5.1 / Table 4 calibration).
  virtual sim::Duration ForkOverhead() const { return 0; }  // busy-count accounting
  virtual sim::Duration WaitOverhead() const { return 0; }  // busy-count accounting
  virtual sim::Duration ResumeCheckOverhead() const { return 0; }  // condition codes
};

}  // namespace sa::ult

#endif  // SA_ULT_BACKEND_H_
