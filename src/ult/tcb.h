// User-level thread control blocks, virtual processors, and user-level
// synchronization objects for FastThreads.

#ifndef SA_ULT_TCB_H_
#define SA_ULT_TCB_H_

#include <vector>

#include "src/common/intrusive_list.h"
#include "src/hw/processor.h"
#include "src/kern/kthread.h"
#include "src/rt/runtime.h"
#include "src/sim/callback.h"
#include "src/sim/engine.h"

namespace sa::ult {

struct Vcpu;
struct UltLock;

struct Tcb {
  enum class State {
    kFree,           // on a free list
    kReady,          // on a ready list
    kRunning,        // loaded into a virtual processor
    kSpinning,       // busy-waiting on a spinlock (occupies its vcpu)
    kBlockedSync,    // blocked on a user-level lock/condition/join
    kBlockedKernel,  // blocked in the kernel (I/O, kernel event)
    kStopped,        // stopped by the kernel; state in flight in an upcall
    kDone,
  };

  // The thread's id, from a per-vcpu free list (Vcpu::free_tcbs); the
  // record itself comes from the space's spare records, so a recycled
  // record serves whatever id its next thread draws.
  int id = -1;
  State state = State::kFree;
  int priority = 0;  // larger runs first
  rt::WorkThread* work = nullptr;
  Vcpu* vcpu = nullptr;  // where running / spinning
  // Mid-span execution state from a preemption, or the state shipped back by
  // an unblocked/preempted upcall.
  hw::SavedSpan saved;
  // Application spinlock critical-section nesting (Section 3.3).
  int cs_depth = 0;
  // Continued temporarily only until it exits its critical section.
  bool cs_recovery = false;
  // Spinlock this thread is trying to acquire.
  UltLock* waiting_lock = nullptr;
  // Whether it currently burns a processor on that spinlock.
  bool actively_spinning = false;
  // Set when the thread is resumed after a block/preemption: the dispatcher
  // must restore condition codes (costs sa_resume_check on the SA backend).
  bool resume_check = false;
  // Continuation to run when a critical-section recovery completes (the
  // original upcall processing; Section 3.3).  Receives the virtual
  // processor on which processing resumes (the recovery may have migrated).
  sim::InlineFunction<void(Vcpu*)> recovery_after;

  // Heartbeat promotion (DESIGN.md §17).  A promoted frame's deferred fork
  // cost (TCB allocation + enqueue, charged to whoever first dispatches the
  // thread); zero for eagerly forked threads.
  sim::Duration lazy_promote_charge = 0;
  // Bodies this TCB is running inline (pcall): when a Join reaches an
  // unpromoted frame, the child body runs on the joiner's own TCB and the
  // suspended caller bodies stack here, innermost caller last.
  std::vector<rt::WorkThread*> work_stack;

  common::ListNode qnode;  // ready list / waiter list membership
};

// An unpromoted lazy fork (DESIGN.md §17): the child exists only as its
// WorkThread plus this frame on the forking processor's promotion stack.
// `seq` is a space-global stamp; promotion always takes the globally oldest
// frame (lowest seq), the pcall analogue of stealing the shallowest call.
struct LazyFrame {
  rt::WorkThread* work = nullptr;
  uint64_t seq = 0;
};

struct UltLock {
  rt::LockKind kind = rt::LockKind::kSpin;
  Tcb* owner = nullptr;
  // Mutex waiters (blocked at user level).
  common::IntrusiveList<Tcb, &Tcb::qnode> waiters;
  // Spinlock waiters (ordered; some may have lost their processor).
  std::vector<Tcb*> spinners;
};

// Condition with memory (counting): Signal with no waiter is remembered.
struct UltSem {
  int pending = 0;
  common::IntrusiveList<Tcb, &Tcb::qnode> waiters;
};

// A virtual processor slot.  On the kernel-thread backend each slot is
// permanently bound to one kernel thread; on the scheduler-activation
// backend a slot is bound to a physical processor while the kernel has the
// space running there, and its backing activation changes across upcalls.
struct Vcpu {
  int index = 0;
  bool bound = false;            // currently has a backing context + processor
  int processor_id = -1;         // SA backend: the processor a bound slot is on
  kern::KThread* kt = nullptr;   // backing kernel thread or current activation
  Tcb* current = nullptr;
  common::IntrusiveList<Tcb, &Tcb::qnode> ready;  // LIFO (Section 4.2)
  std::vector<int> free_tcbs;  // unlocked per-vcpu free list: ids of TCBs
                               // that exited here
  bool idle_spinning = false;
  // Inside an idle transition: the backend cleared idle_spinning to run the
  // idle-notification downcall, and will call EndIdleTransition when it
  // returns.  EnqueueReady parks work on this vcpu's own list meanwhile so
  // the end-of-transition re-check cannot miss it.
  bool idle_transition = false;
  bool idle_notified = false;  // told the kernel this processor is idle
  bool lend_hinted = false;    // offered the processor to the loan pool this
                               // idle episode (one yield hint per episode)
  // Promotion stack (DESIGN.md §17): unpromoted lazy-fork frames pushed by
  // threads running here.  Newest at the back; the oldest (front) is what
  // the heartbeat and steal-side promotion take.
  std::vector<LazyFrame> lazy_frames;
  sim::EventId hysteresis = sim::kNoEvent;
  // A finished critical-section recovery's continuation (Tcb::recovery_after),
  // held while this vcpu charges the switch back to it.
  sim::InlineFunction<void(Vcpu*)> recovery_after;

  hw::Processor* proc() const {
    SA_CHECK(kt != nullptr);
    return kt->processor();
  }
};

}  // namespace sa::ult

#endif  // SA_ULT_TCB_H_
