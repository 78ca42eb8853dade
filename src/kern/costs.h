// Virtual-time cost model, calibrated to the paper's published numbers.
//
// The paper anchors two primitives on the CVAX Firefly: a procedure call is
// ~7 us and a kernel trap ~19 us (Section 2.1).  Every other entry is a
// decomposition chosen so the measured end-to-end latencies of the paper's
// microbenchmarks come out of the simulated machinery at the published
// values:
//
//   Table 1/4 (usec):               Null Fork    Signal-Wait
//     FastThreads on Topaz threads     34            37
//     FastThreads on sched. acts.      37            42
//     Topaz kernel threads            948           441
//     Ultrix processes              11300          1840
//   Section 4.3 ablation (flag-marked critical sections): 49 / 48.
//   Section 5.2: signal-wait through the kernel on the (untuned) scheduler
//   activation prototype: 2.4 ms, a factor ~5 worse than Topaz threads.
//
// The benchmarks measure these values end to end through the simulator; the
// components below are the calibration, not the results.

#ifndef SA_KERN_COSTS_H_
#define SA_KERN_COSTS_H_

#include "src/sim/time.h"

namespace sa::kern {

struct CostModel {
  // ---- hardware anchors (paper, Section 2.1) ----
  sim::Duration procedure_call = sim::Usec(7);
  sim::Duration kernel_trap = sim::Usec(19);

  // ---- Topaz kernel threads ----
  // Null Fork = (trap + create) + dispatch + body(null proc) + (trap + exit)
  //           = (19 + 430) + 180 + 7 + (19 + 293) = 948 us.
  sim::Duration kt_create = sim::Usec(430);    // allocate + initialize a kernel thread
  sim::Duration kt_dispatch = sim::Usec(180);  // kernel scheduling decision + context load
  sim::Duration kt_exit = sim::Usec(293);      // tear down a kernel thread
  // Signal-Wait = signal(trap + wakeup) + wait(trap + block) + dispatch
  //             = (19 + 73) + (19 + 150) + 180 = 441 us.
  sim::Duration kt_wakeup = sim::Usec(73);  // make a blocked kernel thread ready
  sim::Duration kt_block = sim::Usec(150);  // save context, move to wait queue
  // Blocking kernel lock: uncontended acquire/release happen at user level
  // (test-and-set); contention pays trap + block / trap + wakeup.
  sim::Duration kt_lock_tas = sim::Nsec(2000);  // user-level test-and-set path

  // Round-robin quantum of the native (oblivious) Topaz scheduler
  // (VMS-heritage systems of the era used quanta of this order; the spin
  // waste the paper attributes to time-slicing scales with it).
  sim::Duration kt_quantum = sim::Msec(200);

  // ---- Ultrix-style processes (Table 1 baseline) ----
  // Null Fork = (trap + create) + dispatch + body + (trap + exit)
  //           = (19 + 7400) + 1000 + 7 + (19 + 2855) = 11300 us.
  sim::Duration proc_create = sim::Usec(7400);
  sim::Duration proc_dispatch = sim::Usec(1000);
  sim::Duration proc_exit = sim::Usec(2855);
  // Signal-Wait = (trap + wakeup) + (trap + block) + dispatch
  //             = (19 + 302) + (19 + 500) + 1000 = 1840 us.
  sim::Duration proc_wakeup = sim::Usec(302);
  sim::Duration proc_block = sim::Usec(500);

  // ---- FastThreads (user level; Section 2.1, Table 1) ----
  // Null Fork = fork_prep + dispatch + body(null proc) + exit = 12+8+7+7 = 34.
  sim::Duration ult_fork_prep = sim::Usec(12);  // TCB from free list, stack, enqueue
  sim::Duration ult_dispatch = sim::Usec(8);    // pop ready list + user context switch
  sim::Duration ult_exit = sim::Usec(7);        // return TCB to free list
  // Signal-Wait = signal + wait + dispatch = 10 + 19 + 8 = 37.
  sim::Duration ult_signal = sim::Usec(10);  // move waiter to ready list
  sim::Duration ult_wait = sim::Usec(19);    // enqueue on condition, prep switch
  // User-level spinlock acquire/release when uncontended.
  sim::Duration ult_lock_acquire = sim::Nsec(2000);
  sim::Duration ult_lock_release = sim::Nsec(1000);
  // Scan of other processors' ready lists when the local one is empty.
  sim::Duration ult_steal_scan = sim::Usec(4);
  // Heartbeat-promoted lazy forking (DESIGN.md §17).  A lazy fork pushes a
  // sequential-call-sized frame on the per-processor promotion stack instead
  // of materializing a TCB; a join that finds the frame unpromoted runs the
  // child inline for a procedure-call-scale transfer.  The full
  // ult_fork_prep (plus backend fork overhead) is charged only if and when a
  // frame is promoted into a real thread.
  // Two stores and a sequence stamp — a small fraction of procedure_call
  // (7 us in this model), which is the entire economic point.
  sim::Duration ult_lazy_push = sim::Usec(1);
  sim::Duration ult_lazy_inline = sim::Usec(1);  // unpromote + inline transfer

  // ---- FastThreads on scheduler activations (Section 5.1, Table 4) ----
  // +3 us on fork: increment/decrement the count of busy threads and decide
  // whether the kernel must be notified (paper attributes the Null Fork
  // degradation 34 -> 37 to exactly this).
  sim::Duration sa_busy_accounting = sim::Usec(3);
  // +2 us when resuming a thread that may have been preempted (condition
  // code restoration check); paper: Signal-Wait 37 -> 42 = busy accounting
  // plus this check.
  sim::Duration sa_resume_check = sim::Usec(2);
  // Flag-based critical sections (the alternative Section 4.3 rejects): set,
  // clear and test an in-critical-section flag around every critical
  // section.  Null Fork crosses 4 critical sections, Signal-Wait 2, giving
  // the published 49/48 us when enabled.
  sim::Duration cs_flag_overhead = sim::Usec(3);

  // ---- scheduler activation upcalls (Section 5.2) ----
  // The prototype's upcall path is untuned Modula-2+; a blocked/unblocked
  // round trip through the kernel measures 2.4 ms for signal-wait (factor ~5
  // worse than Topaz's 441 us).  One upcall = create/initialize activation +
  // kernel boundary crossing + user-level event processing.
  //   Signal-Wait through kernel = trap + block + upcall(blocked)
  //                              + wakeup + upcall(unblocked) + user dispatch.
  // Note: this implementation combines the blocked and unblocked
  // notifications of a kernel-forced signal-wait into a single upcall (the
  // paper's own combining rule), so one delivery carries what the authors'
  // prototype paid two deliveries for; the per-upcall cost is calibrated so
  // the end-to-end benchmark reproduces the published 2.4 ms.
  sim::Duration sa_upcall = sim::Usec(2050);           // untuned upcall delivery
  sim::Duration sa_upcall_user_process = sim::Usec(50);  // ULT handles the event list
  // "if tuned, commensurate with Topaz kernel threads": the tuned projection
  // divides upcall delivery by this factor (Schroeder & Burrows saw >4x from
  // recoding Modula-2+ in assembler; the prototype also carries extra state
  // from being built as a quick modification of the Topaz thread layer).
  double sa_tuned_factor = 20.0;
  // Recycling discarded activations (Section 4.3): cost to reuse a cached
  // activation vs. allocating fresh kernel data structures.
  sim::Duration sa_activation_reuse = sim::Usec(25);
  sim::Duration sa_activation_alloc = sim::Usec(180);
  // Returning discards to the kernel is batched; one downcall flushes many.
  sim::Duration sa_discard_downcall = sim::Usec(40);
  int sa_discard_batch = 8;

  // ---- processor (re)allocation ----
  sim::Duration preempt_interrupt = sim::Usec(25);  // inter-processor interrupt + save
  // User-level idle hysteresis before notifying the kernel (Section 4.2).
  sim::Duration idle_hysteresis = sim::Msec(5);
  // Downcalls from Table 3 are plain kernel traps plus bookkeeping.
  sim::Duration downcall = sim::Usec(24);  // trap 19 + 5 bookkeeping
  // Cross-space lending (DESIGN.md §16): the reclaim fast path skips the
  // grant-loop renegotiation, so recalling a loan costs only the interrupt
  // plus this short direct-return bookkeeping.
  sim::Duration loan_reclaim = sim::Usec(15);
  // How long an SA vcpu idle-spins before offering its processor as a
  // revocable loan (well under idle_hysteresis: a loan is cheap to reclaim,
  // returning the processor to the kernel is not).
  sim::Duration lend_hint_hysteresis = sim::Usec(500);

  // ---- devices ----
  // The paper's modified N-body app blocks in the kernel for 50 ms on a
  // buffer-cache miss (standing in for a disk access).
  sim::Duration disk_latency = sim::Msec(50);

  // Derived convenience values.
  sim::Duration TunedUpcall() const {
    return static_cast<sim::Duration>(static_cast<double>(sa_upcall) / sa_tuned_factor);
  }
};

}  // namespace sa::kern

#endif  // SA_KERN_COSTS_H_
