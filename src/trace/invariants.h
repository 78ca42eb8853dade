// Trace-driven invariant checker (DESIGN.md §10).
//
// Replays a TraceBuffer snapshot and asserts four properties of the
// scheduler-activation protocol:
//
//  1. The vessel invariant (paper §3): at every instant, the number of
//     running activations of an address space equals the number of
//     processors assigned to it.  SaSpace emits a cat::kUpcall kVessel
//     record (arg0 = running, arg1 = assigned) at the end of every protocol
//     transition; the checker asserts equality on the *last* snapshot per
//     (space, timestamp), since a multi-step transition within one instant
//     is atomic to the rest of the simulation.  The one legitimate
//     exception is the §3.1 upcall page-fault window (delivery blocked on a
//     fault while the processor sits in the kernel), which the space brackets
//     with kUpcallFaultBegin/kUpcallFaultEnd records.
//
//  2. No loan outlives its reclaim deadline (DESIGN.md §16): every
//     cat::kLending kLoanGrant opens an interval on its processor that must
//     be closed by exactly one kLoanReturn or kLoanAdopt with a matching
//     epoch, and once a kLoanReclaimIssue fires the closure must land within
//     `loan_reclaim_bound`.  The bound covers the full watchdog ladder
//     (deadline, doubled per ping, through force-revocation and the
//     synchronous teardown settle) so a clean force-revoke passes; only a
//     borrower that holds a processor past the ladder — a real containment
//     failure — trips it.  Loans with no reclaim outstanding may stay open
//     arbitrarily long, including across the end of the trace.
//
//  3. No idle processor while ready work exists: a vcpu that stays
//     idle-spinning (kUltIdle without a matching kUltIdleWake/kUltDispatch/
//     kUltUnbind) while its space's runnable count (kUltRunnable) stays
//     positive for longer than `idle_ready_threshold` is a lost wakeup.  The
//     threshold absorbs legitimate transient windows, the longest of which
//     is a revocation in flight: from the preempt interrupt until the
//     preempted upcall delivers (the untuned ~2.05 ms sa_upcall cost), an
//     idle vcpu sits with its span closed — unwakeable, but invisible to
//     user level, which only learns of the revocation at upcall delivery.
//     A real lost wakeup strands a thread until the end of the trace, so it
//     clears any constant threshold.  An unbind closes the interval without
//     extending it: a vcpu whose processor was revoked cannot run work, so
//     later queueing is allocator latency, not a lost wakeup.
//
//  4. Processor ownership (paper §4.1): cat::kAlloc kProcGrant/kProcRevoke
//     records move a processor between the pool and exactly one space.  A
//     processor is never granted while a space holds it, only its holder
//     gives it up, and each record's arg0 equals the space's holding count
//     replayed from the records before it.
//
//  5. Nothing of a dead space runs (DESIGN.md §12).  After a space's
//     kLifeQuarantine, no record of its user level (kUlt*, kHb*, downcalls,
//     an accepted yield hint) and none a kernel service makes for one of its
//     threads (syscall, ready/block/wake, dispatch, page fault, upcall queue
//     and delivery) may follow; after its kLifeTeardownDone, no record but a
//     lifecycle one.

#ifndef SA_TRACE_INVARIANTS_H_
#define SA_TRACE_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace sa::trace {

struct CheckOptions {
  // Max duration a vcpu may idle-spin while ready work exists (ns).  The
  // default covers the untuned sa_upcall delivery (2.05 ms — the revocation
  // in-flight window, see above) with slack for the preceding interrupt and
  // dispatch charges.
  int64_t idle_ready_threshold = 3'000'000;
  // Max duration a reclaim-issued loan may stay open (ns).  The default
  // covers the allocator's watchdog ladder — kReclaimDeadline (5 ms)
  // doubled per ping through kMaxReclaimPings (2), i.e. 5 + 10 = 15 ms to
  // force-revocation — plus slack for the teardown settle.
  int64_t loan_reclaim_bound = 20'000'000;
};

struct CheckResult {
  std::vector<std::string> violations;
  uint64_t vessel_checks = 0;  // snapshots asserted
  uint64_t loan_checks = 0;    // loan intervals matched grant-to-close
  uint64_t alloc_checks = 0;   // grant and revoke records replayed
  bool ok() const { return violations.empty(); }
  // All violations joined, for test failure messages.
  std::string Summary() const;
};

CheckResult CheckInvariants(const std::vector<Record>& records,
                            const CheckOptions& options = {});

}  // namespace sa::trace

#endif  // SA_TRACE_INVARIANTS_H_
