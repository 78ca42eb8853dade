// Crash-tolerant address-space teardown (DESIGN.md §12).
//
// The paper assumes user-level schedulers are trusted but not correct: "the
// kernel protects itself" from a runtime that crashes, wedges, or exits
// without releasing what it was given.  This module is that protection: a
// teardown state machine that quarantines a failed space, funnels its
// processors back to the allocator through the normal revocation protocol
// (under the native kernel, stops each processor running one of its threads
// with a timeslice), reclaims every activation and kernel thread, discards
// undelivered upcalls and in-flight I/O, and asserts machine-wide
// conservation when done.
//
// Three entry points mirror the three failure modes injected by
// src/inject/fault_plan.h:
//
//   InjectCrash  — the runtime faulted (kernel-visible trap); teardown starts
//                  immediately.
//   InjectExit   — orderly exit that leaked resources; same path, different
//                  cause for the post-mortem.
//   InjectHang   — the runtime silently stops acknowledging upcalls.  The
//                  kernel cannot observe this directly; a per-space watchdog
//                  pings the space on an exponentially backed-off ack
//                  deadline and declares it hung after kMaxPings misses.
//                  A space whose last processor was revoked is exempt while
//                  it has none (delayed notification is legal, Section 4.2).
//
// Lifecycle: kAlive → kTearingDown (BeginTeardown: threads reclaimed, upcalls
// discarded, revocations issued) → kDead (last processor detached and no
// processor runs a thread of the space; the allocator forgets the space and
// survivors rebalance to their fair share).

#ifndef SA_KERN_SPACE_REAPER_H_
#define SA_KERN_SPACE_REAPER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kern/address_space.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace sa::kern {

class Kernel;

struct ReaperStats {
  int64_t spaces_reaped = 0;
  int64_t crashes = 0;
  int64_t hangs = 0;
  int64_t exits = 0;
  int64_t threads_reclaimed = 0;
  int64_t upcalls_discarded = 0;
  int64_t io_discarded = 0;
  int64_t procs_returned = 0;
  int64_t hang_pings = 0;
  // Borrowers force-revoked by the loan reclaim-deadline watchdog
  // (TeardownCause::kHoarded).
  int64_t hoards = 0;
};

class SpaceReaper {
 public:
  // Ack-deadline watchdog: first deadline, doubled after each missed ping.
  static constexpr sim::Duration kAckDeadlineBase = sim::Msec(10);
  // Missed pings before a space is declared hung.  Worst-case detection
  // latency is kAckDeadlineBase * (2^kMaxPings - 1) = 70ms after the last
  // acknowledged upcall.
  static constexpr int kMaxPings = 3;

  explicit SpaceReaper(Kernel* kernel) : kernel_(kernel) {}
  SpaceReaper(const SpaceReaper&) = delete;
  SpaceReaper& operator=(const SpaceReaper&) = delete;

  // Arms the watchdog machinery: every space, those created from now on
  // too, gets an ack-deadline timer.  Off by default so runs without
  // lifecycle faults add no watchdog timers and fire no watchdog events
  // (zero-perturbation guarantee).
  void EnableHangDetection();
  // Adds `as`'s ack-deadline timer when hang detection is on (the kernel
  // calls it for every space it creates).
  void AddWatchdog(AddressSpace* as);

  // --- fault entry points (driven by the harness fault plan) ---
  void InjectCrash(AddressSpace* as);
  void InjectHang(AddressSpace* as);
  void InjectExit(AddressSpace* as);

  // --- watchdog hooks ---
  // An upcall was dispatched to `as`; start (or continue) expecting an ack.
  void WatchUpcall(AddressSpace* as);
  // The runtime acknowledged delivered upcalls (it ran its handler).
  void AckUpcalls(AddressSpace* as);

  // --- teardown progress hooks (called from the kernel) ---
  // A processor of `as` was detached (counted while `as` is kTearingDown).
  void NoteProcessorDetached(AddressSpace* as);
  // Finishes a teardown of `as` once nothing of it is left on a processor:
  // none assigned, and none running one of its threads.  Also called when
  // the kernel takes a dead context of `as` off a processor.
  void FinishIfDrained(AddressSpace* as);
  // An I/O completion fired for a thread of a reaped space and was discarded.
  void NoteIoDiscarded(const KThread* kt);

  // Quarantines `as` and drives it to kDead.  Idempotent.
  void BeginTeardown(AddressSpace* as, TeardownCause cause);

  // Returns a description of every kernel reference still held on `as`
  // (empty string = conservation holds).  Checked internally when teardown
  // completes; exposed for tests.
  std::string ConservationReport(const AddressSpace* as) const;

  const ReaperStats& stats() const { return stats_; }
  const std::vector<TeardownRecord>& teardowns() const { return teardowns_; }

 private:
  void ArmDeadline(AddressSpace* as);
  void OnDeadline(AddressSpace* as);
  void FinishTeardown(AddressSpace* as);
  bool RunsThreadOf(const hw::Processor* proc, const AddressSpace* as) const;

  Kernel* kernel_;
  bool hang_detection_ = false;
  ReaperStats stats_;
  std::vector<TeardownRecord> teardowns_;
};

}  // namespace sa::kern

#endif  // SA_KERN_SPACE_REAPER_H_
