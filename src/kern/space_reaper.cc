#include "src/kern/space_reaper.h"

#include <algorithm>
#include <utility>

#include "src/kern/kernel.h"
#include "src/kern/proc_alloc.h"

namespace sa::kern {

const char* AsLifecycleName(AsLifecycle s) {
  switch (s) {
    case AsLifecycle::kAlive: return "alive";
    case AsLifecycle::kTearingDown: return "tearing-down";
    case AsLifecycle::kDead: return "dead";
  }
  return "?";
}

const char* TeardownCauseName(TeardownCause c) {
  switch (c) {
    case TeardownCause::kNone: return "none";
    case TeardownCause::kCrashed: return "crashed";
    case TeardownCause::kHung: return "hung";
    case TeardownCause::kExited: return "exited";
    case TeardownCause::kHoarded: return "hoarded";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Fault entry points.
// ---------------------------------------------------------------------------

void SpaceReaper::InjectCrash(AddressSpace* as) {
  if (as->reaped()) {
    return;
  }
  kernel_->engine().TraceEmit(trace::cat::kLifecycle, trace::Kind::kLifeCrash,
                              -1, as->id());
  BeginTeardown(as, TeardownCause::kCrashed);
}

void SpaceReaper::InjectExit(AddressSpace* as) {
  if (as->reaped()) {
    return;
  }
  kernel_->engine().TraceEmit(trace::cat::kLifecycle, trace::Kind::kLifeExit,
                              -1, as->id());
  BeginTeardown(as, TeardownCause::kExited);
}

void SpaceReaper::InjectHang(AddressSpace* as) {
  if (as->reaped()) {
    return;
  }
  // A hang is invisible to the kernel at injection time — the runtime simply
  // stops acknowledging upcalls — so no trace record is emitted here; the
  // kernel's view starts with the first missed ping.  Arm the watchdog as if
  // an upcall were in flight (the hang swallows whatever delivery is next).
  as->set_hung(true);
  if (hang_detection_) {
    AddressSpace::ReapState& w = as->reap_state();
    if (!kernel_->engine().timer_armed(w.deadline)) {
      w.pings = 0;
      ArmDeadline(as);
    }
  }
}

// ---------------------------------------------------------------------------
// Hang watchdog.
// ---------------------------------------------------------------------------

void SpaceReaper::EnableHangDetection() {
  if (hang_detection_) {
    return;
  }
  hang_detection_ = true;
  for (const auto& as : kernel_->spaces()) {
    AddWatchdog(as.get());
  }
}

void SpaceReaper::AddWatchdog(AddressSpace* as) {
  if (hang_detection_) {
    as->reap_state().deadline = kernel_->engine().AddTimer([this, as] { OnDeadline(as); });
  }
}

void SpaceReaper::WatchUpcall(AddressSpace* as) {
  if (!hang_detection_ || as->reaped()) {
    return;
  }
  AddressSpace::ReapState& w = as->reap_state();
  if (kernel_->engine().timer_armed(w.deadline)) {
    return;  // a deadline is already armed for an earlier delivery
  }
  w.pings = 0;
  ArmDeadline(as);
}

void SpaceReaper::AckUpcalls(AddressSpace* as) {
  if (!hang_detection_) {
    return;
  }
  as->reap_state().pings = 0;
  kernel_->engine().DisarmTimer(as->reap_state().deadline);
}

void SpaceReaper::ArmDeadline(AddressSpace* as) {
  AddressSpace::ReapState& w = as->reap_state();
  kernel_->engine().ArmTimer(w.deadline, kernel_->engine().now() + (kAckDeadlineBase << w.pings));
}

void SpaceReaper::OnDeadline(AddressSpace* as) {
  if (as->reaped()) {
    return;
  }
  AddressSpace::ReapState& w = as->reap_state();
  if (as->assigned().empty()) {
    // Delayed notification (Section 4.2): a space holding no processors has
    // nowhere to run its upcall handler, so a missed deadline proves
    // nothing.  Keep watching without counting the miss.
    ArmDeadline(as);
    return;
  }
  ++w.pings;
  ++stats_.hang_pings;
  const bool declare = w.pings >= kMaxPings;
  const sim::Duration next = declare ? 0 : (kAckDeadlineBase << w.pings);
  kernel_->engine().TraceEmit(trace::cat::kLifecycle, trace::Kind::kLifeHangPing,
                              -1, as->id(), static_cast<uint64_t>(w.pings),
                              static_cast<uint64_t>(next));
  if (declare) {
    kernel_->engine().TraceEmit(trace::cat::kLifecycle, trace::Kind::kLifeHang,
                                -1, as->id(), static_cast<uint64_t>(w.pings));
    BeginTeardown(as, TeardownCause::kHung);
    return;
  }
  ArmDeadline(as);
}

// ---------------------------------------------------------------------------
// Teardown state machine.
// ---------------------------------------------------------------------------

void SpaceReaper::BeginTeardown(AddressSpace* as, TeardownCause cause) {
  if (as->reaped()) {
    return;  // idempotent: a crash racing the watchdog tears down once
  }
  as->set_lifecycle(AsLifecycle::kTearingDown);
  as->set_teardown_cause(cause);
  switch (cause) {
    case TeardownCause::kCrashed: ++stats_.crashes; break;
    case TeardownCause::kHung: ++stats_.hangs; break;
    case TeardownCause::kExited: ++stats_.exits; break;
    case TeardownCause::kHoarded: ++stats_.hoards; break;
    case TeardownCause::kNone: break;
  }
  kernel_->engine().TraceEmit(trace::cat::kLifecycle,
                              trace::Kind::kLifeQuarantine, -1, as->id(),
                              static_cast<uint64_t>(cause));

  TeardownRecord& rec = as->reap_state().record;
  rec.as_id = as->id();
  rec.cause = cause;
  rec.begin = kernel_->engine().now();

  // 1. Stop the upcall machinery: no new events queue, undelivered ones are
  //    discarded and accounted.
  if (as->sa() != nullptr) {
    rec.upcalls_discarded = as->sa()->OnSpaceReaped();
  }

  // 2. Release user-level state once per distinct host (vcpu bindings, run
  //    queues).  Nothing of this space runs again after this point.
  std::vector<KThreadHost*> hosts;
  for (const auto& kt : as->threads()) {
    KThreadHost* h = kt->host();
    if (h != nullptr && std::find(hosts.begin(), hosts.end(), h) == hosts.end()) {
      hosts.push_back(h);
    }
  }
  for (KThreadHost* h : hosts) {
    h->OnSpaceReaped();
  }

  // 3. Reclaim every kernel thread and activation.  Ready threads leave
  //    their ready queue now; running ones are stopped by the revocation
  //    interrupts below; blocked ones never wake (their I/O completions are
  //    discarded at fire time — see Kernel::FinishIo).
  for (const auto& owned : as->threads()) {
    KThread* kt = owned.get();
    if (kt->state() == KThreadState::kDead) {
      continue;  // recycled-off activation discards are already dead
    }
    if (kt->state() == KThreadState::kReady && kt->queue_node.linked()) {
      kernel_->ReadyQueueOf(as).Remove(kt);
    }
    kt->set_state(KThreadState::kDead);
    --kernel_->live_threads_;
    ++rec.threads_reclaimed;
  }
  as->runnable_threads = 0;

  kernel_->engine().TraceEmit(trace::cat::kLifecycle, trace::Kind::kLifeReclaim,
                              -1, as->id(),
                              static_cast<uint64_t>(rec.threads_reclaimed),
                              static_cast<uint64_t>(rec.upcalls_discarded));
  stats_.threads_reclaimed += rec.threads_reclaimed;
  stats_.upcalls_discarded += rec.upcalls_discarded;

  // 4. Return the processors.  Demand drops to zero first so a reentrant
  //    rebalance cannot grant anything back; each held processor is either
  //    reclaimed on the spot (idle in kernel) or funnelled through the
  //    normal revocation interrupt, whose reaped-space path detaches it
  //    without notifying the dead runtime.  The native kernel holds no
  //    processor for a space: it stops each one running a dead thread with
  //    a timeslice instead, and the next ready thread runs there.
  ProcessorAllocator* alloc = kernel_->allocator();
  if (alloc == nullptr) {
    for (int i = 0; i < kernel_->machine()->num_processors(); ++i) {
      hw::Processor* proc = kernel_->machine()->processor(i);
      if (RunsThreadOf(proc, as)) {
        // An action already pending strips the dead thread the same way.  A
        // latched one fires where the span ends, once the kernel parked the
        // dead context there (Kernel::StopIfReaped).
        kernel_->RequestPreemption(proc, {PendingAction::Kind::kTimeslice});
      }
    }
  } else {
    // Settle every loan touching the space first: a dead lender's loans
    // become the borrowers' outright (adoption); a dead borrower's loans
    // close now so the revocation sweep below routes those processors back
    // to their lenders instead of the free pool.
    alloc->ResolveLoansForTeardown(as);
    alloc->SetDesired(as, 0);
    std::vector<hw::Processor*> held(as->assigned());
    for (hw::Processor* proc : held) {
      if (!as->IsAssigned(proc)) {
        continue;  // already reclaimed by a reentrant rebalance
      }
      if (kernel_->IdleInKernel(proc)) {
        // The detach fires NoteProcessorDetached; a dead space is not told.
        kernel_->DetachAndNotify(proc, /*stopped=*/nullptr);
        alloc->OnRevokeComplete(as, proc);
        continue;
      }
      PendingAction action;
      action.kind = PendingAction::Kind::kRevoke;
      // A false return means another action is already pending on `proc`;
      // that action reaches a dispatch point and detaches it too.
      kernel_->RequestPreemption(proc, action);
    }
  }

  FinishIfDrained(as);  // held no processors (or all were idle in kernel)
}

void SpaceReaper::NoteProcessorDetached(AddressSpace* as) {
  if (as->lifecycle() != AsLifecycle::kTearingDown) {
    return;
  }
  ++as->reap_state().record.procs_returned;
  ++stats_.procs_returned;
  FinishIfDrained(as);
}

void SpaceReaper::FinishIfDrained(AddressSpace* as) {
  if (as->lifecycle() != AsLifecycle::kTearingDown || !as->assigned().empty()) {
    return;
  }
  for (int i = 0; i < kernel_->machine()->num_processors(); ++i) {
    if (RunsThreadOf(kernel_->machine()->processor(i), as)) {
      return;  // stopped by its interrupt, or parked where its span ends
    }
  }
  FinishTeardown(as);
}

bool SpaceReaper::RunsThreadOf(const hw::Processor* proc, const AddressSpace* as) const {
  const KThread* running = kernel_->running_on(proc);
  return running != nullptr && running->address_space() == as;
}

void SpaceReaper::NoteIoDiscarded(const KThread* kt) {
  ++stats_.io_discarded;
  kernel_->engine().TraceEmit(trace::cat::kLifecycle,
                              trace::Kind::kLifeIoDiscard, -1,
                              kt->address_space()->id(),
                              static_cast<uint64_t>(kt->id()));
}

void SpaceReaper::FinishTeardown(AddressSpace* as) {
  SA_CHECK(as->lifecycle() == AsLifecycle::kTearingDown);
  AddressSpace::ReapState& w = as->reap_state();
  TeardownRecord rec = std::exchange(w.record, {});
  w.pings = 0;
  as->set_lifecycle(AsLifecycle::kDead);
  rec.end = kernel_->engine().now();

  // Forget the space allocator-side; survivors rebalance to their fair share
  // as the detached processors land back in the free pool.
  ProcessorAllocator* alloc = kernel_->allocator();
  if (alloc != nullptr) {
    alloc->ReleaseSpace(as);
  }

  const std::string leak = ConservationReport(as);
  SA_CHECK_MSG(leak.empty(), leak.c_str());

  ++stats_.spaces_reaped;
  kernel_->engine().TraceEmit(trace::cat::kLifecycle,
                              trace::Kind::kLifeTeardownDone, -1, as->id(),
                              static_cast<uint64_t>(rec.procs_returned),
                              static_cast<uint64_t>(rec.latency()));
  teardowns_.push_back(rec);
}

std::string SpaceReaper::ConservationReport(const AddressSpace* as) const {
  std::string leak;
  hw::Machine* machine = kernel_->machine_;
  for (int i = 0; i < machine->num_processors(); ++i) {
    const hw::Processor* proc = machine->processor(i);
    if (RunsThreadOf(proc, as)) {
      leak += "processor " + std::to_string(i) + " still runs a dead thread; ";
    }
    if (kernel_->OwnerOf(proc) == as) {
      leak += "processor " + std::to_string(i) + " still owned by the space; ";
    }
  }
  if (!as->assigned().empty()) {
    leak += "space still lists " + std::to_string(as->assigned().size()) +
            " assigned processors; ";
  }
  for (const auto& kt : as->threads()) {
    if (kt->state() != KThreadState::kDead) {
      leak += "thread " + std::to_string(kt->id()) + " still " +
              KThreadStateName(kt->state()) + "; ";
    }
  }
  ProcessorAllocator* alloc = kernel_->allocator_.get();
  if (alloc != nullptr && alloc->IsRegistered(as)) {
    leak += "allocator still tracks the space; ";
  }
  if (as->loan_state().loaned_out != 0) {
    leak += "space still has " + std::to_string(as->loan_state().loaned_out) +
            " processors out on loan; ";
  }
  if (as->loan_state().borrowed_in != 0) {
    leak += "space still holds " + std::to_string(as->loan_state().borrowed_in) +
            " borrowed processors; ";
  }
  return leak;
}

}  // namespace sa::kern
