#include "src/core/sa_space.h"

#include <algorithm>
#include <utility>

#include "src/inject/fault_injector.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/space_reaper.h"

namespace sa::core {

const char* UpcallEventKindName(UpcallEvent::Kind kind) {
  switch (kind) {
    case UpcallEvent::Kind::kAddProcessor:
      return "add-processor";
    case UpcallEvent::Kind::kPreempted:
      return "preempted";
    case UpcallEvent::Kind::kBlocked:
      return "blocked";
    case UpcallEvent::Kind::kUnblocked:
      return "unblocked";
  }
  return "?";
}

SaSpace::SaSpace(kern::Kernel* kernel, kern::AddressSpace* as, kern::KThreadHost* act_host)
    : kernel_(kernel), as_(as), act_host_(act_host) {
  SA_CHECK(as_->mode() == kern::AsMode::kSchedulerActivations);
  SA_CHECK(kernel_->mode() == kern::KernelMode::kSchedulerActivations);
  as_->set_sa(this);
}

SaSpace::~SaSpace() = default;

int SaSpace::num_running_activations() const {
  int n = 0;
  for (const auto& act : owned_) {
    if (act->kthread()->state() == kern::KThreadState::kRunning &&
        act->debug_processor() == nullptr) {
      ++n;
    }
  }
  return n;
}

Activation* SaSpace::NewActivation(sim::Duration* setup_cost) {
  if (!cache_.empty() && kernel_->config().recycle_activations) {
    kern::KThread* kt = cache_.back();
    cache_.pop_back();
    kt->activation()->Recycle();
    ++kernel_->counters().activation_reuses;
    *setup_cost = kernel_->costs().sa_activation_reuse;
    return kt->activation();
  }
  kern::KThread* kt = kernel_->CreateThread(as_, act_host_, nullptr);
  owned_.push_back(
      std::make_unique<Activation>(static_cast<int64_t>(owned_.size()) + 1, kt));
  Activation* raw = owned_.back().get();
  kt->set_activation(raw);
  ++kernel_->counters().activation_allocs;
  *setup_cost = kernel_->costs().sa_activation_alloc;
  return raw;
}

kern::KThread* SaSpace::LookupActivation(int64_t id) {
  SA_CHECK_MSG(id >= 1 && id <= static_cast<int64_t>(owned_.size()), "unknown activation id");
  return owned_[static_cast<size_t>(id - 1)]->kthread();
}

UserThreadState SaSpace::CaptureUserState(kern::KThread* act) {
  UserThreadState state;
  state.cookie = act->activation()->user_cookie();
  state.saved = std::exchange(act->saved_span(), {});
  act->activation()->set_user_cookie(nullptr);
  return state;
}

void SaSpace::QueueEvent(UpcallEvent ev) {
  if (as_->reaped()) {
    return;  // quarantined: the event has no consumer any more
  }
  auto& counters = kernel_->counters();
  switch (ev.kind) {
    case UpcallEvent::Kind::kAddProcessor:
      ++counters.upcalls_add_processor;
      break;
    case UpcallEvent::Kind::kPreempted:
      ++counters.upcalls_preempted;
      break;
    case UpcallEvent::Kind::kBlocked:
      ++counters.upcalls_blocked;
      break;
    case UpcallEvent::Kind::kUnblocked:
      ++counters.upcalls_unblocked;
      break;
  }
  ev.queued_at = kernel_->engine().now();
  kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kUpcallQueued,
                              ev.processor_id, as_->id(),
                              static_cast<uint64_t>(ev.kind),
                              static_cast<uint64_t>(ev.activation_id));
  pending_.push_back(std::move(ev));
}

// Emits a vessel-invariant snapshot (#running activations vs #assigned
// processors) for the trace-driven checker.  Only quiescent points count: a
// queued-but-undelivered event batch, an upcall request in flight, or the
// §3.1 upcall page-fault window are all instants where the protocol is
// legitimately mid-transition, so no snapshot is taken.
void SaSpace::TraceVessel() {
  // The count walks every activation, so it is taken only for a tracer.
  const trace::TraceBuffer* tb = kernel_->engine().tracer();
  if (tb == nullptr || !tb->enabled(trace::cat::kUpcall)) {
    return;
  }
  if (!pending_.empty() || upcall_requested_ || Holding()) {
    return;
  }
  kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kVessel, -1,
                              as_->id(),
                              static_cast<uint64_t>(num_running_activations()),
                              static_cast<uint64_t>(num_assigned()));
}

// ---------------------------------------------------------------------------
// Kernel event entry points.
// ---------------------------------------------------------------------------

void SaSpace::OnProcessorGranted(hw::Processor* proc) {
  UpcallEvent ev;
  ev.kind = UpcallEvent::Kind::kAddProcessor;
  ev.processor_id = proc->id();
  QueueEvent(std::move(ev));
  DeliverOn(proc);
  TraceVessel();
}

void SaSpace::QueuePreempted(hw::Processor* proc, kern::KThread* stopped) {
  UpcallEvent ev;
  ev.kind = UpcallEvent::Kind::kPreempted;
  ev.processor_id = proc->id();
  if (stopped != nullptr) {
    SA_CHECK(stopped->is_activation());
    ev.activation_id = stopped->activation()->id();
    ev.state = CaptureUserState(stopped);
  }
  QueueEvent(std::move(ev));
}

void SaSpace::OnProcessorRevoked(hw::Processor* proc, kern::KThread* stopped) {
  // With no activation stopped (the processor was caught between spans) the
  // event is anonymous: it notifies the loss of the processor alone.
  QueuePreempted(proc, stopped);
  if (as_->assigned().empty()) {
    // Last processor gone: the paper delays notification until the space is
    // re-allocated a processor.
    ++kernel_->counters().delayed_notifications;
    UpdateDemand();
    TraceVessel();
    return;
  }
  EnsureDelivery();
  TraceVessel();
}

void SaSpace::OnThreadBlockedInKernel(kern::KThread* blocked, hw::Processor* proc) {
  SA_CHECK(blocked->is_activation());
  UpcallEvent ev;
  ev.kind = UpcallEvent::Kind::kBlocked;
  ev.activation_id = blocked->activation()->id();
  QueueEvent(std::move(ev));
  // The blocked activation's processor is used right away for the upcall, so
  // it keeps doing useful work for this address space.
  DeliverOn(proc);
  TraceVessel();
}

void SaSpace::OnThreadUnblockedInKernel(kern::KThread* unblocked) {
  SA_CHECK(unblocked->is_activation());
  // The kernel ran the activation's remaining kernel-mode work; the user
  // thread's state now travels up in the notification.
  unblocked->set_state(kern::KThreadState::kStopped);
  UpcallEvent ev;
  ev.kind = UpcallEvent::Kind::kUnblocked;
  ev.activation_id = unblocked->activation()->id();
  ev.state = CaptureUserState(unblocked);
  ev.state.io_failed = unblocked->take_io_failed();
  QueueEvent(std::move(ev));
  EnsureDelivery();
  TraceVessel();
}

void SaSpace::OnUpcallProcessorReady(hw::Processor* proc, kern::KThread* stopped) {
  upcall_requested_ = false;
  if (stopped != nullptr) {
    QueuePreempted(proc, stopped);
  }
  DeliverOn(proc);
  TraceVessel();
}

void SaSpace::EnsureDelivery() {
  if (as_->reaped()) {
    return;
  }
  // A held delivery (page-in or injected deferral) will deliver the batch,
  // or re-enter here, when it ends; starting another preemption meanwhile
  // would stop a second processor only to hold it too.
  if (pending_.empty() || upcall_requested_ || Holding()) {
    return;
  }
  UpdateDemand();
  if (as_->assigned().empty()) {
    return;  // delivered when the allocator next grants us a processor
  }
  // Use one of our own processors: stop what it is doing and vector the
  // events there (its own preemption joins the batch).
  for (hw::Processor* proc : as_->assigned()) {
    kern::PendingAction action;
    action.kind = kern::PendingAction::Kind::kUpcallDeliver;
    action.space = this;
    if (kernel_->RequestPreemption(proc, action)) {
      upcall_requested_ = true;
      return;
    }
  }
  // Every assigned processor already has an action in flight; those actions
  // all funnel back into this space's event machinery, so the pending events
  // will ride along with the next delivery.
}

void SaSpace::DeliverOn(hw::Processor* proc) {
  if (as_->reaped()) {
    return;
  }
  SA_CHECK_MSG(as_->IsAssigned(proc), "upcall on a processor we do not own");
  SA_CHECK(!proc->has_span());
  upcall_requested_ = false;
  TryDeliver(proc, /*draw=*/true);
}

bool SaSpace::Usable(const hw::Processor* proc) const {
  return as_->IsAssigned(proc) && !proc->has_span() &&
         kernel_->running_on(proc) == nullptr;
}

void SaSpace::TryDeliver(hw::Processor* proc, bool draw) {
  // Section 3.1: "an upcall to notify the program of a page fault may in
  // turn page fault on the same location; the kernel must check for this,
  // and when it occurs, delay the subsequent upcall until the page fault
  // completes."  One page-in serves every processor that faults meanwhile.
  if (!as_->vm().IsResident(kern::VmSpace::kUpcallEntryPage)) {
    std::vector<hw::Processor*>& paging = held_.paging;
    if (std::find(paging.begin(), paging.end(), proc) != paging.end()) {
      return;
    }
    paging.push_back(proc);
    if (paging.size() == 1) {
      ++kernel_->counters().upcall_page_fault_delays;
      kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kUpcallFaultBegin,
                                  proc->id(), as_->id());
      kernel_->engine().ScheduleIn(kernel_->costs().disk_latency,
                                   [this, proc] { Resume(proc, Hold::kPageIn); });
    }
    return;
  }
  // Injected delivery faults (DESIGN.md §11): a denied activation allocation
  // when delivery would need a fresh one, or a protocol-legal delay of the
  // upcall itself.  A denial's retry draws again, so a denial burst plays
  // out (bursts are bounded by the injector); a delayed delivery is never
  // re-delayed.
  inject::FaultInjector* injector = kernel_->injector();
  if (draw && injector != nullptr) {
    sim::Duration defer = 0;
    Hold why = Hold::kDelayed;
    const bool needs_fresh_alloc =
        cache_.empty() || !kernel_->config().recycle_activations;
    if (needs_fresh_alloc && injector->ShouldDenyActivationAlloc()) {
      defer = injector->plan().alloc_retry;
      why = Hold::kAllocDenied;
      kernel_->engine().TraceEmit(trace::cat::kInject,
                                  trace::Kind::kInjectAllocDeny, proc->id(),
                                  as_->id(), static_cast<uint64_t>(defer));
    } else if ((defer = injector->UpcallDelay()) > 0) {
      kernel_->engine().TraceEmit(trace::cat::kInject,
                                  trace::Kind::kInjectUpcallDelay, proc->id(),
                                  as_->id(), static_cast<uint64_t>(defer));
    }
    if (defer > 0) {
      ++held_.injected;
      kernel_->engine().ScheduleIn(defer, [this, proc, why] { Resume(proc, why); });
      return;
    }
  }
  DeliverNow(proc);
}

void SaSpace::Resume(hw::Processor* proc, Hold why) {
  std::vector<hw::Processor*> waiting;
  if (why == Hold::kPageIn) {
    waiting = std::exchange(held_.paging, {});
  } else {
    --held_.injected;
    waiting.push_back(proc);
  }
  if (as_->reaped()) {
    return;  // the space died while its delivery was held
  }
  if (why == Hold::kPageIn) {
    kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kUpcallFaultEnd,
                                proc->id(), as_->id());
    as_->vm().MakeResident(kern::VmSpace::kUpcallEntryPage);
  }
  bool stranded = false;
  for (hw::Processor* p : waiting) {
    if (!Usable(p)) {
      stranded = true;  // revoked or busy meanwhile
      continue;
    }
    const bool reoffer = pending_.empty();
    if (reoffer) {
      // Another delivery drained the batch meanwhile (an earlier waiter's,
      // or another path's).  Re-offer the bare processor to user level
      // (protocol-legal "add this processor") instead of stranding it.
      UpcallEvent ev;
      ev.kind = UpcallEvent::Kind::kAddProcessor;
      ev.processor_id = p->id();
      QueueEvent(std::move(ev));
    }
    if (reoffer || why == Hold::kDelayed) {
      TryDeliver(p, /*draw=*/false);
    } else {
      DeliverOn(p);  // a denial's retry, or the page-in's, draws again
    }
  }
  if (stranded) {
    EnsureDelivery();  // events left without a waiting processor
  }
}

void SaSpace::DeliverNow(hw::Processor* proc) {
  if (as_->reaped()) {
    return;
  }
  SA_CHECK(as_->IsAssigned(proc) && !proc->has_span());
  SA_CHECK(!pending_.empty());

  auto& counters = kernel_->counters();
  ++counters.upcalls;
  counters.upcall_events += static_cast<int64_t>(pending_.size());

  sim::Duration setup_cost = 0;
  Activation* fresh = NewActivation(&setup_cost);
  // The activation carries the batch; the spare buffer collects the next.
  fresh->inbox() = std::exchange(pending_, std::move(spare_));
  kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kUpcallDeliver,
                              proc->id(), as_->id(), fresh->inbox().size(),
                              static_cast<uint64_t>(fresh->id()));
  const sim::Time now = kernel_->engine().now();
  for (const UpcallEvent& ev : fresh->inbox()) {
    kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kUpcallEvent,
                                proc->id(), as_->id(),
                                static_cast<uint64_t>(ev.kind),
                                static_cast<uint64_t>(ev.activation_id));
    if (ev.queued_at >= 0) {
      kernel_->upcall_latency().Add(now - ev.queued_at);
    }
  }
  // Hang watchdog: the runtime must acknowledge this delivery (it does so
  // from its upcall handler); a silent drop starts the ping/deadline clock.
  kernel_->reaper()->WatchUpcall(as_);
  kernel_->RunContextOn(proc, fresh->kthread(), kernel_->UpcallCost() + setup_cost);
}

void SaSpace::ReturnBatch(std::vector<UpcallEvent> batch) {
  // Overlapping deliveries return several buffers; keep the roomiest.
  batch.clear();
  if (batch.capacity() > spare_.capacity()) {
    spare_ = std::move(batch);
  }
}

int SaSpace::OnSpaceReaped() {
  const int discarded = static_cast<int>(pending_.size());
  pending_.clear();
  returning_.clear();
  returning_batches_.clear();
  upcall_requested_ = false;
  cache_.clear();  // the reaper marks every cached activation dead
  return discarded;
}

void SaSpace::UpdateDemand() {
  if (as_->reaped()) {
    return;  // the reaper pinned demand at zero
  }
  int desired = user_desired_;
  // A pending *unblocked* thread needs a processor (the kernel must deliver
  // it so it can run).  A pending *preemption* notification does not — it
  // waits for the next processor granted in the normal course (otherwise a
  // high-priority space would steal a processor back just to be told it
  // lost one).
  bool unblocked_pending = false;
  bool stranded_thread = false;
  for (const UpcallEvent& ev : pending_) {
    if (ev.kind == UpcallEvent::Kind::kUnblocked) {
      unblocked_pending = true;
    }
    // A preempted activation whose cookie is set was running a user-level
    // thread; the captured state in this event is now the only record that
    // the thread exists.  (A cookie-less preemption is an idle vcpu — safe
    // to park indefinitely.)
    if (ev.kind == UpcallEvent::Kind::kPreempted && ev.state.cookie != nullptr) {
      stranded_thread = true;
    }
  }
  if (unblocked_pending && desired < 1) {
    desired = 1;
  }
  // A preemption notification may wait for the next grant in the normal
  // course — but only while a grant can still happen.  If demand hit zero
  // (e.g. an idle downcall raced the revocation) just as the last processor
  // was revoked mid-thread, the runtime still believes the thread is
  // running and will never re-raise demand; without a minimal claim the
  // delayed notification never lands and the thread is lost.
  if (stranded_thread && desired < 1 && as_->assigned().empty()) {
    desired = 1;
  }
  kernel_->allocator()->SetDesired(as_, desired);
}

void SaSpace::BootDemand(int desired) {
  user_desired_ = desired;
  UpdateDemand();
}

// ---------------------------------------------------------------------------
// Downcalls (Table 3).
// ---------------------------------------------------------------------------

void SaSpace::Downcall(kern::KThread* caller, sim::Duration cost, sim::Callback done,
                       sim::Callback then) {
  SA_CHECK(caller->is_activation());
  caller->activation()->downcall_done() = std::move(done);
  kernel_->ChargeKernel(caller, cost, std::move(then));
}

void SaSpace::ResumeCaller(kern::KThread* caller) {
  sim::Callback done = std::move(caller->activation()->downcall_done());
  done();
}

void SaSpace::DowncallAddProcessors(kern::KThread* caller, int additional,
                                    sim::Callback done) {
  SA_CHECK(additional > 0);
  ++kernel_->counters().downcalls_add_more;
  kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kDowncallAddProcs,
                              caller->processor()->id(), as_->id(),
                              static_cast<uint64_t>(additional));
  Downcall(caller, kernel_->costs().downcall, std::move(done),
           [this, caller, additional] {
             user_desired_ = num_assigned() + additional;
             UpdateDemand();
             ResumeCaller(caller);
           });
}

void SaSpace::DowncallProcessorIdle(kern::KThread* caller, sim::Callback done) {
  ++kernel_->counters().downcalls_idle;
  kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kDowncallIdle,
                              caller->processor()->id(), as_->id(),
                              static_cast<uint64_t>(caller->activation()->id()));
  Downcall(caller, kernel_->costs().downcall, std::move(done), [this, caller] {
    user_desired_ = std::max(0, std::min(user_desired_, num_assigned() - 1));
    UpdateDemand();
    ResumeCaller(caller);
  });
}

void SaSpace::DowncallYieldHint(kern::KThread* caller, sim::Callback declined) {
  kern::ProcessorAllocator* alloc = kernel_->allocator();
  if (!kernel_->config().lending || as_->reaped() || !alloc->WantsLoanFrom(as_)) {
    if (kernel_->config().lending) {
      ++kernel_->counters().yield_hints_declined;
    }
    declined();  // cost-free: no charge, no trace, no events
    return;
  }
  hw::Processor* proc = caller->processor();
  Downcall(
      caller, kernel_->costs().downcall, std::move(declined), [this, caller, proc] {
        kern::ProcessorAllocator* alloc = kernel_->allocator();
        // Re-validate after the charge: the taker (or this very processor)
        // may have vanished while the downcall was in flight — and a latched
        // interrupt action (upcall delivery, revocation) makes the processor
        // spoken for: lending it under the action's feet would fire the old
        // owner's action on the borrower.
        if (!as_->IsAssigned(proc) ||
            kernel_->running_on(proc) != caller ||
            kernel_->HasPendingAction(proc) || !alloc->WantsLoanFrom(as_)) {
          ++kernel_->counters().yield_hints_declined;
          ResumeCaller(caller);
          return;
        }
        caller->activation()->downcall_done() = nullptr;  // accepted: never resumed
        ++kernel_->counters().downcalls_yield_hint;
        kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanYieldHint,
                                    proc->id(), as_->id(),
                                    static_cast<uint64_t>(caller->activation()->id()),
                                    static_cast<uint64_t>(proc->id()));
        // Injected lie (DESIGN.md §11): the runtime claims the processor is
        // idle but its demand never drops, so the loan below is recalled the
        // instant UpdateDemand lands — an adversarial lender flap that
        // exercises the reclaim fast path.
        inject::FaultInjector* injector = kernel_->injector();
        const bool lie = injector != nullptr && injector->ShouldLieYieldHint();
        if (!lie) {
          user_desired_ = std::max(0, std::min(user_desired_, num_assigned() - 1));
        }
        alloc->LendYieldedProcessor(as_, proc, caller);
        UpdateDemand();
        // The lie above leaves desired unchanged — no SetDesired edge, so
        // the edge-triggered recall never fires.  Check explicitly now that
        // the allocator sees the post-lend demand (not the stale pre-hint
        // value, which would recall an honestly-lent processor).
        alloc->RecallExcessLoans(as_);
      });
}

void SaSpace::DowncallReturnDiscards(kern::KThread* caller, std::vector<int64_t>&& ids,
                                     sim::Callback done) {
  ++kernel_->counters().downcalls_discard;
  returning_.insert(returning_.end(), ids.begin(), ids.end());
  returning_batches_.emplace_back(caller, ids.size());
  ids.clear();
  Downcall(caller, kernel_->costs().sa_discard_downcall, std::move(done), [this, caller] {
    SA_CHECK_MSG(!returning_batches_.empty() && returning_batches_.front().first == caller,
                 "discard downcalls ended out of order");
    const auto n = static_cast<std::ptrdiff_t>(returning_batches_.front().second);
    returning_batches_.erase(returning_batches_.begin());
    for (auto it = returning_.begin(); it != returning_.begin() + n; ++it) {
      kern::KThread* kt = LookupActivation(*it);
      SA_CHECK_MSG(kt->state() == kern::KThreadState::kStopped,
                   "discarding an activation the kernel has not stopped");
      kt->activation()->set_discarded(true);
      if (kernel_->config().recycle_activations) {
        cache_.push_back(kt);
      } else {
        kt->set_state(kern::KThreadState::kDead);
      }
    }
    returning_.erase(returning_.begin(), returning_.begin() + n);
    ResumeCaller(caller);
  });
}

void SaSpace::DowncallPreemptProcessor(kern::KThread* caller, int processor_id,
                                       sim::Callback done) {
  ++kernel_->counters().downcalls_preempt_request;
  Downcall(caller, kernel_->costs().downcall, std::move(done),
           [this, caller, processor_id] {
             hw::Processor* proc = kernel_->machine()->processor(processor_id);
             if (as_->IsAssigned(proc)) {
               kern::PendingAction action;
               action.kind = kern::PendingAction::Kind::kUpcallDeliver;
               action.space = this;
               if (kernel_->RequestPreemption(proc, action)) {
                 upcall_requested_ = true;
               }
             }
             ResumeCaller(caller);
           });
}

// ---------------------------------------------------------------------------
// Debugger support (Section 4.4).
// ---------------------------------------------------------------------------

void SaSpace::DebuggerStop(kern::KThread* act) {
  SA_CHECK(act->is_activation());
  SA_CHECK(act->state() == kern::KThreadState::kRunning);
  hw::Processor* proc = act->processor();
  act->activation()->set_debug_processor(proc);
  kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kDebugStop,
                              proc->id(), as_->id(),
                              static_cast<uint64_t>(act->activation()->id()));
  kern::PendingAction action;
  action.kind = kern::PendingAction::Kind::kDebugStop;
  const bool ok = kernel_->RequestPreemption(proc, action);
  SA_CHECK_MSG(ok, "debugger stop raced with another preemption");
}

void SaSpace::DebuggerResume(kern::KThread* act) {
  SA_CHECK(act->is_activation());
  hw::Processor* proc = act->activation()->debug_processor();
  SA_CHECK_MSG(proc != nullptr, "activation is not debugger-stopped");
  act->activation()->set_debug_processor(nullptr);
  kernel_->engine().TraceEmit(trace::cat::kUpcall, trace::Kind::kDebugResume,
                              proc->id(), as_->id(),
                              static_cast<uint64_t>(act->activation()->id()));
  // The single sanctioned direct resume, transparent to the thread system:
  // the activation's host continues the span the stop filed in it.
  kernel_->RunContextOn(proc, act, 0);
}

}  // namespace sa::core
