#include "src/ult/sa_backend.h"

#include <algorithm>
#include <utility>

#include "src/kern/space_reaper.h"
#include "src/ult/fast_threads.h"

namespace sa::ult {

SaBackend::SaBackend(kern::Kernel* kernel, kern::AddressSpace* as)
    : kernel_(kernel),
      as_(as),
      proc_slots_(static_cast<size_t>(kernel->machine()->num_processors()), nullptr) {
  space_ = std::make_unique<core::SaSpace>(kernel_, as_, this);
}

SaBackend::~SaBackend() = default;

void SaBackend::Attach(FastThreads* ft) { ft_ = ft; }

void SaBackend::Start() {
  // Program start: register initial demand; the kernel answers with an
  // add-processor upcall at a fixed entry point (Section 3.1).
  const int want = std::max(1, std::min(ft_->runnable(), ft_->num_vcpus()));
  space_->BootDemand(want);
}

int SaBackend::BoundCount() const { return bound_slots_; }

Vcpu* SaBackend::SlotByProcessor(int processor_id) {
  return proc_slots_[static_cast<size_t>(processor_id)];
}

void SaBackend::ResetSlot(Vcpu* v, kern::KThread* kt) {
  v->kt = kt;
  v->current = nullptr;
  v->idle_spinning = false;
  v->idle_transition = false;
  v->idle_notified = false;
  v->lend_hinted = false;
}

Vcpu* SaBackend::BindSlot(kern::KThread* kt) {
  const int pid = kt->processor()->id();
  Vcpu* v = SlotByProcessor(pid);
  if (v != nullptr) {
    // Rebind: the fresh activation replaces whatever context held this
    // processor (blocked or stopped; its thread state travels in events).
    ResetSlot(v, kt);
    return v;
  }
  for (int i = 0; i < ft_->num_vcpus(); ++i) {
    Vcpu* candidate = ft_->vcpu(i);
    if (!candidate->bound) {
      candidate->bound = true;
      candidate->processor_id = pid;
      ResetSlot(candidate, kt);
      proc_slots_[static_cast<size_t>(pid)] = candidate;
      ++bound_slots_;
      return candidate;
    }
  }
  return nullptr;  // surplus processor
}

void SaBackend::UnbindSlot(Vcpu* v) {
  ft_->NoteUnbound(v, v->processor_id);
  v->bound = false;
  ResetSlot(v, nullptr);
  proc_slots_[static_cast<size_t>(v->processor_id)] = nullptr;
  --bound_slots_;
}

void SaBackend::UnbindSlotOfActivation(int64_t activation_id) {
  // An activation backs at most one slot.
  for (int i = 0; i < ft_->num_vcpus(); ++i) {
    Vcpu* v = ft_->vcpu(i);
    if (v->bound && v->kt->is_activation() &&
        v->kt->activation()->id() == activation_id) {
      UnbindSlot(v);
      return;
    }
  }
  // No slot bound to that activation: the processor was already rebound to a
  // fresh activation (same-processor delivery) — nothing to do.
}

void SaBackend::UnbindIdleSlotByProcessor(int processor_id) {
  Vcpu* v = SlotByProcessor(processor_id);
  if (v == nullptr) {
    return;
  }
  if (v->kt != nullptr && v->kt->state() == kern::KThreadState::kRunning) {
    return;  // the processor came back before we processed the notification
  }
  UnbindSlot(v);
}

// ---------------------------------------------------------------------------
// Activation host.
// ---------------------------------------------------------------------------

void SaBackend::OnSpaceReaped() {
  // Stop the package's heartbeat: the kernel drops every span continuation
  // of the dead space, and an idle spin's deadline checks reaped(), so
  // nothing else of it runs.
  ft_->Halt();
}

void SaBackend::RunOn(kern::KThread* kt) {
  SA_CHECK(kt->is_activation());
  core::Activation* act = kt->activation();
  if (!act->inbox().empty()) {
    HandleUpcall(kt, act->inbox());
    // A direct resume must find nothing to replay.
    SA_CHECK(act->inbox().empty());
    return;
  }
  // Direct resume (debugger): continue where the slot left off.
  Vcpu* v = SlotByProcessor(kt->processor()->id());
  SA_CHECK_MSG(v != nullptr && v->kt == kt, "resumed activation has no slot");
  ft_->RunVcpu(v);
}

void SaBackend::HandleUpcall(kern::KThread* upcall_activation,
                             std::vector<core::UpcallEvent>& events) {
  if (as_->hung()) {
    space_->ReturnBatch(std::move(events));
    // Injected hang (DESIGN.md §12): the user-level scheduler is wedged.  It
    // absorbs the upcall without processing or acknowledging it and spins,
    // holding the processor, until the kernel's deadline watchdog gives up
    // and tears the space down.
    BindSlot(upcall_activation);
    upcall_activation->processor()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
    return;
  }
  kernel_->reaper()->AckUpcalls(as_);
  for (auto& ev : events) {
    inbox_.push_back(std::move(ev));
  }
  space_->ReturnBatch(std::move(events));
  Vcpu* v = BindSlot(upcall_activation);
  // The thread system's event handling runs at user level in the fresh
  // activation's context.
  const sim::Duration charge = kernel_->costs().sa_upcall_user_process;
  upcall_activation->processor()->BeginSpan(
      charge, hw::SpanMode::kMgmt, /*preemptible=*/false, /*critical_section=*/false,
      [this, upcall_activation, v] { Drain(upcall_activation, v); });
}

bool SaBackend::TakeEvent(core::UpcallEvent* ev) {
  if (inbox_head_ == inbox_.size()) {
    return false;
  }
  *ev = std::move(inbox_[inbox_head_++]);
  if (inbox_head_ == inbox_.size()) {
    inbox_.clear();
    inbox_head_ = 0;
  }
  return true;
}

void SaBackend::Drain(kern::KThread* kt, Vcpu* v) {
  core::UpcallEvent ev;
  if (!TakeEvent(&ev)) {
    FinishDrain(kt, v);
    return;
  }

  switch (ev.kind) {
    case core::UpcallEvent::Kind::kAddProcessor: {
      // "Add this processor": the slot is already bound.  If parallelism
      // grew while this grant was in flight, renew the hint right away (the
      // downcalls are serialized, Section 3.2).  A reap elsewhere can flood
      // the free pool and leave this space holding more processors than it
      // currently wants, so only renew while the bound count still trails.
      if (const int more = ProcessorsToAsk(); more > 0) {
        space_->DowncallAddProcessors(kt, more, [this, kt, v] { Drain(kt, v); });
        return;
      }
      Drain(kt, v);
      return;
    }

    case core::UpcallEvent::Kind::kBlocked: {
      // "Scheduler activation has blocked": the blocked activation is no
      // longer using its processor.  Its user thread stays in its context
      // until the matching unblocked event.
      Drain(kt, v);
      return;
    }

    case core::UpcallEvent::Kind::kUnblocked: {
      Tcb* t = static_cast<Tcb*>(ev.state.cookie);
      SA_CHECK_MSG(t != nullptr, "unblocked activation carried no thread");
      SA_CHECK(t->state == Tcb::State::kBlockedKernel);
      if (ev.state.io_failed && t->work != nullptr) {
        // The kernel completed the blocking I/O with an injected error;
        // surface it before the thread resumes (IoRead).
        t->work->ctx.last_io_ok = false;
      }
      t->saved = std::move(ev.state.saved);
      ++ft_->runnable_ref();
      NoteDiscard(ev.activation_id);
      if (v != nullptr) {
        ft_->RecoverOrReady(v, t, [this](Vcpu* vn) { Drain(vn->kt, vn); });
      } else {
        t->resume_check = true;
        ft_->EnqueueReady(nullptr, t);
        Drain(kt, nullptr);
      }
      return;
    }

    case core::UpcallEvent::Kind::kPreempted: {
      if (ev.activation_id >= 0) {
        NoteDiscard(ev.activation_id);
        UnbindSlotOfActivation(ev.activation_id);
      } else if (ev.processor_id >= 0) {
        UnbindIdleSlotByProcessor(ev.processor_id);
      }
      Tcb* t = static_cast<Tcb*>(ev.state.cookie);
      if (t == nullptr) {
        // The processor was idling in the user-level scheduler: "no action
        // is necessary" (Section 3.1).
        Drain(kt, v);
        return;
      }
      t->saved = std::move(ev.state.saved);
      if (t->waiting_lock != nullptr) {
        // It was spin-waiting; it re-checks the lock when dispatched again.
        t->resume_check = true;
        ft_->EnqueueReady(v, t, /*front=*/false);
        Drain(kt, v);
        return;
      }
      if (t->cs_depth > 0 && v != nullptr) {
        ft_->RecoverOrReady(v, t, [this](Vcpu* vn) { Drain(vn->kt, vn); });
      } else {
        t->resume_check = true;
        ft_->EnqueueReady(v, t, /*front=*/false);
        Drain(kt, v);
      }
      return;
    }
  }
  SA_UNREACHABLE();
}

void SaBackend::NoteDiscard(int64_t activation_id) {
  discards_.push_back(activation_id);
}

void SaBackend::FinishDrain(kern::KThread* kt, Vcpu* v) {
  // Discarded activations are returned to the kernel in bulk (Section 4.3).
  if (static_cast<int>(discards_.size()) >= kernel_->costs().sa_discard_batch) {
    space_->DowncallReturnDiscards(kt, std::move(discards_),
                                   [this, kt, v] { FinishDrain(kt, v); });
    return;
  }
  if (v != nullptr) {
    ft_->RunVcpu(v);
    return;
  }
  // Surplus processor: every virtual-processor slot is occupied.  Tell the
  // kernel this processor is idle and spin until it is reclaimed.
  space_->DowncallProcessorIdle(
      kt, [kt] { kt->processor()->BeginOpenSpan(hw::SpanMode::kIdleSpin); });
}

void SaBackend::OnPreempted(kern::KThread* kt, const hw::Interrupt& irq) {
  SA_CHECK(kt->is_activation());
  Vcpu* v = SlotByProcessor(kt->processor()->id());
  Tcb* t = (v != nullptr && v->kt == kt) ? v->current : nullptr;
  if (irq.open) {
    if (t != nullptr && t->state == Tcb::State::kSpinning) {
      t->actively_spinning = false;
      t->state = Tcb::State::kStopped;
    } else if (v != nullptr) {
      // Idle loop: nothing to save, but the slot is no longer idle-spinning
      // (its processor is being taken; the preemption withdrew the spin's
      // deadline).
      v->idle_spinning = false;
    }
    return;
  }
  // The kernel filed the cut span in the activation; it travels up in the
  // preempted event.
  if (t != nullptr) {
    t->state = Tcb::State::kStopped;
  }
}

// ---------------------------------------------------------------------------
// Idling and parallelism (Section 4.2, Table 3).
// ---------------------------------------------------------------------------

void SaBackend::NotifyIdle(Vcpu* v) {
  ft_->BeginIdleTransition(v);
  v->idle_notified = true;
  // Re-checks for work; re-enters OnIdle if there is still none.
  space_->DowncallProcessorIdle(v->kt, [this, v] { ft_->EndIdleTransition(v); });
}

void SaBackend::OnIdle(Vcpu* v) {
  if (v->idle_notified) {
    // Already told the kernel; keep spinning until work arrives or the
    // processor is reclaimed.
    v->proc()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
    return;
  }
  if (!ft_->config().idle_hysteresis) {
    NotifyIdle(v);
    return;
  }
  // Spin for the hysteresis period before notifying (Section 4.2): it is
  // the spin's deadline, which work arriving or the processor being taken
  // withdraws.  With lending (DESIGN.md §16), offer the processor to the
  // kernel's loan pool first, after a short grace period.  A declined hint
  // is cost-free and falls back to the normal idle path (EndIdleTransition
  // re-enters OnIdle with lend_hinted set); an accepted one stops this
  // activation and the slot unbinds through the ordinary preempted upcall.
  const bool hint = ft_->config().lend_idle && kernel_->config().lending && !v->lend_hinted;
  const sim::Duration spin =
      hint ? kernel_->costs().lend_hint_hysteresis : kernel_->costs().idle_hysteresis;
  v->proc()->BeginOpenSpan(hw::SpanMode::kIdleSpin, spin, [this, v, hint] {
    // The deadline passes no span-end check, so it looks for a dead space.
    if (!v->bound || !v->idle_spinning || as_->reaped()) {
      return;
    }
    if (!hint) {
      v->proc()->EndOpenSpan();
      NotifyIdle(v);
      return;
    }
    v->lend_hinted = true;  // one offer per idle episode
    ft_->BeginIdleTransition(v);
    v->proc()->EndOpenSpan();
    space_->DowncallYieldHint(v->kt, [this, v] { ft_->EndIdleTransition(v); });
  });
}

int SaBackend::ProcessorsToAsk() const {
  // Only on a *transition*: more runnable threads than processors, and more
  // than the demand the kernel already knows about (the demand is
  // persistent kernel state, so no request tracking is needed — if nothing
  // can be granted now, the allocator grants when a processor frees up).
  const int want = std::min(ft_->runnable(), ft_->num_vcpus());
  return want > BoundCount() && want > space_->user_desired() ? want - BoundCount() : 0;
}

void SaBackend::NotifyParallelism(Vcpu* v, sim::Callback resume) {
  if (const int more = ProcessorsToAsk(); more > 0) {
    space_->DowncallAddProcessors(v->kt, more, std::move(resume));
    return;
  }
  // Priority extension (Section 3.1): if a ready thread outranks a running
  // one, ask the kernel to interrupt that processor; the preempted upcall
  // lets the dispatcher put the high-priority thread there.  The thread
  // system can do this precisely because it knows which of its threads runs
  // on each of its processors.
  if (ft_->has_priorities()) {
    const int top = ft_->HighestReadyPriority();
    Vcpu* victim = ft_->LowestPriorityRunningVcpu(/*exclude=*/v);
    if (victim != nullptr && top > victim->current->priority) {
      space_->DowncallPreemptProcessor(v->kt, victim->proc()->id(), std::move(resume));
      return;
    }
  }
  resume();
}

void SaBackend::OnThreadLoaded(Vcpu* v, Tcb* t) {
  // Record which user-level thread runs in which activation: this is the
  // "machine state" the kernel ships back if the activation is stopped.
  v->kt->activation()->set_user_cookie(t);
  v->idle_notified = false;
  v->lend_hinted = false;
}

void SaBackend::OnThreadUnloaded(Vcpu* v) {
  if (v->kt != nullptr && v->kt->is_activation()) {
    v->kt->activation()->set_user_cookie(nullptr);
  }
}

sim::Duration SaBackend::ForkOverhead() const {
  return kernel_->costs().sa_busy_accounting;
}
sim::Duration SaBackend::WaitOverhead() const {
  return kernel_->costs().sa_busy_accounting;
}
sim::Duration SaBackend::ResumeCheckOverhead() const {
  return kernel_->costs().sa_resume_check;
}

}  // namespace sa::ult
