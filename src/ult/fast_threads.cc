#include "src/ult/fast_threads.h"

#include <algorithm>
#include <climits>
#include <utility>

#include "src/core/activation.h"

namespace sa::ult {

FastThreads::FastThreads(kern::Kernel* kernel, kern::AddressSpace* as, UltConfig config,
                         VcpuBackend* backend, rt::ThreadTable& table)
    : kernel_(kernel), as_(as), config_(config), backend_(backend), table_(table) {
  SA_CHECK(config_.max_vcpus >= 1);
  for (int i = 0; i < config_.max_vcpus; ++i) {
    auto v = std::make_unique<Vcpu>();
    v->index = i;
    vcpus_.push_back(std::move(v));
  }
  if (config_.heartbeat_us > 0) {
    heartbeat_ = kernel_->engine().AddTimer([this] { OnHeartbeat(); });
  }
  backend_->Attach(this);
}

bool FastThreads::TraceOn() const {
  trace::TraceBuffer* tb = kernel_->engine().tracer();
  return tb != nullptr && tb->enabled(trace::cat::kUlt);
}

void FastThreads::TraceUlt(trace::Kind kind, int cpu, uint64_t a0, uint64_t a1) {
  kernel_->engine().TraceEmit(trace::cat::kUlt, kind, cpu, as_->id(), a0, a1);
}

size_t FastThreads::QueuedReady() const {
  size_t n = 0;
  for (const auto& v : vcpus_) {
    n += v->ready.size();
  }
  return n;
}

int FastThreads::CreateLock(rt::LockKind kind) {
  locks_.push_back(std::make_unique<UltLock>());
  locks_.back()->kind = kind;
  return static_cast<int>(locks_.size()) - 1;
}

int FastThreads::CreateCond() {
  sems_.push_back(std::make_unique<UltSem>());
  return static_cast<int>(sems_.size()) - 1;
}

int FastThreads::CreateKernelEvent() {
  kernel_events_.push_back(std::make_unique<kern::KernelEvent>());
  return static_cast<int>(kernel_events_.size()) - 1;
}

Tcb* FastThreads::AllocTcb(Vcpu* v, rt::WorkThread* w) {
  // The id follows the per-processor free list (Section 4.3): the newest id
  // that exited on the forking vcpu, else a fresh one.  The record comes
  // from the space's spare records, since a forker's list stays empty while
  // its children exit on other vcpus.
  int id;
  if (v != nullptr && !v->free_tcbs.empty()) {
    id = v->free_tcbs.back();
    v->free_tcbs.pop_back();
  } else {
    id = next_tcb_id_++;
  }
  Tcb* t;
  if (spare_tcbs_.empty()) {
    tcbs_.push_back(std::make_unique<Tcb>());
    t = tcbs_.back().get();
  } else {
    t = spare_tcbs_.back();
    spare_tcbs_.pop_back();
  }
  SA_CHECK(t->state == Tcb::State::kFree);
  t->id = id;
  t->priority = 0;
  t->work = w;
  t->vcpu = nullptr;
  t->saved = {};
  t->cs_depth = 0;
  t->cs_recovery = false;
  t->waiting_lock = nullptr;
  t->actively_spinning = false;
  t->resume_check = false;
  t->recovery_after = nullptr;
  t->lazy_promote_charge = 0;
  w->impl = t;
  return t;
}

void FastThreads::FreeTcb(Vcpu* v, Tcb* t) {
  SA_CHECK_MSG(t->work_stack.empty(), "freeing a TCB mid inline (pcall) body");
  t->state = Tcb::State::kFree;
  t->work = nullptr;
  v->free_tcbs.push_back(t->id);
  spare_tcbs_.push_back(t);
}

Tcb* FastThreads::SpawnThread(rt::WorkThread* w) {
  Tcb* t = AllocTcb(nullptr, w);
  t->state = Tcb::State::kReady;
  ++runnable_;
  vcpus_[0]->ready.PushFront(t);
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltReady, -1, static_cast<uint64_t>(t->id), QueuedReady());
  }
  return t;
}

void FastThreads::Halt() { kernel_->engine().DisarmTimer(heartbeat_); }

void FastThreads::ChargeMgmt(Vcpu* v, sim::Duration d, sim::Callback fn) {
  SA_CHECK(v->bound);
  counters_.mgmt_time += d;
  // Internal critical sections are modelled as non-preemptible management
  // spans (see header comment); interrupts latch and fire at the next
  // preemptible boundary.
  v->proc()->BeginSpan(d, hw::SpanMode::kMgmt, /*preemptible=*/false,
                       /*critical_section=*/false, std::move(fn));
}

// ---------------------------------------------------------------------------
// Dispatching.
// ---------------------------------------------------------------------------

int FastThreads::HighestReadyPriority() const {
  int best = INT_MIN;
  for (const auto& v : vcpus_) {
    for (const Tcb* t : v->ready) {
      best = std::max(best, t->priority);
    }
  }
  return best;
}

Vcpu* FastThreads::LowestPriorityRunningVcpu(const Vcpu* exclude) const {
  Vcpu* lowest = nullptr;
  for (const auto& v : vcpus_) {
    if (v.get() == exclude || !v->bound || v->current == nullptr ||
        v->current->state != Tcb::State::kRunning) {
      continue;
    }
    if (lowest == nullptr || v->current->priority < lowest->current->priority) {
      lowest = v.get();
    }
  }
  return lowest;
}

sim::Duration FastThreads::NoteSteal(Vcpu* thief, Vcpu* victim) {
  const hw::Topology& topo = kernel_->machine()->topology();
  if (!topo.hierarchical() || !thief->bound) {
    return 0;
  }
  const int thief_cpu = thief->proc()->id();
  // An unbound victim's list has no processor; the stolen thread is cold
  // wherever it lands, so that counts (and is priced) as a remote steal.
  const bool remote =
      !victim->bound || !topo.SameSocket(thief_cpu, victim->proc()->id());
  if (!remote) {
    ++counters_.steals_same_socket;
    ++kernel_->counters().ult_steals_local;
    return 0;
  }
  ++counters_.steals_cross_socket;
  ++kernel_->counters().ult_steals_remote;
  kernel_->engine().TraceEmit(trace::cat::kLocality, trace::Kind::kLocStealRemote,
                              thief_cpu, as_->id(),
                              static_cast<uint64_t>(thief->index),
                              static_cast<uint64_t>(victim->index));
  // The cold-cache cost of pulling work across the socket boundary is a
  // property of the machine, not of the stealing policy: both the blind and
  // the locality-aware scan pay it, which is what makes their elapsed times
  // comparable in the ablation.  The flag only changes the victim order.
  const sim::Duration penalty =
      victim->bound ? topo.MigrationPenalty(victim->proc()->id(), thief_cpu)
                    : topo.config().socket_migration_penalty;
  kernel_->counters().migration_penalty_time += penalty;
  return penalty;
}

void FastThreads::RunVcpu(Vcpu* v) {
  if (v->current != nullptr) {
    Tcb* t = v->current;
    if (v->kt->saved_span().valid()) {
      v->proc()->Resume(v->kt->saved_span());
      return;
    }
    if (t->state == Tcb::State::kBlockedKernel) {
      // The kernel operation completed and the kernel resumed this context.
      ResumeAfterKernel(v, t);
      return;
    }
    if (t->state == Tcb::State::kSpinning) {
      TrySpinAcquire(v, t);
      return;
    }
    SA_CHECK_MSG(false, "vcpu resumed with a thread in an unexpected state");
  }
  Dispatch(v);
}

Tcb* FastThreads::TakeReady(Vcpu* v, Vcpu** owner) {
  // The scan meets candidates in tie order and strict `>` keeps the first of
  // equals.  With no priority in play every thread ties, so the first thread
  // met is the pick: an O(1) local pop, or the oldest thread of the first
  // non-empty victim list.
  Tcb* best = nullptr;
  const auto settled = [&] { return best != nullptr && !has_priorities_; };
  const auto consider = [&](Tcb* t, Vcpu* list) {
    if (best == nullptr || t->priority > best->priority) {
      best = t;
      *owner = list;
    }
  };
  for (Tcb* t : v->ready) {
    consider(t, v);
    if (settled()) {
      break;
    }
  }
  if (!settled() && num_vcpus() > 1) {
    // Then the victims in the Section 4.2 rotation from v->index + 1, walked
    // in place.  Under locality-aware stealing on a hierarchical machine a
    // bound v scans its own socket's victims first, then the rest, each
    // group in rotation order; unbound victims have no location and scan
    // with the rest.
    const hw::Topology& topo = kernel_->machine()->topology();
    const bool by_socket = config_.locality_aware_stealing && topo.hierarchical() && v->bound;
    const int home = by_socket ? topo.SocketOf(v->proc()->id()) : -1;
    const int n = num_vcpus();
    for (int pass = by_socket ? 0 : 1; pass < 2 && !settled(); ++pass) {
      for (int k = 1, i = v->index; k < n && !settled(); ++k) {
        i = i + 1 == n ? 0 : i + 1;
        Vcpu* victim = vcpus_[static_cast<size_t>(i)].get();
        if (victim->ready.empty() ||
            (by_socket && (victim->bound && topo.SocketOf(victim->proc()->id()) == home) !=
                              (pass == 0))) {
          continue;
        }
        for (Tcb* t = victim->ready.Back(); t != nullptr && !settled();
             t = victim->ready.Prev(t)) {
          consider(t, victim);
        }
      }
    }
  }
  if (best != nullptr) {
    (*owner)->ready.Remove(best);
  }
  return best;
}

void FastThreads::Dispatch(Vcpu* v) {
  SA_CHECK_MSG(v->bound, "dispatch on an unbound virtual processor");
  SA_CHECK(v->current == nullptr);
  Vcpu* owner = nullptr;
  Tcb* next = TakeReady(v, &owner);
  // A thread taken from another list, or a promoted frame, pays the steal
  // scan (plus any cross-socket migration penalty) as its own span before
  // the dispatch charge.
  bool scanned = false;
  sim::Duration steal_penalty = 0;
  if (next != nullptr && owner != v) {
    scanned = true;
    ++counters_.steals;
    steal_penalty = NoteSteal(v, owner);
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltSteal, v->proc()->id(), static_cast<uint64_t>(v->index),
               static_cast<uint64_t>(owner->index));
    }
  } else if (next == nullptr && num_vcpus() > 1 && lazy_outstanding_ > 0) {
    // Steal-triggered promotion (DESIGN.md §17): every ready list is dry, but
    // unpromoted lazy-fork frames are latent parallelism.  Promote the
    // globally oldest frame to this processor rather than going idle — a
    // thief never sees (or races) a raw frame, only TCBs on ready lists.  It
    // is charged like a steal but not counted as one.
    LazyFrame frame;
    if (PopOldestLazyFrame(&frame, &owner)) {
      scanned = true;
      next = PromoteFrame(frame, v, trace::HbPromoteSource::kSteal, v->proc()->id());
      next->state = Tcb::State::kReady;
      steal_penalty = NoteSteal(v, owner);
    }
  }
  if (next == nullptr) {
    ++counters_.idles;
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltIdle, v->proc()->id(),
               static_cast<uint64_t>(v->index), 0);
    }
    v->idle_spinning = true;
    backend_->OnIdle(v);
    return;
  }
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltDispatch, v->proc()->id(),
             static_cast<uint64_t>(v->index), static_cast<uint64_t>(next->id));
    TraceUlt(trace::Kind::kUltRunnable, v->proc()->id(),
             static_cast<uint64_t>(v->index), QueuedReady());
  }
  if (!scanned) {
    ChargeDispatch(v, next);
    return;
  }
  ChargeMgmt(v, kernel_->costs().ult_steal_scan + steal_penalty,
             [this, v, next] { ChargeDispatch(v, next); });
}

void FastThreads::ChargeDispatch(Vcpu* v, Tcb* t) {
  const sim::Duration charge = kernel_->costs().ult_dispatch + FlagCs(1) +
                               t->lazy_promote_charge +
                               (t->resume_check ? backend_->ResumeCheckOverhead() : 0);
  ChargeMgmt(v, charge, [this, v, t] {
    ++counters_.dispatches;
    t->resume_check = false;
    t->lazy_promote_charge = 0;
    ContinueThread(v, t);
  });
}

void FastThreads::ContinueThread(Vcpu* v, Tcb* t) {
  SA_CHECK(v->current == nullptr);
  SA_CHECK(v->bound);
  t->vcpu = v;
  v->current = t;
  backend_->OnThreadLoaded(v, t);
  if (t->saved.valid()) {
    t->state = Tcb::State::kRunning;
    v->proc()->Resume(t->saved);
    return;
  }
  if (t->waiting_lock != nullptr) {
    TrySpinAcquire(v, t);
    return;
  }
  t->state = Tcb::State::kRunning;
  StepAndInterpret(t);
}

void FastThreads::EnqueueReady(Vcpu* from, Tcb* t, bool front) {
  SA_CHECK(t->state != Tcb::State::kReady && t->state != Tcb::State::kRunning);
  t->state = Tcb::State::kReady;
  t->vcpu = nullptr;
  // Wake an idle virtual processor if one exists (it gets the thread for
  // immediate dispatch); otherwise enqueue locally (LIFO, cache locality).
  for (auto& w : vcpus_) {
    // span_open() distinguishes a truly idle-spinning processor from one in
    // transition (mid-downcall or being preempted).
    if (w->bound && w->idle_spinning && w->proc()->span_open()) {
      w->idle_spinning = false;
      w->ready.PushFront(t);
      if (TraceOn()) {
        TraceUlt(trace::Kind::kUltReady, w->proc()->id(),
                 static_cast<uint64_t>(t->id), QueuedReady());
        TraceUlt(trace::Kind::kUltIdleWake, w->proc()->id(),
                 static_cast<uint64_t>(w->index), static_cast<uint64_t>(t->id));
      }
      w->proc()->EndOpenSpan();
      Dispatch(w.get());
      return;
    }
  }
  // Lost-wakeup hardening: a vcpu whose backend is mid idle-downcall has
  // wakes blocked (idle_spinning false, span closed) but re-checks for work
  // via EndIdleTransition when the downcall returns.  Park the thread on
  // that vcpu's own list so the re-check finds it by construction — the
  // alternative (enqueue on `from`, rely on the re-check's remote-list scan)
  // made pickup depend on every transition path remembering to rescan.
  for (auto& w : vcpus_) {
    if (w->bound && w->idle_transition) {
      ++counters_.idle_handoffs;
      w->ready.PushFront(t);
      if (TraceOn()) {
        TraceUlt(trace::Kind::kUltReady, w->proc()->id(),
                 static_cast<uint64_t>(t->id), QueuedReady());
      }
      return;
    }
  }
  Vcpu* target = (from != nullptr) ? from : vcpus_[0].get();
  if (front) {
    target->ready.PushFront(t);
  } else {
    target->ready.PushBack(t);
  }
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltReady,
             target->bound ? target->proc()->id() : -1,
             static_cast<uint64_t>(t->id), QueuedReady());
  }
}

void FastThreads::BeginIdleTransition(Vcpu* v) {
  v->idle_spinning = false;  // block wakes during the downcall
  v->idle_transition = true;
}

void FastThreads::EndIdleTransition(Vcpu* v) {
  if (!v->idle_transition) {
    return;  // slot was unbound or rebound while the downcall was in flight
  }
  v->idle_transition = false;
  if (v->bound && v->current == nullptr) {
    Dispatch(v);  // picks up anything parked here (or elsewhere) meanwhile
  }
}

void FastThreads::NoteUnbound(Vcpu* v, int processor_id) {
  if (TraceOn()) {
    TraceUlt(trace::Kind::kUltUnbind, processor_id,
             static_cast<uint64_t>(v->index), 0);
  }
}

void FastThreads::StepAndInterpret(Tcb* t) {
  if (t->cs_recovery && t->cs_depth == 0) {
    FinishRecovery(t);
    return;
  }
  t->work->Step();
  Interpret(t);
}

void FastThreads::ResumeAfterKernel(Vcpu* v, Tcb* t) {
  SA_CHECK(t->state == Tcb::State::kBlockedKernel);
  if (v->kt->take_io_failed()) {
    t->work->ctx.last_io_ok = false;
  }
  t->state = Tcb::State::kRunning;
  ++runnable_;
  StepAndInterpret(t);
}

// ---------------------------------------------------------------------------
// Operation interpretation.
// ---------------------------------------------------------------------------

void FastThreads::Interpret(Tcb* t) {
  Vcpu* v = t->vcpu;
  SA_CHECK(v != nullptr);
  const rt::Op& op = t->work->ctx.op;

  switch (op.kind) {
    case rt::OpKind::kCompute:
      v->proc()->BeginSpan(op.duration, hw::SpanMode::kUser, /*preemptible=*/true,
                           /*critical_section=*/t->cs_depth > 0,
                           [this, t] { StepAndInterpret(t); });
      break;
    case rt::OpKind::kFork:
      DoFork(t);
      break;
    case rt::OpKind::kForkLazy:
      DoForkLazy(t);
      break;
    case rt::OpKind::kJoin:
      DoJoin(t);
      break;
    case rt::OpKind::kAcquire:
      DoAcquire(t);
      break;
    case rt::OpKind::kRelease:
      DoRelease(t);
      break;
    case rt::OpKind::kWait:
      DoWait(t);
      break;
    case rt::OpKind::kSignal:
      DoSignal(t);
      break;
    case rt::OpKind::kIo:
      BlockInKernel(v, t);
      kernel_->SysBlockIo(v->kt, op.duration);
      break;
    case rt::OpKind::kPageFault:
      if (as_->vm().IsResident(op.page)) {
        // Minor fault: a kernel trap on the backing context, then continue.
        kernel_->ChargeKernel(v->kt, kernel_->costs().kernel_trap,
                              [this, t] { StepAndInterpret(t); });
        break;
      }
      // Paging blocks exactly like I/O (the paper treats them uniformly).
      BlockInKernel(v, t);
      kernel_->SysPageFault(v->kt, op.page, op.duration, nullptr);
      break;
    case rt::OpKind::kKernelWait:
      KernelWait(v, t);
      break;
    case rt::OpKind::kKernelSignal:
      kernel_->SysEventSignal(v->kt, kernel_events_[static_cast<size_t>(op.sync_id)].get(),
                              [this, t] { StepAndInterpret(t); });
      break;
    case rt::OpKind::kYield:
      DoYield(t);
      break;
    case rt::OpKind::kDone:
      DoDone(t);
      break;
    case rt::OpKind::kNone:
      SA_CHECK_MSG(false, "workload suspended without an operation");
      break;
  }
}

// ---------------------------------------------------------------------------
// Kernel operations.  The kernel tells the two backends apart: a kernel
// thread blocks with the thread loaded and resumes it through RunVcpu; an
// activation's processor gets a fresh upcall, and the thread comes back in
// the unblocked event.
// ---------------------------------------------------------------------------

void FastThreads::BlockInKernel(Vcpu* v, Tcb* t) {
  --runnable_;
  t->state = Tcb::State::kBlockedKernel;
  // An activation carries its thread to the kernel as the user cookie, which
  // the unblocked upcall hands back.
  SA_CHECK(!v->kt->is_activation() || v->kt->activation()->user_cookie() == t);
}

void FastThreads::KernelWait(Vcpu* v, Tcb* t) {
  kern::KThread* kt = v->kt;
  kernel_->SysBlockWait(
      kt,
      [this, kt, t] {
        // The wait op stays current until the thread steps again.
        if (!kernel_events_[static_cast<size_t>(t->work->ctx.op.sync_id)]->Block(kt)) {
          return false;
        }
        --runnable_;
        t->state = Tcb::State::kBlockedKernel;
        return true;
      },
      [this, t] { StepAndInterpret(t); });
}

// ---------------------------------------------------------------------------

void FastThreads::DoFork(Tcb* parent) {
  Vcpu* v = parent->vcpu;
  rt::ThreadCtx& ctx = parent->work->ctx;
  rt::WorkThread* child_work =
      table_.Create(std::move(ctx.fork_fn), std::move(ctx.fork_name));
  const sim::Duration charge =
      kernel_->costs().ult_fork_prep + backend_->ForkOverhead() + FlagCs(2);
  // Per-fork lifecycle attribution: every eager fork is dispatched fresh
  // exactly once and exits exactly once, so those costs are part of what a
  // fork *buys* and what lazy inlining avoids.
  counters_.fork_time +=
      charge + kernel_->costs().ult_dispatch + kernel_->costs().ult_exit;
  ChargeMgmt(v, charge, [this, parent, child_work] {
    Vcpu* v2 = parent->vcpu;
    // The fork op stays current until the parent steps again.
    const int child_priority = parent->work->ctx.op.fork_priority;
    Tcb* child = AllocTcb(v2, child_work);
    child->priority = child_priority;
    if (child_priority != 0) {
      has_priorities_ = true;
    }
    ++runnable_;
    ++counters_.forks;
    EnqueueReady(v2, child);
    parent->work->ctx.last_forked_tid = child_work->tid();
    backend_->NotifyParallelism(v2, [this, parent] { StepAndInterpret(parent); });
  });
}

// Heartbeat promotion (DESIGN.md §17).
// ---------------------------------------------------------------------------

void FastThreads::DoForkLazy(Tcb* parent) {
  Vcpu* v = parent->vcpu;
  rt::ThreadCtx& ctx = parent->work->ctx;
  rt::WorkThread* child_work =
      table_.Create(std::move(ctx.fork_fn), std::move(ctx.fork_name));
  // Sequential-by-default: no TCB, no enqueue, no parallelism downcall —
  // just a frame on this processor's promotion stack, at procedure-call
  // scale.  The full fork cost is deferred to promotion (if any).
  counters_.fork_time += kernel_->costs().ult_lazy_push + FlagCs(1);
  ChargeMgmt(v, kernel_->costs().ult_lazy_push + FlagCs(1),
             [this, parent, child_work] {
               Vcpu* v2 = parent->vcpu;
               const uint64_t seq = lazy_seq_++;
               v2->lazy_frames.push_back(LazyFrame{child_work, seq});
               ++lazy_outstanding_;
               ++counters_.lazy_forks;
               kernel_->engine().TraceEmit(
                   trace::cat::kHeartbeat, trace::Kind::kHbLazyFork,
                   v2->bound ? v2->proc()->id() : -1, as_->id(),
                   static_cast<uint64_t>(child_work->tid()), seq);
               ArmHeartbeat();
               // Latent parallelism becomes real the moment a processor has
               // nothing to do: pushing a frame never wakes anyone, so an
               // already-idle vcpu would otherwise sit until the next beat.
               PromoteForIdleVcpu();
               parent->work->ctx.last_forked_tid = child_work->tid();
               StepAndInterpret(parent);
             });
}

void FastThreads::PromoteForIdleVcpu() {
  for (auto& w : vcpus_) {
    if (!w->bound || !w->idle_spinning || !w->proc()->span_open()) {
      continue;
    }
    LazyFrame frame;
    Vcpu* owner = nullptr;
    if (!PopOldestLazyFrame(&frame, &owner)) {
      return;
    }
    Tcb* t = PromoteFrame(frame, owner, trace::HbPromoteSource::kDrain,
                          w->proc()->id());
    EnqueueReady(owner, t);  // finds the idle vcpu and wakes it
    return;
  }
}

bool FastThreads::TakeLazyFrame(int tid, LazyFrame* out) {
  for (auto& v : vcpus_) {
    for (auto it = v->lazy_frames.begin(); it != v->lazy_frames.end(); ++it) {
      if (it->work->tid() == tid) {
        *out = *it;
        v->lazy_frames.erase(it);
        --lazy_outstanding_;
        return true;
      }
    }
  }
  return false;
}

bool FastThreads::PopOldestLazyFrame(LazyFrame* out, Vcpu** owner) {
  Vcpu* best = nullptr;
  for (auto& v : vcpus_) {
    if (v->lazy_frames.empty()) {
      continue;
    }
    if (best == nullptr ||
        v->lazy_frames.front().seq < best->lazy_frames.front().seq) {
      best = v.get();
    }
  }
  if (best == nullptr) {
    return false;
  }
  *out = best->lazy_frames.front();
  best->lazy_frames.erase(best->lazy_frames.begin());
  *owner = best;
  --lazy_outstanding_;
  return true;
}

Tcb* FastThreads::PromoteFrame(const LazyFrame& frame, Vcpu* home,
                               trace::HbPromoteSource source, int promoting_cpu) {
  Tcb* t = AllocTcb(home, frame.work);
  // The deferred fork: TCB allocation + enqueue, exactly what DoFork charges
  // up front.  Carried on the TCB and paid at its first dispatch (promotion
  // itself runs asynchronously — there is no open span to charge here).
  t->lazy_promote_charge =
      kernel_->costs().ult_fork_prep + backend_->ForkOverhead() + FlagCs(2);
  counters_.fork_time += t->lazy_promote_charge +  // paid at first dispatch
                         kernel_->costs().ult_dispatch +
                         kernel_->costs().ult_exit;
  ++runnable_;
  // Processor-demand promotions (a dry stealer, or an idle vcpu noticed at
  // push time) vs rate-limited heartbeat promotions.
  if (source == trace::HbPromoteSource::kBeat) {
    ++counters_.lazy_promotions;
  } else {
    ++counters_.lazy_steal_promotions;
  }
  kernel_->engine().TraceEmit(trace::cat::kHeartbeat, trace::Kind::kHbPromote,
                              promoting_cpu, as_->id(),
                              static_cast<uint64_t>(frame.work->tid()),
                              static_cast<uint64_t>(source));
  return t;
}

void FastThreads::ArmHeartbeat() {
  sim::Engine& engine = kernel_->engine();
  if (heartbeat_ == sim::kNoTimer || engine.timer_armed(heartbeat_)) {
    return;
  }
  engine.ArmTimer(heartbeat_, engine.now() + sim::Usec(config_.heartbeat_us));
}

void FastThreads::OnHeartbeat() {
  if (lazy_outstanding_ == 0) {
    return;  // nothing to promote; re-armed by the next lazy fork
  }
  LazyFrame frame;
  Vcpu* owner = nullptr;
  SA_CHECK(PopOldestLazyFrame(&frame, &owner));
  Tcb* t = PromoteFrame(frame, owner, trace::HbPromoteSource::kBeat,
                        owner->bound ? owner->proc()->id() : -1);
  EnqueueReady(owner, t);
  if (lazy_outstanding_ > 0) {
    ArmHeartbeat();
  }
}

void FastThreads::DoneInline(Tcb* t) {
  Vcpu* v = t->vcpu;
  rt::WorkThread* child = t->work;
  // Inline (pcall) return: pop back to the caller body at procedure-return
  // scale.  Joiners other than the inliner (threads that blocked on this tid
  // after the frame was taken) are woken exactly as a real exit would.
  const sim::Duration charge =
      kernel_->costs().ult_lazy_inline +
      static_cast<sim::Duration>(child->joiners.size()) * kernel_->costs().ult_signal;
  counters_.fork_time += charge;
  ChargeMgmt(v, charge, [this, t, child] {
    FinishWork(t->vcpu, child);
    child->impl = nullptr;
    table_.Release(child);
    t->work = t->work_stack.back();
    t->work_stack.pop_back();
    // The caller was suspended at its Join of this child; the inline return
    // satisfies it (a procedure return), so continue the caller directly.
    StepAndInterpret(t);
  });
}

// ---------------------------------------------------------------------------

void FastThreads::DoJoin(Tcb* t) {
  Vcpu* v = t->vcpu;
  const int target_tid = t->work->ctx.op.target_tid;
  if (table_.Finished(target_tid)) {
    counters_.fork_time += kernel_->costs().procedure_call;
    ChargeMgmt(v, kernel_->costs().procedure_call, [this, t] { StepAndInterpret(t); });
    return;
  }
  if (lazy_outstanding_ > 0) {
    LazyFrame frame;
    if (TakeLazyFrame(target_tid, &frame)) {
      // The join reached an unpromoted frame: run the child inline on this
      // TCB (pcall semantics) — the fork+join pair collapses to a procedure
      // call, which is the entire economic point of lazy forking.
      ++counters_.lazy_inlines;
      kernel_->engine().TraceEmit(trace::cat::kHeartbeat, trace::Kind::kHbInline,
                                  v->bound ? v->proc()->id() : -1, as_->id(),
                                  static_cast<uint64_t>(target_tid), frame.seq);
      rt::WorkThread* child = frame.work;
      counters_.fork_time += kernel_->costs().ult_lazy_inline + FlagCs(1);
      ChargeMgmt(v, kernel_->costs().ult_lazy_inline + FlagCs(1),
                 [this, t, child] {
                   t->work_stack.push_back(t->work);
                   t->work = child;
                   child->impl = t;
                   StepAndInterpret(t);
                 });
      return;
    }
  }
  const sim::Duration charge = kernel_->costs().ult_wait + backend_->WaitOverhead();
  counters_.fork_time +=
      charge + kernel_->costs().ult_signal + kernel_->costs().ult_dispatch;
  ChargeMgmt(v, charge, [this, t, target_tid] {
    if (!table_.Join(target_tid, t->work)) {  // finished while we were blocking
      StepAndInterpret(t);
      return;
    }
    BlockSync(t);
  });
}

void FastThreads::DoAcquire(Tcb* t) {
  Vcpu* v = t->vcpu;
  UltLock* lock = locks_[static_cast<size_t>(t->work->ctx.op.sync_id)].get();
  ChargeMgmt(v, kernel_->costs().ult_lock_acquire, [this, t, lock] {
    if (lock->kind == rt::LockKind::kSpin) {
      if (lock->owner == nullptr) {
        lock->owner = t;
        ++t->cs_depth;
        ++counters_.spin_acquires;
        StepAndInterpret(t);
        return;
      }
      ++counters_.spin_contended;
      t->waiting_lock = lock;
      lock->spinners.push_back(t);
      t->state = Tcb::State::kSpinning;
      t->actively_spinning = true;
      t->vcpu->proc()->BeginOpenSpan(hw::SpanMode::kSpin);
      return;
    }
    // Mutex: block at user level under contention.
    if (lock->owner == nullptr) {
      lock->owner = t;
      StepAndInterpret(t);
      return;
    }
    lock->waiters.PushBack(t);
    BlockSync(t);
  });
}

void FastThreads::TrySpinAcquire(Vcpu* v, Tcb* t) {
  UltLock* lock = t->waiting_lock;
  SA_CHECK(lock != nullptr);
  if (lock->owner == nullptr) {
    for (auto it = lock->spinners.begin(); it != lock->spinners.end(); ++it) {
      if (*it == t) {
        lock->spinners.erase(it);
        break;
      }
    }
    lock->owner = t;
    t->waiting_lock = nullptr;
    t->actively_spinning = false;
    ++t->cs_depth;
    ++counters_.spin_acquires;
    t->state = Tcb::State::kRunning;
    ChargeMgmt(v, kernel_->costs().ult_lock_acquire, [this, t] { StepAndInterpret(t); });
    return;
  }
  t->state = Tcb::State::kSpinning;
  t->actively_spinning = true;
  v->proc()->BeginOpenSpan(hw::SpanMode::kSpin);
}

void FastThreads::GrantSpinLock(UltLock* lock) {
  if (lock->owner != nullptr) {
    return;
  }
  for (auto it = lock->spinners.begin(); it != lock->spinners.end(); ++it) {
    Tcb* winner = *it;
    if (!winner->actively_spinning) {
      continue;  // lost its processor; it will re-check when resumed
    }
    lock->spinners.erase(it);
    lock->owner = winner;
    winner->waiting_lock = nullptr;
    winner->actively_spinning = false;
    ++winner->cs_depth;
    ++counters_.spin_acquires;
    Vcpu* wv = winner->vcpu;
    wv->proc()->EndOpenSpan();
    ChargeMgmt(wv, kernel_->costs().ult_lock_acquire, [this, winner] {
      winner->state = Tcb::State::kRunning;
      StepAndInterpret(winner);
    });
    return;
  }
}

void FastThreads::DoRelease(Tcb* t) {
  Vcpu* v = t->vcpu;
  UltLock* lock = locks_[static_cast<size_t>(t->work->ctx.op.sync_id)].get();
  ChargeMgmt(v, kernel_->costs().ult_lock_release, [this, t, lock] {
    SA_CHECK_MSG(lock->owner == t, "release by non-owner");
    lock->owner = nullptr;
    if (lock->kind == rt::LockKind::kSpin) {
      --t->cs_depth;
      SA_CHECK(t->cs_depth >= 0);
      GrantSpinLock(lock);
      StepAndInterpret(t);
      return;
    }
    Tcb* next = lock->waiters.PopFront();
    if (next != nullptr) {
      lock->owner = next;
      ++runnable_;
      next->resume_check = true;
      EnqueueReady(t->vcpu, next);
    }
    StepAndInterpret(t);
  });
}

void FastThreads::DoWait(Tcb* t) {
  Vcpu* v = t->vcpu;
  UltSem* sem = sems_[static_cast<size_t>(t->work->ctx.op.sync_id)].get();
  const sim::Duration charge = kernel_->costs().ult_wait + backend_->WaitOverhead();
  ++counters_.waits;
  ChargeMgmt(v, charge, [this, t, sem] {
    if (sem->pending > 0) {
      --sem->pending;
      StepAndInterpret(t);
      return;
    }
    sem->waiters.PushBack(t);
    BlockSync(t);
  });
}

void FastThreads::DoSignal(Tcb* t) {
  Vcpu* v = t->vcpu;
  UltSem* sem = sems_[static_cast<size_t>(t->work->ctx.op.sync_id)].get();
  ++counters_.signals;
  Tcb* waiter = sem->waiters.Front();
  const sim::Duration charge =
      kernel_->costs().ult_signal + (waiter != nullptr ? FlagCs(1) : 0);
  ChargeMgmt(v, charge, [this, t, sem] {
    Vcpu* v2 = t->vcpu;
    Tcb* next = sem->waiters.PopFront();
    if (next == nullptr) {
      ++sem->pending;
      StepAndInterpret(t);
      return;
    }
    ++runnable_;
    next->resume_check = true;
    EnqueueReady(v2, next);
    backend_->NotifyParallelism(v2, [this, t] { StepAndInterpret(t); });
  });
}

void FastThreads::DoYield(Tcb* t) {
  Vcpu* v = t->vcpu;
  ChargeMgmt(v, kernel_->costs().ult_dispatch, [this, t] {
    Vcpu* v2 = t->vcpu;
    t->state = Tcb::State::kReady;
    t->vcpu = nullptr;
    v2->ready.PushBack(t);  // back of the list: round-robin among peers
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltReady, v2->proc()->id(),
               static_cast<uint64_t>(t->id), QueuedReady());
    }
    v2->current = nullptr;
    backend_->OnThreadUnloaded(v2);
    Dispatch(v2);
  });
}

void FastThreads::BlockSync(Tcb* t) {
  Vcpu* v = t->vcpu;
  --runnable_;
  t->state = Tcb::State::kBlockedSync;
  v->current = nullptr;
  backend_->OnThreadUnloaded(v);
  Dispatch(v);
}

void FastThreads::FinishWork(Vcpu* v, rt::WorkThread* w) {
  table_.Finish(w);
  for (rt::WorkThread* jw : w->joiners) {
    Tcb* joiner = static_cast<Tcb*>(jw->impl);
    ++runnable_;
    joiner->resume_check = true;
    EnqueueReady(v, joiner);
  }
  w->joiners.clear();
}

void FastThreads::DoDone(Tcb* t) {
  if (!t->work_stack.empty()) {
    DoneInline(t);  // an inline (pcall) body finished, not the TCB itself
    return;
  }
  Vcpu* v = t->vcpu;
  rt::WorkThread* w = t->work;
  const sim::Duration charge = kernel_->costs().ult_exit + FlagCs(1) +
                               static_cast<sim::Duration>(w->joiners.size()) *
                                   kernel_->costs().ult_signal;
  ChargeMgmt(v, charge, [this, t, w] {
    Vcpu* v2 = t->vcpu;
    ++counters_.exits;
    --runnable_;
    t->state = Tcb::State::kDone;
    FinishWork(v2, w);
    v2->current = nullptr;
    backend_->OnThreadUnloaded(v2);
    FreeTcb(v2, t);
    table_.Release(w);
    Dispatch(v2);
  });
}

// ---------------------------------------------------------------------------
// Critical-section recovery (Section 3.3).
// ---------------------------------------------------------------------------

void FastThreads::RecoverOrReady(Vcpu* v, Tcb* t, sim::InlineFunction<void(Vcpu*)> after) {
  if (t->cs_depth > 0) {
    // The stopped thread holds a spinlock: continue it via a user-level
    // context switch until it exits the critical section (deadlock freedom;
    // the check happens before the handler takes any locks).
    ++kernel_->counters().cs_recoveries;
    t->cs_recovery = true;
    t->recovery_after = std::move(after);
    if (TraceOn()) {
      TraceUlt(trace::Kind::kUltCsRecover, v->proc()->id(),
               static_cast<uint64_t>(v->index), static_cast<uint64_t>(t->id));
    }
    ChargeMgmt(v, kernel_->costs().ult_dispatch, [this, v, t] { ContinueThread(v, t); });
    return;
  }
  t->resume_check = true;
  EnqueueReady(v, t);
  after(v);
}

void FastThreads::FinishRecovery(Tcb* t) {
  SA_CHECK(t->cs_recovery && t->cs_depth == 0);
  t->cs_recovery = false;
  Vcpu* v = t->vcpu;
  v->current = nullptr;
  backend_->OnThreadUnloaded(v);
  t->state = Tcb::State::kStopped;  // leaves kRunning before re-queueing
  t->resume_check = true;
  EnqueueReady(v, t);
  // Relinquish control back to the original upcall via a user-level switch.
  v->recovery_after = std::move(t->recovery_after);
  ChargeMgmt(v, kernel_->costs().ult_dispatch, [v] {
    sim::InlineFunction<void(Vcpu*)> after = std::move(v->recovery_after);
    after(v);
  });
}

}  // namespace sa::ult
