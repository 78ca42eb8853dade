#include "src/rt/topaz_runtime.h"

#include <utility>

namespace sa::rt {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kNone:
      return "none";
    case OpKind::kCompute:
      return "compute";
    case OpKind::kFork:
      return "fork";
    case OpKind::kForkLazy:
      return "fork-lazy";
    case OpKind::kJoin:
      return "join";
    case OpKind::kAcquire:
      return "acquire";
    case OpKind::kRelease:
      return "release";
    case OpKind::kWait:
      return "wait";
    case OpKind::kSignal:
      return "signal";
    case OpKind::kIo:
      return "io";
    case OpKind::kPageFault:
      return "page-fault";
    case OpKind::kKernelWait:
      return "kernel-wait";
    case OpKind::kKernelSignal:
      return "kernel-signal";
    case OpKind::kYield:
      return "yield";
    case OpKind::kDone:
      return "done";
  }
  return "?";
}

TopazRuntime::TopazRuntime(kern::Kernel* kernel, std::string name, bool heavyweight,
                           int priority)
    : Runtime(kernel, std::move(name), kern::AsMode::kKernelThreads, priority) {
  address_space()->set_heavyweight(heavyweight);
}

TopazRuntime::~TopazRuntime() = default;

int TopazRuntime::CreateLock(LockKind kind) {
  locks_.push_back(std::make_unique<TzLock>());
  locks_.back()->kind = kind;
  return static_cast<int>(locks_.size()) - 1;
}

int TopazRuntime::CreateCond() {
  events_.push_back(std::make_unique<kern::KernelEvent>());
  return static_cast<int>(events_.size()) - 1;
}

int TopazRuntime::CreateKernelEvent() { return CreateCond(); }

int TopazRuntime::Spawn(WorkloadFn fn, std::string thread_name) {
  WorkThread* w = threads().Create(std::move(fn), std::move(thread_name));
  kern::KThread* kt = kernel_->CreateThread(address_space(), this, w);
  w->impl = kt;
  if (started_) {
    kernel_->StartThread(kt);
  } else {
    initial_.push_back(w);
  }
  return w->tid();
}

void TopazRuntime::Start() {
  SA_CHECK(!started_);
  started_ = true;
  for (WorkThread* w : initial_) {
    kernel_->StartThread(KtOf(w));
  }
  initial_.clear();
}

void TopazRuntime::RunOn(kern::KThread* kt) {
  if (kt->saved_span().valid()) {
    kt->processor()->Resume(kt->saved_span());
    return;
  }
  // First run, or return from a kernel block (the awaited op completed).
  // The kernel may have completed a blocking I/O with an injected error;
  // surface it to the workload before the thread steps (IoRead).
  WorkThread* w = WorkOf(kt);
  if (kt->take_io_failed()) {
    w->ctx.last_io_ok = false;
  }
  StepAndInterpret(w);
}

void TopazRuntime::StepAndInterpret(WorkThread* w) {
  w->Step();
  Interpret(w);
}

void TopazRuntime::Interpret(WorkThread* w) {
  kern::KThread* kt = KtOf(w);
  hw::Processor* proc = kt->processor();
  const Op& op = w->ctx.op;

  switch (op.kind) {
    case OpKind::kCompute: {
      proc->BeginSpan(op.duration, hw::SpanMode::kUser, /*preemptible=*/true,
                      /*critical_section=*/false, [this, w] { StepAndInterpret(w); });
      break;
    }

    // Kernel threads have no promotion stack: a lazy fork is a plain fork
    // (the lazy API is a hint; its sequential-by-default economics need the
    // user-level frame machinery).
    case OpKind::kForkLazy:
    case OpKind::kFork: {
      WorkThread* child =
          threads().Create(std::move(w->ctx.fork_fn), std::move(w->ctx.fork_name));
      kern::KThread* child_kt = kernel_->CreateThread(address_space(), this, child);
      child->impl = child_kt;
      kernel_->SysFork(kt, child_kt, [this, w, child] {
        w->ctx.last_forked_tid = child->tid();
        StepAndInterpret(w);
      });
      break;
    }

    case OpKind::kJoin: {
      // The check runs after the block span: by then the target may have
      // exited and its record serve another thread, so it goes by tid.
      const int tid = op.target_tid;
      kernel_->SysBlockWait(
          kt, [this, w, tid] { return threads().Join(tid, w); },
          [this, w] { StepAndInterpret(w); });
      break;
    }

    case OpKind::kAcquire:
      DoAcquire(w, locks_[static_cast<size_t>(op.sync_id)].get());
      break;
    case OpKind::kRelease:
      DoRelease(w, locks_[static_cast<size_t>(op.sync_id)].get());
      break;
    case OpKind::kWait:
    case OpKind::kKernelWait: {
      kern::KernelEvent* ev = events_[static_cast<size_t>(op.sync_id)].get();
      kernel_->SysBlockWait(
          kt, [ev, kt] { return ev->Block(kt); }, [this, w] { StepAndInterpret(w); });
      break;
    }
    case OpKind::kSignal:
    case OpKind::kKernelSignal:
      kernel_->SysEventSignal(kt, events_[static_cast<size_t>(op.sync_id)].get(),
                              [this, w] { StepAndInterpret(w); });
      break;

    case OpKind::kIo:
      kernel_->SysBlockIo(kt, op.duration);
      break;

    case OpKind::kPageFault:
      kernel_->SysPageFault(kt, op.page, op.duration,
                            [this, w] { StepAndInterpret(w); });
      break;

    case OpKind::kYield:
      kernel_->SysYield(kt);
      break;

    case OpKind::kDone:
      threads().Finish(w);
      WakeJoinersThenExit(w, 0);
      break;

    case OpKind::kNone:
      SA_CHECK_MSG(false, "workload suspended without an operation");
      break;
  }
}

void TopazRuntime::DoAcquire(WorkThread* w, TzLock* lock) {
  // User-level test-and-set; kernel involved only under contention.
  KtOf(w)->processor()->BeginSpan(
      kernel_->costs().kt_lock_tas, hw::SpanMode::kUser, /*preemptible=*/true,
      /*critical_section=*/false, [this, w, lock] {
        if (lock->owner == nullptr) {
          lock->owner = w;
          StepAndInterpret(w);
          return;
        }
        kernel_->SysBlockWait(
            KtOf(w),
            [w, lock] {
              if (lock->owner == nullptr) {
                lock->owner = w;
                return false;
              }
              lock->waiters.push_back(w);
              return true;
            },
            [this, w] { StepAndInterpret(w); });
      });
}

void TopazRuntime::DoRelease(WorkThread* w, TzLock* lock) {
  KtOf(w)->processor()->BeginSpan(
      kernel_->costs().kt_lock_tas, hw::SpanMode::kUser, /*preemptible=*/true,
      /*critical_section=*/false, [this, w, lock] {
        SA_CHECK_MSG(lock->owner == w, "release by non-owner");
        if (lock->waiters.empty()) {
          lock->owner = nullptr;
          StepAndInterpret(w);
          return;
        }
        WorkThread* next = lock->waiters.front();
        lock->waiters.pop_front();
        lock->owner = next;  // direct handoff
        kernel_->SysWakeup(KtOf(w), KtOf(next), [this, w] { StepAndInterpret(w); });
      });
}

void TopazRuntime::WakeJoinersThenExit(WorkThread* w, size_t index) {
  if (index >= w->joiners.size()) {
    w->joiners.clear();
    kernel_->SysExit(KtOf(w));
    threads().Release(w);  // the exit's kernel span no longer needs it
    return;
  }
  WorkThread* joiner = w->joiners[index];
  kernel_->SysWakeup(KtOf(w), KtOf(joiner),
                     [this, w, index] { WakeJoinersThenExit(w, index + 1); });
}

}  // namespace sa::rt
