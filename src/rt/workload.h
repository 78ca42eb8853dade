// Workload programming interface.
//
// Application code (benchmark microprograms, the N-body application, the
// examples) is written once against this interface and runs unchanged on all
// four runtimes: Topaz kernel threads, Ultrix-style processes, original
// FastThreads (user-level threads on kernel threads), and FastThreads on
// scheduler activations — exactly the paper's methodology (Section 5.3 runs
// the same application on each system).
//
// A thread body is a coroutine:
//
//   sim::Program Worker(rt::ThreadCtx& t) {
//     co_await t.Compute(sim::Usec(300));
//     co_await t.Acquire(queue_lock);
//     co_await t.Compute(sim::Usec(5));      // inside the critical section
//     co_await t.Release(queue_lock);
//     co_await t.Io(sim::Msec(50));          // blocks in the kernel
//   }
//
// Each `co_await` is a trap into the hosting runtime, which charges virtual
// time and schedules the continuation.

#ifndef SA_RT_WORKLOAD_H_
#define SA_RT_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

#include "src/sim/program.h"
#include "src/sim/time.h"

namespace sa::rt {

class ThreadCtx;

using WorkloadFn = std::function<sim::Program(ThreadCtx&)>;

enum class OpKind {
  kNone,
  kCompute,     // busy computation for `duration`
  kFork,        // create a thread running ThreadCtx::fork_fn
  kForkLazy,    // lazy fork: push a promotable frame for it (pcall)
  kJoin,        // wait for thread `target_tid` to finish
  kAcquire,     // acquire lock `sync_id`
  kRelease,     // release lock `sync_id`
  kWait,        // wait on condition `sync_id`
  kSignal,      // wake one waiter of condition `sync_id`
  kIo,          // block in the kernel for `duration` (device)
  kPageFault,   // touch virtual page `page` (blocks for `duration` if absent)
  kKernelWait,  // wait on kernel event `sync_id` (forces kernel involvement)
  kKernelSignal,  // signal kernel event `sync_id`
  kYield,       // give up the processor voluntarily
  kDone,        // thread body finished (implicit)
};

const char* OpKindName(OpKind kind);

// Lock flavours (paper Section 3.3 / 4.2): spinlocks busy-wait and their
// critical sections are what preemption can strand; mutexes block the thread
// at user level (ULT runtimes) or in the kernel (kernel-thread runtimes).
enum class LockKind {
  kSpin,
  kMutex,
};

// A trap's operands.  Plain data, so the reset before every step writes a
// few words; a fork's body and name wait in ThreadCtx instead.
struct Op {
  OpKind kind = OpKind::kNone;
  sim::Duration duration = 0;
  int sync_id = -1;
  int target_tid = -1;
  int64_t page = 0;
  int fork_priority = 0;
};
static_assert(std::is_trivially_copyable_v<Op>);

// Per-thread workload context: op cell + awaitable builders.  The hosting
// runtime owns one per thread and reads `op` after each coroutine step.
class ThreadCtx {
 public:
  explicit ThreadCtx(int tid) : tid_(tid) {}
  ThreadCtx(const ThreadCtx&) = delete;
  ThreadCtx& operator=(const ThreadCtx&) = delete;

  int tid() const { return tid_; }

  // A fresh context for thread `tid` (a reused thread record).
  void Reset(int tid) {
    tid_ = tid;
    op = Op{};
    fork_fn = nullptr;
    fork_name.clear();
    last_forked_tid = -1;
    last_io_ok = true;
  }

  // --- awaitable builders (each records the op and suspends) ---
  sim::TrapAwait Compute(sim::Duration d) {
    op.kind = OpKind::kCompute;
    op.duration = d;
    return {};
  }
  sim::TrapAwait Acquire(int lock_id) {
    op.kind = OpKind::kAcquire;
    op.sync_id = lock_id;
    return {};
  }
  sim::TrapAwait Release(int lock_id) {
    op.kind = OpKind::kRelease;
    op.sync_id = lock_id;
    return {};
  }
  sim::TrapAwait Wait(int cond_id) {
    op.kind = OpKind::kWait;
    op.sync_id = cond_id;
    return {};
  }
  sim::TrapAwait Signal(int cond_id) {
    op.kind = OpKind::kSignal;
    op.sync_id = cond_id;
    return {};
  }
  sim::TrapAwait Io(sim::Duration d) {
    op.kind = OpKind::kIo;
    op.duration = d;
    return {};
  }
  // I/O whose result the thread observes.  Normally resumes with true; under
  // fault injection the kernel may exhaust its retry budget and complete the
  // operation with an error, which resumes the thread with false (the
  // fire-and-forget Io() above ignores the result).
  struct IoAwait {
    ThreadCtx* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    bool await_resume() const noexcept { return ctx->last_io_ok; }
  };
  IoAwait IoRead(sim::Duration d) {
    op.kind = OpKind::kIo;
    op.duration = d;
    last_io_ok = true;
    return IoAwait{this};
  }
  // Touches virtual page `page`; a non-resident page blocks in the kernel
  // for `latency` (and is resident afterwards).
  sim::TrapAwait PageFault(int64_t page, sim::Duration latency) {
    op.kind = OpKind::kPageFault;
    op.page = page;
    op.duration = latency;
    return {};
  }
  sim::TrapAwait KernelWait(int event_id) {
    op.kind = OpKind::kKernelWait;
    op.sync_id = event_id;
    return {};
  }
  sim::TrapAwait KernelSignal(int event_id) {
    op.kind = OpKind::kKernelSignal;
    op.sync_id = event_id;
    return {};
  }
  sim::TrapAwait Yield() {
    op.kind = OpKind::kYield;
    return {};
  }
  sim::TrapAwait Join(int tid) {
    op.kind = OpKind::kJoin;
    op.target_tid = tid;
    return {};
  }

  // Fork returns the child's thread id from await_resume.
  struct ForkAwait {
    ThreadCtx* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    int await_resume() const noexcept { return ctx->last_forked_tid; }
  };
  // `priority`: larger runs first (user-level scheduling policy; on the
  // scheduler-activation backend the thread system will even ask the kernel
  // to interrupt one of its own processors running lower-priority work —
  // the paper's "no high-priority thread waits while a low-priority thread
  // runs" functionality goal).
  ForkAwait Fork(WorkloadFn fn, std::string name = "", int priority = 0) {
    op.kind = OpKind::kFork;
    op.fork_priority = priority;
    fork_fn = std::move(fn);
    fork_name = std::move(name);
    return ForkAwait{this};
  }

  // Lazy fork (pcall): the child is sequential by default — a frame on the
  // forking processor's promotion stack, promoted into a real thread by the
  // heartbeat or by a work-stealing processor, or run inline when this
  // thread Joins it first (DESIGN.md §17).  Returns the child's tid; every
  // lazily forked child MUST eventually be Joined, since the join is what
  // runs a never-promoted frame.  Runtimes without a promotion stack
  // (kernel-thread systems) treat this as a plain Fork.
  ForkAwait ForkLazy(WorkloadFn fn, std::string name = "") {
    op.kind = OpKind::kForkLazy;
    op.fork_priority = 0;  // lazy frames carry no priority (promoted at 0)
    fork_fn = std::move(fn);
    fork_name = std::move(name);
    return ForkAwait{this};
  }

  // The pending trap, read (and reset) by the hosting runtime.
  Op op;
  // A pending fork's body and name, which the hosting runtime moves into
  // the child's record.
  WorkloadFn fork_fn;
  std::string fork_name;
  // Out-parameter of the last fork, written by the runtime before resuming.
  int last_forked_tid = -1;
  // Result of the last blocking I/O, written by the runtime before resuming
  // (false = the kernel completed it with an error; see IoRead).
  bool last_io_ok = true;

 private:
  int tid_;
};

}  // namespace sa::rt

#endif  // SA_RT_WORKLOAD_H_
