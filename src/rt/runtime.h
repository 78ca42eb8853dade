// Abstract runtime: hosts workload threads on one of the modelled systems.

#ifndef SA_RT_RUNTIME_H_
#define SA_RT_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "src/rt/workload.h"

namespace sa::kern {
class AddressSpace;
}  // namespace sa::kern

namespace sa::rt {

// One workload thread: coroutine + trap cell + join bookkeeping.  Runtimes
// attach their private per-thread state via `impl`.
struct WorkThread {
  WorkThread(int tid, WorkloadFn fn, std::string name)
      : ctx(tid), fn(std::move(fn)), name(std::move(name)) {}

  ThreadCtx ctx;
  WorkloadFn fn;
  std::string name;
  sim::Program prog;
  bool started = false;
  bool finished = false;
  std::vector<WorkThread*> joiners;
  void* impl = nullptr;

  int tid() const { return ctx.tid(); }

  // Advances the coroutine one trap; returns the new pending op kind
  // (kDone when the body ran to completion).
  OpKind Step() {
    if (!started) {
      prog = fn(ctx);
      started = true;
    }
    ctx.op = Op{};
    prog.Resume();
    if (prog.done()) {
      ctx.op.kind = OpKind::kDone;
    }
    return ctx.op.kind;
  }
};

// A runtime's threads.  Thread ids count up and are never reused, but
// records are: once nothing the runtime runs holds a finished thread, the
// runtime releases its record and the next Create reuses it, so records
// follow the peak number of live threads, not every thread ever run.  A
// continuation therefore never holds a record across a span; it looks a
// thread that may finish meanwhile up again by tid (Find).
class ThreadTable {
 public:
  WorkThread* Create(WorkloadFn fn, std::string name) {
    const int tid = static_cast<int>(by_tid_.size());
    WorkThread* w;
    if (free_.empty()) {
      records_.push_back(std::make_unique<WorkThread>(tid, std::move(fn), std::move(name)));
      w = records_.back().get();
    } else {
      w = free_.back();
      free_.pop_back();
      w->ctx.Reset(tid);
      w->fn = std::move(fn);
      w->name = std::move(name);
      w->started = false;
      w->finished = false;
      w->impl = nullptr;
    }
    by_tid_.push_back(w);
    return w;
  }
  // Thread `tid`'s record; null once the thread finished and its record was
  // released.
  WorkThread* Find(int tid) const {
    SA_CHECK(tid >= 0 && tid < static_cast<int>(by_tid_.size()));
    return by_tid_[static_cast<size_t>(tid)];
  }
  // Takes back a finished thread's record for reuse.  Its coroutine frame
  // goes before its closure, since a lambda body reads its captures through
  // the closure.
  void Release(WorkThread* w) {
    SA_CHECK(w->finished && w->joiners.empty());
    by_tid_[static_cast<size_t>(w->tid())] = nullptr;
    w->prog = sim::Program();
    w->fn = nullptr;
    free_.push_back(w);
  }
  size_t size() const { return by_tid_.size(); }          // threads created
  size_t records() const { return records_.size(); }      // records made
  size_t finished() const { return finished_; }
  void NoteFinished() {
    ++finished_;
    if (finish_counter_ != nullptr) {
      ++*finish_counter_;
    }
  }
  bool AllFinished() const { return finished_ == by_tid_.size(); }
  // Also counts every thread that finishes from now on into `*counter`.
  void CountFinishesInto(size_t* counter) { finish_counter_ = counter; }

  // One line per unfinished thread (tid, name, pending op) appended to
  // `out` — the per-runtime thread state in harness failure diagnostics.
  void DescribeUnfinished(std::string* out) const {
    for (const WorkThread* t : by_tid_) {
      if (t == nullptr || t->finished) {
        continue;
      }
      *out += "  thread " + std::to_string(t->tid()) + " (" + t->name + "): " +
              (t->started ? OpKindName(t->ctx.op.kind) : "not started");
      *out += "\n";
    }
  }

 private:
  std::vector<WorkThread*> by_tid_;                   // null once released
  std::vector<std::unique_ptr<WorkThread>> records_;  // owns every record
  std::vector<WorkThread*> free_;                     // released records
  size_t finished_ = 0;
  size_t* finish_counter_ = nullptr;
};

// The runtime interface the harness and workloads program against.
class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual const std::string& name() const = 0;

  // Synchronization object factories (call before Start).
  virtual int CreateLock(LockKind kind) = 0;
  virtual int CreateCond() = 0;         // counting semantics (signal remembered)
  virtual int CreateKernelEvent() = 0;  // forces kernel-level block/wakeup

  // Creates a thread to start with the runtime; returns its tid.
  virtual int Spawn(WorkloadFn fn, std::string name) = 0;

  // Boots the runtime: initial threads become runnable.
  virtual void Start() = 0;

  // True once every thread (spawned or forked) has finished.
  virtual bool AllDone() const = 0;

  virtual size_t threads_created() const = 0;
  virtual size_t threads_finished() const = 0;
  // Makes the runtime also count every thread that finishes from now on
  // into `*counter` (the harness's completion and stall checks).
  virtual void CountFinishesInto(size_t* counter) = 0;

  // Appends one line per unfinished thread to `out` (harness failure
  // diagnostics).  Default: nothing to describe.
  virtual void DescribeThreads(std::string* out) const { (void)out; }

  // The kernel address space hosting this runtime, when it has exactly one
  // (the harness uses it to target lifecycle faults and to drop reaped
  // spaces from run completion).  Null for runtimes without a space.
  virtual kern::AddressSpace* address_space() { return nullptr; }
};

}  // namespace sa::rt

#endif  // SA_RT_RUNTIME_H_
