// The runtime base: hosts workload threads on one of the modelled systems,
// in the one address space it creates.

#ifndef SA_RT_RUNTIME_H_
#define SA_RT_RUNTIME_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/rt/workload.h"

namespace sa::kern {
class AddressSpace;
class Kernel;
enum class AsMode;
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
// continuation therefore never holds a record across a span; it names a
// thread that may finish meanwhile by tid (Finished, Join).  The tid index
// is kept in blocks of kBlockTids tids, and a block is freed once every tid
// in it is released, so the index too follows the live threads (and the
// blocks of long-lived ones) rather than every tid handed out.
class ThreadTable {
 public:
  // Small, since every runtime holds at least one block: 1,024 tenant
  // runtimes of ~56 threads each hold about what their vectors did.
  static constexpr size_t kBlockTids = 64;

  WorkThread* Create(WorkloadFn fn, std::string name) {
    const int tid = static_cast<int>(size_);
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
    if (size_ % kBlockTids == 0) {
      blocks_.push_back(std::make_unique<Block>());
      ++live_blocks_;
    }
    blocks_.back()->tids[size_ % kBlockTids] = w;
    ++size_;
    return w;
  }
  // True once thread `tid` finished, even if its record serves another
  // thread by now.
  bool Finished(int tid) const {
    const WorkThread* w = Find(tid);
    return w == nullptr || w->finished;
  }
  // The join commit: queues `joiner` to be woken when thread `tid`
  // finishes, or returns false and queues nothing if it already has.
  bool Join(int tid, WorkThread* joiner) {
    if (Finished(tid)) {
      return false;
    }
    Find(tid)->joiners.push_back(joiner);
    return true;
  }
  // `w`'s body ran to completion: marks it finished and counts it.
  void Finish(WorkThread* w) {
    w->finished = true;
    ++finished_;
    if (finish_counter_ != nullptr) {
      ++*finish_counter_;
    }
  }
  // Takes back a finished thread's record for reuse, and frees its tid's
  // block once every tid in it is released.  Its coroutine frame goes
  // before its closure, since a lambda body reads its captures through the
  // closure.
  void Release(WorkThread* w) {
    SA_CHECK(w->finished && w->joiners.empty());
    const auto tid = static_cast<size_t>(w->tid());
    std::unique_ptr<Block>& block = blocks_[tid / kBlockTids];
    block->tids[tid % kBlockTids] = nullptr;
    if (++block->released == kBlockTids) {
      block.reset();
      --live_blocks_;
    }
    w->prog = sim::Program();
    w->fn = nullptr;
    free_.push_back(w);
  }
  size_t size() const { return size_; }                // threads created
  size_t records() const { return records_.size(); }  // records made
  size_t finished() const { return finished_; }
  size_t index_blocks() const { return live_blocks_; }  // tid blocks held
  bool AllFinished() const { return finished_ == size_; }
  // Also counts every thread that finishes from now on into `*counter`.
  void CountFinishesInto(size_t* counter) { finish_counter_ = counter; }

  // One line per unfinished thread (tid, name, pending op) appended to
  // `out` — the per-runtime thread state in harness failure diagnostics.
  void DescribeUnfinished(std::string* out) const {
    for (const auto& block : blocks_) {
      if (block == nullptr) {
        continue;
      }
      for (const WorkThread* t : block->tids) {
        if (t == nullptr || t->finished) {
          continue;
        }
        *out += "  thread " + std::to_string(t->tid()) + " (" + t->name + "): " +
                (t->started ? OpKindName(t->ctx.op.kind) : "not started");
        *out += "\n";
      }
    }
  }

 private:
  // The records of kBlockTids consecutive tids, each null until its thread
  // is created and once it is released.
  struct Block {
    std::array<WorkThread*, kBlockTids> tids{};
    size_t released = 0;
  };

  // Thread `tid`'s record; null once the thread finished and its record was
  // released.
  WorkThread* Find(int tid) const {
    SA_CHECK(tid >= 0 && static_cast<size_t>(tid) < size_);
    const Block* block = blocks_[static_cast<size_t>(tid) / kBlockTids].get();
    return block == nullptr ? nullptr : block->tids[static_cast<size_t>(tid) % kBlockTids];
  }

  std::vector<std::unique_ptr<Block>> blocks_;        // by tid / kBlockTids; null once freed
  size_t size_ = 0;                                   // threads created
  size_t live_blocks_ = 0;
  std::vector<std::unique_ptr<WorkThread>> records_;  // owns every record
  std::vector<WorkThread*> free_;                     // released records
  size_t finished_ = 0;
  size_t* finish_counter_ = nullptr;
};

// The runtime the harness and workloads program against.  It creates the
// address space it runs in and owns the threads it hosts; a runtime kind
// supplies only how threads run and synchronize.
class Runtime {
 public:
  // Creates the address space `name` (of `mode` and `priority`) in `kernel`.
  Runtime(kern::Kernel* kernel, std::string name, kern::AsMode mode, int priority);
  virtual ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Synchronization object factories (call before Start).
  virtual int CreateLock(LockKind kind) = 0;
  virtual int CreateCond() = 0;         // counting semantics (signal remembered)
  virtual int CreateKernelEvent() = 0;  // forces kernel-level block/wakeup

  // Creates a thread to start with the runtime; returns its tid.
  virtual int Spawn(WorkloadFn fn, std::string name) = 0;

  // Boots the runtime: initial threads become runnable.
  virtual void Start() = 0;

  const std::string& name() const { return name_; }
  kern::AddressSpace* address_space() const { return as_; }
  ThreadTable& threads() { return threads_; }

  // True once every thread (spawned or forked) has finished.
  bool AllDone() const { return threads_.AllFinished(); }
  size_t threads_created() const { return threads_.size(); }
  size_t threads_finished() const { return threads_.finished(); }

 protected:
  kern::Kernel* const kernel_;

 private:
  const std::string name_;
  kern::AddressSpace* const as_;
  ThreadTable threads_;
};

}  // namespace sa::rt

#endif  // SA_RT_RUNTIME_H_
