// A native M:N user-level thread ("fiber") library for x86-64 Linux.
//
// This is real code, not simulation: fibers run on a pool of kernel worker
// threads and switch contexts entirely at user level (src/fibers/context.h).
// It exists to demonstrate the paper's Table-1 claim on modern hardware —
// user-level thread operations cost on the order of a procedure call, one
// to two orders of magnitude less than kernel threads (std::thread) and
// three to four less than processes (fork) — see bench_fibers_native.
//
// Design follows the same shape as the simulated FastThreads (paper
// Section 4.2): each worker owns a lock-free ready deque
// (src/fibers/work_stealing_deque.h) that it pushes and pops without
// synchronization in the common case, plus an unlocked free list of recycled
// fiber stacks; a worker touches shared state only when its own deque runs
// dry — first a global overflow queue (fed by non-worker threads), then by
// stealing from other workers in random order, and finally by parking on a
// per-worker condition variable until a PushRunnable wakes exactly one
// parked worker.  The pool-wide mutex survives only for external joins, the
// overflow queue, fiber-slab allocation and shutdown.  (It deliberately does
// NOT get scheduler activations: that requires the kernel support this
// repository simulates — the point of the paper.)
//
// A thread outside the pool forks at user-level cost too.  Its Join first
// spins, for about one kernel wake-up and only while fewer workers are
// unparked than the affinity mask has CPUs (so the spinner takes no CPU the
// fiber needs), and sleeps on the pool's condition variable only after
// that: the joiner's version of FastThreads' idle hysteresis (Section 4.2),
// where an idle processor spins a while before it goes back to the kernel.
// A fiber spawned from outside goes back to the shared free list the next
// external Spawn draws from, so a fork-join loop reuses one or two stacks.

#ifndef SA_FIBERS_FIBER_POOL_H_
#define SA_FIBERS_FIBER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/fibers/context.h"
#include "src/fibers/spinlock.h"
#include "src/trace/trace.h"

namespace sa::fibers {

class FiberPool;

namespace internal {

struct Fiber {
  std::unique_ptr<char[]> stack;
  size_t stack_size = 0;
  ContextSp sp = nullptr;
  std::function<void()> fn;
  FiberPool* pool = nullptr;

  // Join state.  join_mu is per-fiber so the join/completion handshake never
  // touches the pool-wide mutex; done and generation are atomic because a
  // stale handle may probe them while the spawn path recycles the fiber.
  // A SpinLock (not std::mutex) because Join holds it across the switch to
  // the scheduler stack — see spinlock.h.
  SpinLock join_mu;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> generation{0};  // guards handles across recycling
  Fiber* joiners_head = nullptr;  // fibers blocked in Join; guarded by join_mu
  Fiber* next_joiner = nullptr;   // intrusive link in another fiber's joiners
  std::atomic<int> ext_waiters{0};  // external threads blocked in Join on us
  bool external = false;  // spawned from outside the pool (set by Spawn)

  bool exiting = false;       // set just before the final switch-out
  void* tsan_fiber = nullptr;  // ThreadSanitizer fiber context (if enabled)
  void* asan_fake_stack = nullptr;  // AddressSanitizer fake-stack save slot
};

struct WorkerState;  // per-kernel-thread scheduler state (fiber_pool.cc)
struct LazyTask;     // an unpromoted lazy spawn (fiber_pool.cc)

}  // namespace internal

// Handle to a spawned fiber; valid until joined.
class FiberHandle {
 public:
  FiberHandle() = default;

 private:
  friend class FiberPool;
  FiberHandle(internal::Fiber* fiber, uint64_t generation)
      : fiber_(fiber), generation_(generation) {}
  internal::Fiber* fiber_ = nullptr;
  uint64_t generation_ = 0;
};

// Handle to a lazily spawned task (SpawnLazy); must be passed to JoinLazy
// exactly once — the join is what runs a never-promoted task.
class LazyHandle {
 public:
  LazyHandle() = default;

 private:
  friend class FiberPool;
  explicit LazyHandle(internal::LazyTask* task) : task_(task) {}
  internal::LazyTask* task_ = nullptr;
};

// Aggregated scheduler counters (summed across workers); see stats().
struct FiberPoolStats {
  uint64_t local_pops = 0;     // fibers taken from the owner's own deque
  uint64_t overflow_pops = 0;  // fibers taken from the global overflow queue
  uint64_t steals = 0;         // fibers stolen from another worker's deque
  uint64_t steal_attempts = 0;  // victim deques probed (hit or miss)
  uint64_t parks = 0;          // times a worker blocked with nothing to run
  uint64_t wakeups = 0;        // parked workers woken by PushRunnable
  // Lazy (pcall) spawning — see SpawnLazy.  Every lazy_spawn resolves as
  // exactly one of {lazy_promotions, lazy_inlines}.
  uint64_t lazy_spawns = 0;      // frames pushed by SpawnLazy
  uint64_t lazy_promotions = 0;  // frames promoted into real fibers
  uint64_t lazy_inlines = 0;     // frames run inline by JoinLazy
  // Timed parks that woke, while no searching worker was out, to work a
  // push should have woken a worker for: any visible work under the eager
  // wake policy, overflow work under the conservative one (which leaves a
  // worker-local push to its pusher, so a timed park finding that is the
  // policy, not a lost wakeup).  With the push/park Dekker handshake in
  // place this must stay zero; a nonzero count means a lost wakeup happened
  // and only the timeout backstop saved it (regression canary for
  // fibers_wakeup_test).
  uint64_t timeout_rescues = 0;
  // External joins (from threads outside the pool) that found the fiber
  // unfinished.  Each either saw it finish while spinning (ext_joins_spun)
  // or slept on the pool's condition variable (ext_joins_slept);
  // ext_join_spin_timeouts counts the sleepers that spun first.
  uint64_t ext_joins_spun = 0;
  uint64_t ext_joins_slept = 0;
  uint64_t ext_join_spin_timeouts = 0;
  uint64_t fibers_created = 0;  // fiber records (each with a stack) made
  // A gauge, not a summed counter: the workers published in the parking lot
  // when stats() ran.  An idle pool reads num_workers(); a park being
  // claimed can leave it one off for an instant.
  int parked_workers = 0;
};

// Construction options.
struct FiberPoolOptions {
  size_t stack_size = 128 * 1024;  // per-fiber stack
  // Whether worker-local pushes wake a parked worker whenever one exists:
  // -1 = auto (eager when the affinity mask holds several CPUs, conservative
  // on one — the pusher will dispatch its own push, so a wake just
  // time-slices one processor), 0 = conservative, 1 = eager.  Tests force 1
  // to exercise the push/park wakeup handshake deterministically regardless
  // of host shape.
  int wake_eagerly = -1;
};

class FiberPool {
 public:
  // Starts `workers` kernel threads.  stack_size is per fiber.
  explicit FiberPool(int workers, size_t stack_size = 128 * 1024);
  FiberPool(int workers, const FiberPoolOptions& options);
  ~FiberPool();
  FiberPool(const FiberPool&) = delete;
  FiberPool& operator=(const FiberPool&) = delete;

  // Creates a fiber; it becomes runnable immediately.  When called from a
  // fiber, the child lands in the calling worker's own deque and free fibers
  // are recycled from the worker's local list without locks.
  FiberHandle Spawn(std::function<void()> fn);

  // Waits until the fiber finishes.  Callable from a fiber (blocks the
  // fiber, the worker keeps running others) or from an external thread
  // (blocks the thread).
  void Join(FiberHandle handle);

  // Lazy (pcall) spawn — the native analogue of the simulated heartbeat
  // promotion (DESIGN.md §17).  The task starts as a frame on the calling
  // worker's promotion stack, not a fiber: no stack allocation, no deque
  // push, no wakeup.  It becomes a real fiber only if promoted — by the
  // owner's dispatch-loop tick (the native stand-in for the heartbeat), by
  // a worker that runs dry (steal-side promotion), or by the pre-park drain
  // (no worker parks while frames are outstanding).  Must be called from a
  // fiber of this pool.
  LazyHandle SpawnLazy(std::function<void()> fn);

  // Resolves a lazy spawn: runs a still-unpromoted task inline on the
  // calling fiber's stack (a plain procedure call — the entire point), or
  // joins the promoted fiber.  Must be called exactly once per handle, from
  // a fiber of this pool.  Join the newest spawns first so unpromoted
  // frames inline while thieves take the oldest.
  void JoinLazy(LazyHandle handle);

  // From inside a fiber: give up the processor to another runnable fiber.
  static void Yield();

  // From inside a fiber: the pool running the current fiber (nullptr if not
  // on a fiber).
  static FiberPool* Current();

  // The currently running fiber on this worker (nullptr outside fibers).
  // For synchronization primitives (src/fibers/sync.h).
  static internal::Fiber* CurrentFiber();

  // Makes a blocked fiber runnable again (synchronization primitives only).
  // Callable from any thread, including non-worker threads.
  void WakeFiber(internal::Fiber* fiber) { PushRunnable(fiber); }

  // Switches from the current fiber back to the worker's scheduler context;
  // `post(a, b)` runs on the scheduler stack after the switch (so a fiber
  // can safely publish itself to a wait queue it is no longer running on).
  // A raw function pointer, not std::function: this sits on the
  // context-switch hot path and no post action needs more than two pointers.
  using PostFn = void (*)(void* a, void* b);
  void SwitchOut(PostFn post, void* a, void* b);

  // The ubiquitous post action: release `lock` once off the fiber's stack.
  // Takes the fiber library's SpinLock: a pthread mutex must not be
  // released from a different (TSan-logical) thread than locked it.
  void SwitchOutUnlock(SpinLock* lock);

  // Number of user-level context switches performed so far (summed across
  // workers; each worker counts its own switches without atomic RMWs).
  uint64_t switches() const;

  // Scheduler counters summed across workers (monotonic over the pool's
  // life), plus the parked_workers gauge.
  FiberPoolStats stats() const;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Event tracing (cat::kFibers, host monotonic clock).  The buffer must
  // outlive the pool; read it back only after the pool is destroyed (workers
  // emit concurrently).  Pass nullptr to detach.  Safe while workers run:
  // they pick the pointer up with an acquire load at each emission site.
  void set_tracer(trace::TraceBuffer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

 private:
  friend class FiberMutex;
  friend class FiberSemaphore;
  friend struct internal::WorkerState;  // names the private Worker type
  friend struct internal::LazyTask;     // likewise (owning worker pointer)
  struct Worker;
  static void FiberMain(void* arg);

  void WorkerLoop(int index);
  trace::TraceBuffer* tracer() const { return tracer_.load(std::memory_order_acquire); }

  // Dispatch: local deque first, then overflow, then stealing, then park.
  internal::Fiber* PopRunnable(Worker* w);
  internal::Fiber* PopOverflow(Worker* w);
  internal::Fiber* TrySteal(Worker* w);
  // Promotes one outstanding lazy frame (oldest-first, own stack preferred)
  // into a real fiber on `w`'s deque.  Returns false if none was pending.
  bool PromoteOneLazy(Worker* w);
  bool AnyWorkVisible(const Worker* w) const;
  void ParkWorker(Worker* w);
  // Clears `w`'s published park (true -> false) and takes it out of
  // num_parked_: the only decrement.  False if the flag was already clear.
  bool ClaimPark(Worker* w);
  void WakeOne();
  void PushRunnable(internal::Fiber* fiber);

  // Fiber recycling: per-worker free lists with a global overflow.
  internal::Fiber* AllocFiber();
  void RecycleFiber(internal::Fiber* fiber);

  // External Join's first phase: spins until the fiber finishes (true), the
  // time bound runs out or a CPU is no longer free for spinning (false).
  bool SpinJoin(const FiberHandle& handle);
  // Whether a thread can spin beside the unparked workers without taking a
  // CPU one of them needs: fewer workers unparked than CPUs in the mask.
  bool CpuFreeForSpin() const {
    return num_workers() - num_parked_.load(std::memory_order_relaxed) < cpus_;
  }

  const size_t stack_size_;
  const int cpus_;  // CPUs in the constructing thread's affinity mask
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<trace::TraceBuffer*> tracer_{nullptr};

  std::atomic<bool> stopping_{false};
  std::atomic<int> num_parked_{0};
  // Workers woken from the parking lot that have not yet found work.  At
  // most one wake is in flight at a time (Go-style): wakers skip WakeOne
  // while a searcher exists, and a searcher that finds work wakes the next
  // worker itself if more work is visible.
  std::atomic<int> num_searching_{0};
  // Spin-scan rounds (with a sched_yield between them) before parking.
  int spin_rounds_ = 0;
  // On multi-CPU hosts, worker-local pushes wake a parked worker whenever
  // one exists (parallel drain).  On a single CPU that wake buys nothing —
  // the pusher itself will dispatch the work — so local pushes only wake
  // when every worker is parked; the timed park covers redistribution if a
  // worker ever blocks in a real syscall.
  bool wake_eagerly_ = true;
  std::atomic<size_t> overflow_size_{0};
  // Outstanding lazy frames across all workers: the single relaxed load
  // that keeps SpawnLazy entirely off the dispatch hot path when unused.
  std::atomic<int64_t> lazy_outstanding_{0};
  std::atomic<uint64_t> lazy_seq_{0};  // global age stamp (oldest-first)
  // Fibers spawned from non-worker threads; worker-side spawns and all
  // completions are tracked in per-worker deltas (summed at destruction).
  std::atomic<int64_t> live_external_{0};
  // External-join and slab counters (FiberPoolStats); joins come from any
  // thread, so these take atomic adds.
  std::atomic<uint64_t> ext_joins_spun_{0};
  std::atomic<uint64_t> ext_joins_slept_{0};
  std::atomic<uint64_t> ext_join_spin_timeouts_{0};
  std::atomic<uint64_t> fibers_created_{0};  // written under mu_

  // Cold state: external joins, overflow run queue, fiber-slab ownership.
  std::mutex mu_;
  std::condition_variable joiner_cv_;  // external threads waiting in Join
  std::deque<internal::Fiber*> overflow_;       // guarded by mu_
  std::vector<internal::Fiber*> global_free_;   // guarded by mu_
  std::vector<std::unique_ptr<internal::Fiber>> all_fibers_;  // guarded by mu_
};

// Mutex that blocks the *fiber* (the worker thread keeps running other
// fibers); never enters the kernel while uncontended or contended.
class FiberMutex {
 public:
  void Lock();
  void Unlock();

 private:
  SpinLock mu_;  // protects the tiny state below
  internal::Fiber* owner_ = nullptr;
  std::deque<internal::Fiber*> waiters_;
};

// Counting semaphore with fiber-blocking semantics (condition with memory —
// the same primitive the simulated benchmarks use for Signal-Wait).  Wait
// must be called from a fiber; Post may be called from any thread.
class FiberSemaphore {
 public:
  explicit FiberSemaphore(int initial = 0) : count_(initial) {}
  void Post();
  void Wait();

 private:
  SpinLock mu_;
  int count_;
  std::deque<internal::Fiber*> waiters_;
};

}  // namespace sa::fibers

#endif  // SA_FIBERS_FIBER_POOL_H_
