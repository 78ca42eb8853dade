#include "src/fibers/fiber_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#include "src/common/affinity.h"
#include "src/common/assert.h"
#include "src/fibers/work_stealing_deque.h"

// Sanitizer fiber support.  A user-level context switch moves execution to a
// different stack without the sanitizer runtimes noticing; both TSan and
// ASan provide annotation APIs so they can follow.  TSan additionally needs
// them for correctness of its happens-before tracking across fibers.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SA_FIBERS_TSAN 1
#endif
#if __has_feature(address_sanitizer)
#define SA_FIBERS_ASAN 1
#endif
#endif
#if !defined(SA_FIBERS_TSAN) && defined(__SANITIZE_THREAD__)
#define SA_FIBERS_TSAN 1
#endif
#if !defined(SA_FIBERS_ASAN) && defined(__SANITIZE_ADDRESS__)
#define SA_FIBERS_ASAN 1
#endif

#if defined(SA_FIBERS_TSAN)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(SA_FIBERS_ASAN)
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace sa::fibers {

namespace internal {

// Per-kernel-thread scheduler state; lives on the WorkerLoop stack.
// An unpromoted lazy spawn (SpawnLazy): the task exists only as its closure
// plus an entry on the owning worker's promotion stack.  All state
// transitions — promotion (any worker) and inline take (JoinLazy, possibly
// from a fiber that migrated off the owner) — happen under the owner's
// lazy_mu, so `promoted`/`handle` need no atomics.  The spawner allocates;
// JoinLazy frees.
struct LazyTask {
  std::function<void()> fn;
  uint64_t seq = 0;                      // global age stamp (oldest = lowest)
  FiberPool::Worker* owner = nullptr;    // whose promotion stack holds it
  bool promoted = false;                 // guarded by owner->lazy_mu
  FiberHandle handle;                    // valid once promoted
};

struct WorkerState {
  FiberPool* pool = nullptr;
  FiberPool::Worker* worker = nullptr;
  ContextSp scheduler_ctx = nullptr;
  Fiber* current = nullptr;
  FiberPool::PostFn post_fn = nullptr;
  void* post_a = nullptr;
  void* post_b = nullptr;
  void* tsan_ctx = nullptr;  // the worker thread's own TSan "fiber"
  void* asan_fake_stack = nullptr;
  const void* stack_bottom = nullptr;  // the worker thread's stack (ASan)
  size_t stack_size = 0;
};

}  // namespace internal

namespace {

using internal::WorkerState;

thread_local WorkerState* tls_worker = nullptr;

// How often the dispatch loop prefers the global overflow queue over the
// local deque, so externally spawned fibers cannot starve behind a worker
// that always finds local work.  Prime, à la Go's runtime, so the check
// drifts across any periodic spawn pattern.
constexpr uint64_t kOverflowPeriod = 61;

// Extra full scan rounds (overflow + every victim) before parking: a steal
// probe costs nanoseconds, a futex round-trip costs microseconds.  Even on
// one CPU the sched_yield between rounds lets an external spawner run and
// often hands us its push without either side entering a futex sleep.
constexpr int kSpinRounds = 2;

// Per-worker free-list cap; beyond this, finished fibers go to the global
// list so one worker cannot hoard every recycled stack.
constexpr size_t kMaxLocalFree = 256;

// When a worker's local free list runs dry, pull this many recycled fibers
// from the global list in one critical section instead of one per spawn.
constexpr int kFreeRefillBatch = 16;

// Upper bound on fibers moved per steal episode (first one returned, the
// rest pushed onto the thief's own deque).
constexpr size_t kMaxStealBatch = 16;

// Upper bound on extra fibers moved from the overflow queue to the local
// deque per lock acquisition (amortizes the pool mutex over external bursts).
constexpr size_t kMaxOverflowBatch = 16;

// How long a parked worker sleeps before rechecking for work on its own.
// Not load-bearing for wakeup correctness: every push — worker-local or
// external — takes the full Dekker handshake with ParkWorker (StoreLoad
// fence + parked-count load against publish + recheck), so no park can
// outlive a push that the wake policy wakes for.  The timed park survives
// as a belt-and-braces backstop (e.g. a woken worker stuck in a syscall
// delaying the wake chain), and under the conservative policy it is also
// how an idle worker finds a local push left to its pusher.
// timeout_rescues counts only the firings that found work a push should
// have woken someone for while no searcher was out, and staying zero is
// what the lost-wakeup regression tests assert.
constexpr auto kParkTimeout = std::chrono::milliseconds(8);

// How long an external Join spins before it sleeps on the pool's condition
// variable: about one kernel wake-up, the price the sleep would pay.
// BM_SignalWait_KernelThread (bench_fibers_native), a round trip of two
// wake-ups, took 15.5 us on one 4-vCPU x86-64 VM and 7.5 us on another.
// A time bound, not a count of pauses: one pause costs from about 10 to
// about 140 cycles across x86 generations.
constexpr auto kJoinSpin = std::chrono::microseconds(8);

// Every this many dispatch-loop iterations a worker with pending lazy
// frames promotes its oldest one — the native analogue of the simulated
// virtual-time heartbeat, polled at dispatch boundaries (there is no safe
// asynchronous beat in a library that never interrupts its workers).
constexpr uint64_t kLazyTickPeriod = 16;

// Single-writer counter bump: no lock-prefixed RMW, just a load and a store
// (the counters are atomics only so cross-thread readers are race-free).
template <typename T>
inline void Bump(std::atomic<T>& counter, T delta = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Whether the fiber a handle names has finished: done==true (acquire pairs
// with the completion's store, making the fiber's effects visible) or a
// generation mismatch (the fiber was recycled and respawned — ours must
// have finished first).
bool Finished(const internal::Fiber* fiber, uint64_t generation) {
  return fiber->done.load(std::memory_order_acquire) ||
         fiber->generation.load(std::memory_order_acquire) != generation;
}

}  // namespace

// Per-worker scheduler: the FastThreads per-processor structure (paper
// Section 4.2) — a lock-free ready deque, an unlocked free list, a parking
// slot, and steal statistics.
struct FiberPool::Worker {
  explicit Worker(int idx)
      : index(idx), rng_state(SplitMix64(static_cast<uint64_t>(idx) + 1)) {}

  const int index;

  WorkStealingDeque<internal::Fiber*> deque;
  std::vector<internal::Fiber*> free_fibers;  // owner-only

  // Parking lot slot.  `parked` is the one claim on a park: whoever clears
  // it (ClaimPark) takes the park out of num_parked_.  `notified` is the
  // condvar predicate under park_mu.
  std::mutex park_mu;
  std::condition_variable park_cv;
  std::atomic<bool> parked{false};
  bool notified = false;  // guarded by park_mu

  // Owner-only dispatch state.
  uint64_t tick = 0;
  uint64_t rng_state;  // victim scan order
  bool searching = false;  // holds the pool's "searching worker" token

  // Promotion stack (lazy spawns pushed by fibers running here; oldest at
  // the front).  A SpinLock, not the deque's lock-free protocol: pushes are
  // rare relative to dispatches (one per SpawnLazy, not per schedule) and
  // promoters/joiners from other workers need multi-field transactions.
  SpinLock lazy_mu;
  std::deque<internal::LazyTask*> lazy_frames;  // guarded by lazy_mu

  // Single-writer statistics (read cross-thread by stats()/switches()).
  std::atomic<uint64_t> switches{0};
  std::atomic<int64_t> live_delta{0};  // spawns minus completions, this worker
  std::atomic<uint64_t> local_pops{0};
  std::atomic<uint64_t> overflow_pops{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> steal_attempts{0};
  std::atomic<uint64_t> parks{0};
  std::atomic<uint64_t> wakeups{0};  // multi-writer: bumped by wakers
  std::atomic<uint64_t> lazy_spawns{0};
  std::atomic<uint64_t> lazy_promotions{0};  // bumped by the promoting worker
  std::atomic<uint64_t> lazy_inlines{0};
  std::atomic<uint64_t> timeout_rescues{0};
};

FiberPool::FiberPool(int workers, size_t stack_size)
    : FiberPool(workers, FiberPoolOptions{stack_size}) {}

FiberPool::FiberPool(int workers, const FiberPoolOptions& options)
    : stack_size_(options.stack_size), cpus_(common::AffinityCpus()) {
  SA_CHECK(workers >= 1);
  spin_rounds_ = kSpinRounds;
  wake_eagerly_ = options.wake_eagerly < 0 ? cpus_ > 1 : options.wake_eagerly != 0;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(i));
  }
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

FiberPool::~FiberPool() {
  int64_t live = live_external_.load(std::memory_order_seq_cst);
  for (auto& wp : workers_) {
    live += wp->live_delta.load(std::memory_order_seq_cst);
  }
  SA_CHECK_MSG(live == 0, "destroying a pool with live fibers (join them)");
  stopping_.store(true, std::memory_order_seq_cst);
  for (auto& wp : workers_) {
    { std::lock_guard<std::mutex> bridge(wp->park_mu); }  // wait/notify bridge
    wp->park_cv.notify_all();
  }
  for (std::thread& t : threads_) {
    t.join();
  }
#if defined(SA_FIBERS_TSAN)
  for (auto& f : all_fibers_) {
    if (f->tsan_fiber != nullptr) {
      __tsan_destroy_fiber(f->tsan_fiber);
    }
  }
#endif
}

FiberPool* FiberPool::Current() {
  return tls_worker != nullptr ? tls_worker->pool : nullptr;
}

internal::Fiber* FiberPool::CurrentFiber() {
  return tls_worker != nullptr ? tls_worker->current : nullptr;
}

void FiberPool::FiberMain(void* arg) {
  auto* fiber = static_cast<internal::Fiber*>(arg);
#if defined(SA_FIBERS_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  FiberPool* pool = fiber->pool;
  fiber->fn();
  // Completion: wake joiners and recycle — all after we are off this stack.
  fiber->exiting = true;
  pool->SwitchOut(
      [](void* pool_arg, void* fiber_arg) {
        auto* p = static_cast<FiberPool*>(pool_arg);
        auto* f = static_cast<internal::Fiber*>(fiber_arg);
        f->fn = nullptr;
        // The live count must drop before `done` becomes observable: a
        // joiner may destroy the pool the moment Join returns.
        Bump(tls_worker->worker->live_delta, int64_t{-1});
        internal::Fiber* joiners;
        {
          std::lock_guard<SpinLock> g(f->join_mu);
          f->done.store(true, std::memory_order_seq_cst);
          joiners = f->joiners_head;
          f->joiners_head = nullptr;
        }
        while (joiners != nullptr) {
          internal::Fiber* next = joiners->next_joiner;
          p->PushRunnable(joiners);
          joiners = next;
        }
        // seq_cst pairing with the fetch_add in external Join: either this
        // load sees the waiter, or the waiter sees done==true before it
        // sleeps.  Per-fiber count, so the common no-external-joiner case
        // costs one load — no pool lock, no futex.
        if (f->ext_waiters.load(std::memory_order_seq_cst) > 0) {
          { std::lock_guard<std::mutex> bridge(p->mu_); }
          p->joiner_cv_.notify_all();
        }
        p->RecycleFiber(f);  // f may be respawned from here on
      },
      pool, fiber);
  SA_UNREACHABLE();  // the context is never resumed after final switch-out
}

internal::Fiber* FiberPool::AllocFiber() {
  WorkerState* state = tls_worker;
  std::vector<internal::Fiber*>* local = nullptr;
  if (state != nullptr && state->pool == this) {
    local = &state->worker->free_fibers;
    if (!local->empty()) {
      internal::Fiber* f = local->back();
      local->pop_back();
      return f;
    }
  }
  std::lock_guard<std::mutex> g(mu_);
  if (!global_free_.empty()) {
    internal::Fiber* f = global_free_.back();
    global_free_.pop_back();
    if (local != nullptr) {
      for (int i = 0; i < kFreeRefillBatch && !global_free_.empty(); ++i) {
        local->push_back(global_free_.back());
        global_free_.pop_back();
      }
    }
    return f;
  }
  all_fibers_.push_back(std::make_unique<internal::Fiber>());
  fibers_created_.store(all_fibers_.size(), std::memory_order_relaxed);
  internal::Fiber* f = all_fibers_.back().get();
  // Left uninitialised: untouched stack pages never become resident.
  f->stack = std::make_unique_for_overwrite<char[]>(stack_size_);
  f->stack_size = stack_size_;
  f->pool = this;
  return f;
}

void FiberPool::RecycleFiber(internal::Fiber* fiber) {
  // A fiber spawned from outside goes back where external spawns draw from:
  // on this worker's list it would sit idle while the next external Spawn
  // made a fresh fiber and stack.
  WorkerState* state = tls_worker;
  if (!fiber->external && state != nullptr && state->pool == this &&
      state->worker->free_fibers.size() < kMaxLocalFree) {
    state->worker->free_fibers.push_back(fiber);
    return;
  }
  std::lock_guard<std::mutex> g(mu_);
  global_free_.push_back(fiber);
}

FiberHandle FiberPool::Spawn(std::function<void()> fn) {
  internal::Fiber* fiber = AllocFiber();
  // Generation bump, then done=false, both release stores: a stale handle
  // probing without the lock either sees done==true (the old incarnation
  // finished) or, once it observes done==false, the new generation — so it
  // bails on the mismatch.  No lock needed: between AllocFiber and
  // PushRunnable this thread owns the fiber exclusively.
  const uint64_t generation =
      fiber->generation.load(std::memory_order_relaxed) + 1;
  fiber->generation.store(generation, std::memory_order_release);
  fiber->done.store(false, std::memory_order_release);
  fiber->exiting = false;
  fiber->fn = std::move(fn);
  WorkerState* state = tls_worker;
  fiber->external = state == nullptr || state->pool != this;
  if (fiber->external) {
    live_external_.fetch_add(1, std::memory_order_relaxed);
  } else {
    Bump(state->worker->live_delta, int64_t{1});
  }
#if defined(SA_FIBERS_ASAN)
  // A fiber that switched out for good left its frames' redzones poisoned
  // on this stack; the new context starts on a clean one.
  __asan_unpoison_memory_region(fiber->stack.get(), fiber->stack_size);
#endif
  fiber->sp = MakeContext(fiber->stack.get(), fiber->stack_size,
                          &FiberPool::FiberMain, fiber);
#if defined(SA_FIBERS_TSAN)
  if (fiber->tsan_fiber == nullptr) {
    fiber->tsan_fiber = __tsan_create_fiber(0);
  }
#endif
  const FiberHandle handle(fiber, generation);
  SA_TRACE_EMIT(tracer(), trace::cat::kFibers, trace::Kind::kFibSpawn,
                trace::HostNow(), fiber->external ? -1 : state->worker->index, -1,
                generation, 0);
  PushRunnable(fiber);
  return handle;
}

void FiberPool::PushRunnable(internal::Fiber* fiber) {
  WorkerState* state = tls_worker;
  if (state != nullptr && state->pool == this) {
    state->worker->deque.Push(fiber);  // local, lock-free
    // Full Dekker handshake with ParkWorker, same as the external-push path
    // below: the fence orders our deque store before the parked-count load,
    // pairing with the parker's publish (num_parked_ increment) + fence +
    // AnyWorkVisible recheck.  Either we see its increment here, or it sees
    // our push there — a push can no longer race a parking worker into a
    // mutual miss.  (Without the fence, x86 store-buffer forwarding lets
    // both sides read stale values and the push sleeps until kParkTimeout —
    // the lost-wakeup window this closes.)  Still one fence and one branch
    // on the fast path; no locks.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // On a single CPU (!wake_eagerly_) we only wake when *every* worker is
    // parked: this worker is awake and will dispatch the push itself, so
    // waking a thief just burns two futex round-trips to time-slice one
    // processor.
    const int parked = num_parked_.load(std::memory_order_relaxed);
    if (parked > 0 &&
        (wake_eagerly_ || parked >= static_cast<int>(workers_.size()))) {
      WakeOne();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    overflow_.push_back(fiber);
    overflow_size_.store(overflow_.size(), std::memory_order_relaxed);
  }
  // External pushes take the full Dekker handshake with ParkWorker: either
  // the parking worker's publish+recheck sees this push, or this fence+load
  // sees its num_parked_ increment.  Unlike worker-local pushes this always
  // wakes (subject to the searching token): the pusher is not a worker, so
  // someone must pick the work up promptly.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  WakeOne();
}

void FiberPool::WakeOne() {
  // At most one woken-but-idle worker hunts for work at a time: if a
  // searcher already exists it will take this work (or wake the next worker
  // itself when it finds some and more is visible).  This turns a burst of
  // pushes into a chain of at most num_workers wakes instead of a futex
  // storm.
  if (num_searching_.load(std::memory_order_relaxed) > 0) {
    return;
  }
  for (auto& wp : workers_) {
    Worker* w = wp.get();
    if (ClaimPark(w)) {
      // Transfer the searching token to the woken worker before it can run,
      // so a second push does not wake a second worker in the window before
      // the first one resumes.  It assumes the token when it sees
      // `notified` (ParkWorker), and releases it on finding work or parking.
      num_searching_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> g(w->park_mu);
        w->notified = true;
      }
      w->park_cv.notify_one();
      w->wakeups.fetch_add(1, std::memory_order_relaxed);
      SA_TRACE_EMIT(tracer(), trace::cat::kFibers, trace::Kind::kFibWake,
                    trace::HostNow(), w->index, -1, 0, 0);
      return;  // wake at most one — no notify storms
    }
  }
}

bool FiberPool::ClaimPark(Worker* w) {
  // Load first: a wake scans every worker, and a CAS that fails still takes
  // the cache line exclusive: the line holding the owner's dispatch state.
  if (!w->parked.load(std::memory_order_relaxed)) {
    return false;
  }
  bool expected = true;
  if (!w->parked.compare_exchange_strong(expected, false,
                                         std::memory_order_seq_cst)) {
    return false;
  }
  num_parked_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

internal::Fiber* FiberPool::PopOverflow(Worker* w) {
  if (overflow_size_.load(std::memory_order_relaxed) == 0) {
    return nullptr;
  }
  std::lock_guard<std::mutex> g(mu_);
  if (overflow_.empty()) {
    return nullptr;
  }
  internal::Fiber* f = overflow_.front();
  overflow_.pop_front();
  // Move the remaining backlog (up to the cap) to our own deque in the same
  // critical section: external spawn bursts then cost one pool-mutex
  // round-trip per batch, not per fiber, and a modest burst stays on one
  // worker instead of being split with the next scanner.  Other workers can
  // still re-steal from our deque if the burst outlasts us.
  size_t extra = overflow_.size();
  if (extra > kMaxOverflowBatch) {
    extra = kMaxOverflowBatch;
  }
  for (size_t i = 0; i < extra; ++i) {
    w->deque.Push(overflow_.front());
    overflow_.pop_front();
  }
  overflow_size_.store(overflow_.size(), std::memory_order_relaxed);
  Bump(w->overflow_pops, 1 + extra);
  return f;
}

internal::Fiber* FiberPool::TrySteal(Worker* w) {
  const size_t n = workers_.size();
  if (n <= 1) {
    return nullptr;
  }
  w->rng_state ^= w->rng_state << 13;
  w->rng_state ^= w->rng_state >> 7;
  w->rng_state ^= w->rng_state << 17;
  const size_t start = static_cast<size_t>(w->rng_state % n);
  for (size_t i = 0; i < n; ++i) {
    Worker* victim = workers_[(start + i) % n].get();
    if (victim == w) {
      continue;
    }
    Bump(w->steal_attempts);
    internal::Fiber* f = nullptr;
    if (victim->deque.Steal(&f)) {
      // Batch: move part of the victim's visible backlog in this one
      // episode, so fine-grained fibers do not cost a steal (and the OS
      // thread ping-pong that goes with it) per item.  Each item is still
      // taken by its own CAS — a loop of single steals, no new
      // memory-ordering cases.  Extras go to our own deque, where other
      // thieves can re-steal them.  Half is the classic load-balancing
      // split (taking everything just makes the next dry worker steal it
      // all back).
      size_t extra = victim->deque.SizeApprox() / 2;
      if (extra > kMaxStealBatch - 1) {
        extra = kMaxStealBatch - 1;
      }
      uint64_t got = 1;
      internal::Fiber* e = nullptr;
      for (size_t k = 0; k < extra && victim->deque.Steal(&e); ++k) {
        w->deque.Push(e);
        ++got;
      }
      Bump(w->steals, got);
      SA_TRACE_EMIT(tracer(), trace::cat::kFibers, trace::Kind::kFibSteal,
                    trace::HostNow(), w->index, -1,
                    static_cast<uint64_t>(victim->index), got);
      return f;
    }
  }
  return nullptr;
}

bool FiberPool::AnyWorkVisible(const Worker* w) const {
  (void)w;
  if (overflow_size_.load(std::memory_order_relaxed) > 0) {
    return true;
  }
  for (const auto& wp : workers_) {
    if (!wp->deque.EmptyApprox()) {
      return true;
    }
  }
  return false;
}

void FiberPool::ParkWorker(Worker* w) {
  // A searcher that gives up releases its token before sleeping, so pushes
  // can wake the next worker.
  if (w->searching) {
    w->searching = false;
    num_searching_.fetch_sub(1, std::memory_order_relaxed);
  }
  w->parked.store(true, std::memory_order_relaxed);
  num_parked_.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Recheck after publishing.  This closes the race against *every* push —
  // worker-local and external both fence before loading num_parked_, so
  // either their load sees our increment (they wake us) or this recheck
  // sees their work.
  if (AnyWorkVisible(w) || stopping_.load(std::memory_order_relaxed)) {
    // If a waker claimed us first, it took us out of the count and set
    // `notified`, which a later park consumes as a stale wake.
    ClaimPark(w);
    return;
  }
  Bump(w->parks);
  SA_TRACE_EMIT(tracer(), trace::cat::kFibers, trace::Kind::kFibPark,
                trace::HostNow(), w->index, -1, 0, 0);
  bool notified;
  {
    std::unique_lock<std::mutex> lk(w->park_mu);
    w->park_cv.wait_for(lk, kParkTimeout, [&] {
      return w->notified || stopping_.load(std::memory_order_relaxed);
    });
    notified = w->notified;
    w->notified = false;
  }
  if (notified) {
    // A waker transferred the searching token to us (WakeOne).  It claimed
    // either this park or, stale, an earlier one during its recheck: then
    // this park is still published, and we take it out of the count.
    w->searching = true;
    ClaimPark(w);
  } else if (ClaimPark(w)) {
    // Timed out (or stopping) without a waker claiming us.  A timeout that
    // finds work a push should have woken someone for, while no searcher is
    // out, is a lost wakeup — exactly what the Dekker handshake rules out.
    // (WakeOne leaves work to a searcher, which may be a worker holding a
    // stale `notified` that is still running a fiber.)  Every external push
    // wakes, but under the conservative policy a worker-local push leaves
    // its fiber to the pusher, so there only overflow work counts.  Count
    // it so tests can assert it never happens.
    const bool owed_a_wake =
        wake_eagerly_ ? AnyWorkVisible(w)
                      : overflow_size_.load(std::memory_order_relaxed) > 0;
    if (!stopping_.load(std::memory_order_relaxed) &&
        num_searching_.load(std::memory_order_relaxed) == 0 && owed_a_wake) {
      Bump(w->timeout_rescues);
    }
  }
  // else a waker claimed us as we timed out; its `notified` stays set and a
  // later park consumes it.
}

internal::Fiber* FiberPool::PopRunnable(Worker* w) {
  internal::Fiber* found = [&]() -> internal::Fiber* {
    for (;;) {
      if (stopping_.load(std::memory_order_acquire)) {
        return nullptr;
      }
      internal::Fiber* f = nullptr;
      // Fairness tick: a worker that always finds local work must still
      // drain the overflow queue eventually (external spawns land there).
      if (w->tick++ % kOverflowPeriod == 0 &&
          (f = PopOverflow(w)) != nullptr) {
        return f;
      }
      // Promotion tick (the native heartbeat): a busy worker periodically
      // turns its oldest lazy frame into a real fiber so outstanding
      // parallelism cannot sit unpromoted behind a long local run.  The
      // relaxed gate keeps this off the hot path when SpawnLazy is unused.
      if (lazy_outstanding_.load(std::memory_order_relaxed) > 0 &&
          w->tick % kLazyTickPeriod == 0) {
        PromoteOneLazy(w);
      }
      // Local dispatch takes the *oldest* fiber (a take from our own top):
      // FIFO locally means yielders alternate instead of re-running LIFO,
      // and a join-woken fiber runs after the work it is waiting on rather
      // than preempting it.  PopTop is the owner's fenceless variant of
      // Steal; Pop (bottom) is the fallback when a thief races us for the
      // top item.
      if (w->deque.PopTop(&f) || w->deque.Pop(&f)) {
        Bump(w->local_pops);
        return f;
      }
      if ((f = PopOverflow(w)) != nullptr) {
        return f;
      }
      if ((f = TrySteal(w)) != nullptr) {
        return f;
      }
      // Dry worker: promote a lazy frame before spinning or parking — the
      // steal-side promotion that makes lazy spawns real parallelism the
      // moment a processor wants work, and the drain that guarantees no
      // worker parks while frames are outstanding.
      if (lazy_outstanding_.load(std::memory_order_relaxed) > 0 &&
          PromoteOneLazy(w)) {
        continue;  // the promoted fiber is on our own deque now
      }
      // Local deque dry and first scan missed: spin briefly before
      // blocking — but only as *the* searching worker (the same token
      // WakeOne grants).  A lone spinner catches a push burst without any
      // futex round-trip; capping spinners at one stops N dry workers from
      // sched_yield-storming each other and shredding a burst into
      // single-fiber steals, which on few-CPU hosts costs more in OS
      // thread ping-pong than the futexes it saves.
      if (!w->searching) {
        int expected = 0;
        if (num_searching_.compare_exchange_strong(
                expected, 1, std::memory_order_relaxed)) {
          w->searching = true;
        }
      }
      if (w->searching) {
        for (int round = 0; round < spin_rounds_; ++round) {
          std::this_thread::yield();
          if (stopping_.load(std::memory_order_acquire)) {
            return nullptr;
          }
          if ((f = PopOverflow(w)) == nullptr) {
            f = TrySteal(w);
          }
          if (f != nullptr) {
            return f;
          }
        }
      }
      ParkWorker(w);
    }
  }();
  if (found != nullptr && w->searching) {
    // We were woken from the parking lot and found work: release the
    // searching token and, if there is visibly more work than we can run
    // ourselves, continue the wake chain with one more worker.
    w->searching = false;
    num_searching_.fetch_sub(1, std::memory_order_relaxed);
    // Continue the wake chain only where parallel drain helps; on a single
    // CPU the chain would just line up timeslice contenders.
    if (wake_eagerly_ && AnyWorkVisible(w)) {
      WakeOne();
    }
  }
  return found;
}

void FiberPool::WorkerLoop(int index) {
  Worker* w = workers_[static_cast<size_t>(index)].get();
  WorkerState state;
  state.pool = this;
  state.worker = w;
#if defined(SA_FIBERS_TSAN)
  state.tsan_ctx = __tsan_get_current_fiber();
#endif
#if defined(SA_FIBERS_ASAN)
  {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* addr = nullptr;
      size_t size = 0;
      pthread_attr_getstack(&attr, &addr, &size);
      state.stack_bottom = addr;
      state.stack_size = size;
      pthread_attr_destroy(&attr);
    }
  }
#endif
  tls_worker = &state;
  for (;;) {
    internal::Fiber* fiber = PopRunnable(w);
    if (fiber == nullptr) {
      break;
    }
    state.current = fiber;
    Bump(w->switches);
    SA_TRACE_EMIT(tracer(), trace::cat::kFibers, trace::Kind::kFibSwitch,
                  trace::HostNow(), index, -1,
                  fiber->generation.load(std::memory_order_relaxed), 0);
#if defined(SA_FIBERS_TSAN)
    __tsan_switch_to_fiber(fiber->tsan_fiber, 0);
#endif
#if defined(SA_FIBERS_ASAN)
    __sanitizer_start_switch_fiber(&state.asan_fake_stack, fiber->stack.get(),
                                   fiber->stack_size);
#endif
    sa_ctx_swap(&state.scheduler_ctx, fiber->sp);
#if defined(SA_FIBERS_ASAN)
    __sanitizer_finish_switch_fiber(state.asan_fake_stack, nullptr, nullptr);
#endif
    state.current = nullptr;
    if (state.post_fn != nullptr) {
      const PostFn post = state.post_fn;
      state.post_fn = nullptr;
      post(state.post_a, state.post_b);
    }
  }
  tls_worker = nullptr;
}

void FiberPool::SwitchOut(PostFn post, void* a, void* b) {
  WorkerState* state = tls_worker;
  SA_CHECK_MSG(state != nullptr && state->current != nullptr,
               "SwitchOut outside a fiber");
  state->post_fn = post;
  state->post_a = a;
  state->post_b = b;
  internal::Fiber* self = state->current;
  Bump(state->worker->switches);
#if defined(SA_FIBERS_TSAN)
  __tsan_switch_to_fiber(state->tsan_ctx, 0);
#endif
#if defined(SA_FIBERS_ASAN)
  // A fiber on its way out releases its fake stack instead of saving it.
  __sanitizer_start_switch_fiber(
      self->exiting ? nullptr : &self->asan_fake_stack, state->stack_bottom,
      state->stack_size);
#endif
  sa_ctx_swap(&self->sp, state->scheduler_ctx);
#if defined(SA_FIBERS_ASAN)
  __sanitizer_finish_switch_fiber(self->asan_fake_stack, nullptr, nullptr);
#endif
}

void FiberPool::SwitchOutUnlock(SpinLock* lock) {
  SwitchOut([](void* l, void*) { static_cast<SpinLock*>(l)->unlock(); }, lock,
            nullptr);
}

void FiberPool::Yield() {
  WorkerState* state = tls_worker;
  SA_CHECK_MSG(state != nullptr && state->current != nullptr,
               "Yield outside a fiber");
  FiberPool* pool = state->pool;
  internal::Fiber* self = state->current;
  // Republish after the switch: another worker must not run this fiber
  // while its registers are still live on this stack.
  pool->SwitchOut(
      [](void* pool_arg, void* self_arg) {
        static_cast<FiberPool*>(pool_arg)->PushRunnable(
            static_cast<internal::Fiber*>(self_arg));
      },
      pool, self);
}

bool FiberPool::SpinJoin(const FiberHandle& handle) {
  if (!CpuFreeForSpin()) {
    return false;
  }
  const auto deadline = std::chrono::steady_clock::now() + kJoinSpin;
  while (!Finished(handle.fiber_, handle.generation_)) {
    if (!CpuFreeForSpin() || std::chrono::steady_clock::now() >= deadline) {
      ext_join_spin_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    CpuRelax();
  }
  return true;
}

void FiberPool::Join(FiberHandle handle) {
  internal::Fiber* target = handle.fiber_;
  SA_CHECK_MSG(target != nullptr, "joining a null fiber handle");
  if (Finished(target, handle.generation_)) {
    return;  // the lock-free fast path
  }
  WorkerState* state = tls_worker;
  if (state != nullptr && state->current != nullptr && state->pool == this) {
    // Fiber-to-fiber join: block the fiber, keep the worker busy.  The
    // handshake is entirely per-fiber (join_mu), never pool-wide.
    internal::Fiber* self = state->current;
    std::unique_lock<SpinLock> lock(target->join_mu);
    if (target->done.load(std::memory_order_relaxed) ||
        target->generation.load(std::memory_order_relaxed) !=
            handle.generation_) {
      return;  // finished between the fast path and the lock
    }
    self->next_joiner = target->joiners_head;
    target->joiners_head = self;
    // The lock must be released only once we are off this fiber's stack.
    lock.release();
    SwitchOutUnlock(&target->join_mu);
    return;
  }
  // External join, first phase: spin while a CPU is free for it, for about
  // what the sleep below would pay in a kernel wake-up.
  if (SpinJoin(handle)) {
    ext_joins_spun_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Second phase: block the calling kernel thread.  The per-fiber waiter
  // count means fibers nobody is externally joining complete without ever
  // touching the pool mutex or condvar.
  ext_joins_slept_.fetch_add(1, std::memory_order_relaxed);
  target->ext_waiters.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(mu_);
    joiner_cv_.wait(lock, [target, &handle] {
      return target->done.load(std::memory_order_seq_cst) ||
             target->generation.load(std::memory_order_seq_cst) !=
                 handle.generation_;
    });
  }
  target->ext_waiters.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Lazy (pcall) spawning — the native heartbeat-promotion analogue.
// ---------------------------------------------------------------------------

LazyHandle FiberPool::SpawnLazy(std::function<void()> fn) {
  WorkerState* state = tls_worker;
  SA_CHECK_MSG(
      state != nullptr && state->pool == this && state->current != nullptr,
      "SpawnLazy must be called from a fiber of this pool");
  Worker* w = state->worker;
  auto* task = new internal::LazyTask;
  task->fn = std::move(fn);
  task->seq = lazy_seq_.fetch_add(1, std::memory_order_relaxed);
  task->owner = w;
  {
    std::lock_guard<SpinLock> g(w->lazy_mu);
    w->lazy_frames.push_back(task);
  }
  lazy_outstanding_.fetch_add(1, std::memory_order_relaxed);
  Bump(w->lazy_spawns);
  SA_TRACE_EMIT(tracer(), trace::cat::kHeartbeat, trace::Kind::kHbLazyFork,
                trace::HostNow(), w->index, -1, task->seq, 0);
  return LazyHandle(task);
}

bool FiberPool::PromoteOneLazy(Worker* w) {
  // Best-effort oldest-first: peek every promotion stack's front stamp,
  // then take from the oldest.  The stack may change between the peek and
  // the take (frames only move under their owner's lazy_mu), in which case
  // we still take that owner's current oldest — strict global order is a
  // property the simulated layer tests, not worth a global lock here.
  Worker* best = nullptr;
  uint64_t best_seq = ~uint64_t{0};
  for (auto& vp : workers_) {
    Worker* v = vp.get();
    std::lock_guard<SpinLock> g(v->lazy_mu);
    if (!v->lazy_frames.empty() && v->lazy_frames.front()->seq < best_seq) {
      best_seq = v->lazy_frames.front()->seq;
      best = v;
    }
  }
  if (best == nullptr) {
    return false;
  }
  uint64_t seq = 0;
  {
    std::lock_guard<SpinLock> g(best->lazy_mu);
    if (best->lazy_frames.empty()) {
      return false;
    }
    internal::LazyTask* task = best->lazy_frames.front();
    best->lazy_frames.pop_front();
    lazy_outstanding_.fetch_sub(1, std::memory_order_relaxed);
    seq = task->seq;
    // Spawn while still holding lazy_mu: JoinLazy must never find the frame
    // gone with the handle not yet set.  We are on `w`'s thread, so the new
    // fiber lands on `w`'s own deque — a dry promoter keeps what it took.
    task->handle = Spawn(std::move(task->fn));
    task->promoted = true;
    // `task` is unreachable for us past this block: the joiner owns it.
  }
  Bump(w->lazy_promotions);
  SA_TRACE_EMIT(tracer(), trace::cat::kHeartbeat, trace::Kind::kHbPromote,
                trace::HostNow(), w->index, -1, seq, 0);
  return true;
}

void FiberPool::JoinLazy(LazyHandle handle) {
  internal::LazyTask* task = handle.task_;
  SA_CHECK_MSG(task != nullptr, "joining a null lazy handle");
  WorkerState* state = tls_worker;
  SA_CHECK_MSG(
      state != nullptr && state->pool == this && state->current != nullptr,
      "JoinLazy must be called from a fiber of this pool");
  Worker* owner = task->owner;
  bool inline_run = false;
  {
    std::lock_guard<SpinLock> g(owner->lazy_mu);
    if (!task->promoted) {
      auto& frames = owner->lazy_frames;
      auto it = std::find(frames.begin(), frames.end(), task);
      SA_CHECK_MSG(it != frames.end(),
                   "lazy task neither pending nor promoted (double join?)");
      frames.erase(it);
      lazy_outstanding_.fetch_sub(1, std::memory_order_relaxed);
      inline_run = true;
    }
  }
  if (inline_run) {
    // The pcall payoff: nobody wanted the parallelism, so the child runs
    // right here on the joining fiber's stack — spawn + join collapsed to
    // a procedure call, no fiber, no deque, no wakeup.
    Bump(state->worker->lazy_inlines);
    SA_TRACE_EMIT(tracer(), trace::cat::kHeartbeat, trace::Kind::kHbInline,
                  trace::HostNow(), state->worker->index, -1, task->seq, 0);
    std::function<void()> fn = std::move(task->fn);
    delete task;
    fn();
    return;
  }
  const FiberHandle h = task->handle;
  delete task;
  Join(h);
}

uint64_t FiberPool::switches() const {
  uint64_t total = 0;
  for (const auto& wp : workers_) {
    total += wp->switches.load(std::memory_order_relaxed);
  }
  return total;
}

FiberPoolStats FiberPool::stats() const {
  FiberPoolStats s;
  for (const auto& wp : workers_) {
    s.local_pops += wp->local_pops.load(std::memory_order_relaxed);
    s.overflow_pops += wp->overflow_pops.load(std::memory_order_relaxed);
    s.steals += wp->steals.load(std::memory_order_relaxed);
    s.steal_attempts += wp->steal_attempts.load(std::memory_order_relaxed);
    s.parks += wp->parks.load(std::memory_order_relaxed);
    s.wakeups += wp->wakeups.load(std::memory_order_relaxed);
    s.lazy_spawns += wp->lazy_spawns.load(std::memory_order_relaxed);
    s.lazy_promotions += wp->lazy_promotions.load(std::memory_order_relaxed);
    s.lazy_inlines += wp->lazy_inlines.load(std::memory_order_relaxed);
    s.timeout_rescues += wp->timeout_rescues.load(std::memory_order_relaxed);
  }
  s.ext_joins_spun = ext_joins_spun_.load(std::memory_order_relaxed);
  s.ext_joins_slept = ext_joins_slept_.load(std::memory_order_relaxed);
  s.ext_join_spin_timeouts = ext_join_spin_timeouts_.load(std::memory_order_relaxed);
  s.fibers_created = fibers_created_.load(std::memory_order_relaxed);
  s.parked_workers = num_parked_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Synchronization.
// ---------------------------------------------------------------------------

void FiberMutex::Lock() {
  WorkerState* state = tls_worker;
  SA_CHECK_MSG(state != nullptr && state->current != nullptr,
               "FiberMutex used outside a fiber");
  internal::Fiber* const self = state->current;
  std::unique_lock<SpinLock> lock(mu_);
  if (owner_ == nullptr) {
    owner_ = self;
    return;
  }
  waiters_.push_back(self);
  lock.release();
  state->pool->SwitchOutUnlock(&mu_);
  // Woken by Unlock with ownership already transferred (possibly on a
  // different worker thread).
}

void FiberMutex::Unlock() {
  WorkerState* state = tls_worker;
  SA_CHECK(state != nullptr && state->current != nullptr);
  internal::Fiber* next = nullptr;
  {
    std::unique_lock<SpinLock> lock(mu_);
    SA_CHECK_MSG(owner_ == state->current, "unlock by non-owner");
    if (waiters_.empty()) {
      owner_ = nullptr;
    } else {
      next = waiters_.front();
      waiters_.pop_front();
      owner_ = next;  // direct handoff
    }
  }
  if (next != nullptr) {
    next->pool->PushRunnable(next);
  }
}

void FiberSemaphore::Post() {
  internal::Fiber* next = nullptr;
  {
    std::unique_lock<SpinLock> lock(mu_);
    if (waiters_.empty()) {
      ++count_;
    } else {
      next = waiters_.front();
      waiters_.pop_front();
    }
  }
  if (next != nullptr) {
    // Wake through the waiter's own pool: Post may be called from any
    // thread, including plain std::threads with no worker TLS.
    next->pool->PushRunnable(next);
  }
}

void FiberSemaphore::Wait() {
  WorkerState* state = tls_worker;
  SA_CHECK_MSG(state != nullptr && state->current != nullptr,
               "FiberSemaphore used outside a fiber");
  std::unique_lock<SpinLock> lock(mu_);
  if (count_ > 0) {
    --count_;
    return;
  }
  waiters_.push_back(state->current);
  lock.release();
  state->pool->SwitchOutUnlock(&mu_);
}

}  // namespace sa::fibers
