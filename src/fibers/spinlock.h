// A tiny test-and-test-and-set spinlock for the fiber library's sub-100ns
// critical sections (wait-queue pushes, join registration).
//
// Exists instead of std::mutex for one load-bearing reason: these locks are
// deliberately held *across* a user-level context switch — a blocking fiber
// registers itself on a wait queue, switches to the scheduler stack, and
// only then releases the lock (FiberPool::SwitchOutUnlock), so no wakeup
// can race with a fiber whose registers are still live.  ThreadSanitizer's
// fiber support treats each fiber as its own logical thread, and a pthread
// mutex locked on one fiber and unlocked on the scheduler context trips its
// lock-ownership checking (and poisons the mutex's happens-before state,
// cascading into false data-race reports).  A lock built on std::atomic has
// no ownership notion and its acquire/release pair is modeled exactly.
//
// Meets BasicLockable, so std::lock_guard / std::unique_lock work.

#ifndef SA_FIBERS_SPINLOCK_H_
#define SA_FIBERS_SPINLOCK_H_

#include <atomic>
#include <thread>

namespace sa::fibers {

// One step of a spin-wait loop.  `pause` tells the core the thread is
// busy-waiting: it hands pipeline resources to a sibling hyperthread, and
// the loop ends without a memory-order mis-speculation.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      // Contended: spin on the cache line read-only, briefly, then let the
      // holder run (essential on machines with fewer CPUs than workers).
      int spins = 0;
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins >= kSpinsBeforeYield) {
          std::this_thread::yield();
          spins = 0;
        } else {
          CpuRelax();
        }
      }
    }
  }

  bool try_lock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  static constexpr int kSpinsBeforeYield = 64;

  std::atomic<bool> locked_{false};
};

}  // namespace sa::fibers

#endif  // SA_FIBERS_SPINLOCK_H_
