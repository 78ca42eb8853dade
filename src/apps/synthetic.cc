#include "src/apps/synthetic.h"

#include <memory>
#include <vector>

#include "src/common/rng.h"

namespace sa::apps {

void SpawnForkStorm(rt::Runtime* rt, int rounds, int width, sim::Duration work) {
  rt->Spawn(
      [rounds, width, work](rt::ThreadCtx& t) -> sim::Program {
        for (int r = 0; r < rounds; ++r) {
          std::vector<int> kids;
          for (int i = 0; i < width; ++i) {
            kids.push_back(co_await t.Fork(
                [work](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(work); },
                "storm-child"));
          }
          for (int kid : kids) {
            co_await t.Join(kid);
          }
        }
      },
      "storm-main");
}

void SpawnLockContention(rt::Runtime* rt, int threads, int iters, sim::Duration hold,
                         sim::Duration outside) {
  const int lock = rt->CreateLock(rt::LockKind::kSpin);
  for (int i = 0; i < threads; ++i) {
    rt->Spawn(
        [lock, iters, hold, outside](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < iters; ++k) {
            co_await t.Acquire(lock);
            co_await t.Compute(hold);
            co_await t.Release(lock);
            co_await t.Compute(outside);
          }
        },
        "contender");
  }
}

void SpawnIoStorm(rt::Runtime* rt, int threads, int iters, sim::Duration compute,
                  sim::Duration io) {
  for (int i = 0; i < threads; ++i) {
    rt->Spawn(
        [iters, compute, io](rt::ThreadCtx& t) -> sim::Program {
          for (int k = 0; k < iters; ++k) {
            co_await t.Compute(compute);
            co_await t.Io(io);
          }
        },
        "io-worker");
  }
}

namespace {

// Shared synchronization objects for a random program.  Every thread's body
// lambda holds a shared_ptr to it, since a closure lives only until its own
// thread finishes and a forked child may outlive its parent.  The coroutine
// itself takes only trivially-destructible parameters — by-value owning
// coroutine parameters are avoided throughout this code base (GCC 12
// destroys such parameter copies twice in some nesting patterns).
struct RandomEnv : std::enable_shared_from_this<RandomEnv> {
  std::vector<int> locks;
  std::vector<int> sems;
};

// One random operation; waits are always pre-credited by a signal from the
// same thread, so the program is deadlock-free by construction.
sim::Program RandomBody(rt::ThreadCtx& t, const RandomEnv* env, int ops, uint64_t seed,
                        int depth) {
  const std::vector<int>& locks = env->locks;
  const std::vector<int>& sems = env->sems;
  common::Rng rng(seed);
  for (int k = 0; k < ops; ++k) {
    switch (rng.Below(7)) {
      case 0:  // compute burst
        co_await t.Compute(sim::Usec(rng.Range(5, 400)));
        break;
      case 1: {  // spinlock critical section
        const int lock = locks[rng.Below(locks.size())];
        co_await t.Acquire(lock);
        co_await t.Compute(sim::Usec(rng.Range(5, 80)));
        co_await t.Release(lock);
        break;
      }
      case 2: {  // signal someone (remembered if nobody waits)
        co_await t.Signal(sems[rng.Below(sems.size())]);
        break;
      }
      case 3: {  // pre-credited signal/wait pair on one semaphore
        const int sem = sems[rng.Below(sems.size())];
        co_await t.Signal(sem);
        co_await t.Wait(sem);
        break;
      }
      case 4:  // blocking kernel I/O
        co_await t.Io(sim::Usec(rng.Range(100, 3000)));
        break;
      case 5:  // yield
        co_await t.Yield();
        break;
      case 6: {  // nested fork (bounded depth), joined half the time
        if (depth >= 2) {
          co_await t.Compute(sim::Usec(20));
          break;
        }
        const uint64_t child_seed = rng.Next();
        const int child_ops = static_cast<int>(rng.Range(1, 4));
        // The child's closure owns its own reference, and is a named local:
        // under GCC 12 an owning temporary inside the co_await expression
        // can be freed while still in use.
        auto child = [owner = env->shared_from_this(), child_ops, child_seed,
                      depth](rt::ThreadCtx& c) -> sim::Program {
          return RandomBody(c, owner.get(), child_ops, child_seed, depth + 1);
        };
        const int kid = co_await t.Fork(std::move(child), "rand-child");
        if (rng.Bernoulli(0.5)) {
          co_await t.Join(kid);
        }
        break;
      }
    }
  }
}

}  // namespace

RandomProgramStats SpawnRandomProgram(rt::Runtime* rt, int threads, int ops,
                                      uint64_t seed) {
  auto env = std::make_shared<RandomEnv>();
  for (int i = 0; i < 3; ++i) {
    env->locks.push_back(rt->CreateLock(rt::LockKind::kSpin));
    env->sems.push_back(rt->CreateCond());
  }
  env->locks.push_back(rt->CreateLock(rt::LockKind::kMutex));
  common::Rng top(seed);
  for (int i = 0; i < threads; ++i) {
    const uint64_t thread_seed = top.Next();
    // The shared_ptr capture lives in the thread's WorkloadFn, which the
    // runtime destroys after the coroutine frame; the frame only sees a raw
    // pointer.
    rt->Spawn(
        [env, ops, thread_seed](rt::ThreadCtx& t) -> sim::Program {
          return RandomBody(t, env.get(), ops, thread_seed, 0);
        },
        "rand");
  }
  RandomProgramStats stats;
  stats.expected_completions = threads;  // forks add more at run time
  return stats;
}

}  // namespace sa::apps
