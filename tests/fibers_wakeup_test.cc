// Park/wake handshake and lazy-spawn coverage for the native fiber pool.
//
// The headline regression test here guards the lost-wakeup fix: worker-local
// pushes used to check num_parked_ with a relaxed load and no StoreLoad
// fence, so on a multi-core host a push racing a parking worker could leave
// runnable work sitting until the 8 ms park timeout.  The fix gives local
// pushes the same Dekker handshake (fence + recheck pairing) as external
// pushes, and adds the timeout_rescues counter: a timed park that wakes to
// find visible work nobody signalled.  With the fix that counter is
// provably zero; on the old ordering this test goes red on any multi-core
// host (the fibers CI job also runs it under ThreadSanitizer).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/fibers/fiber_pool.h"
#include "src/fibers/work_stealing_deque.h"

namespace sa::fibers {
namespace {

// ---------------------------------------------------------------------------
// Lost wakeup.
// ---------------------------------------------------------------------------

// Drives the exact racing pair: worker B parks (publish parked state, recheck,
// sleep) while a fiber on worker A pushes (deque store, check parked state).
// Each round the driver fiber spawns a child and then busy-spins — without
// yielding, so its own worker cannot run the child — until the child (which
// can only run on the other worker) reports in.  The other worker runs dry
// between rounds and heads for the parking lot; the driver fiber waits a delay
// that sweeps across that trip before its next push, so some rounds land
// the push inside the publish/recheck window whatever the host's timing.
// wake_eagerly = 1 keeps the single-CPU wake policy from masking the
// handshake on small hosts.
TEST(FiberWakeup, LocalPushNeverLosesAWakeup) {
  FiberPoolOptions options;
  options.wake_eagerly = 1;
  FiberPool pool(2, options);
  constexpr int kRounds = 4000;
  // Deadline per round: a lost wakeup shows up as an 8 ms (park timeout)
  // stall; a broken wake shows up as a hang.  The deadline only guards
  // against the hang — the real assertion is the rescue counter below.
  auto driver = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    for (int round = 0; round < kRounds; ++round) {
      std::atomic<bool> ran{false};
      FiberHandle child = p->Spawn([&] { ran.store(true); });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!ran.load()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "child never ran: wakeup lost and timeout backstop broken";
        // Busy-wait on the worker thread (no Yield): the child cannot run
        // here, so the push must have woken the other worker.
      }
      p->Join(child);
      const auto push_at = std::chrono::steady_clock::now() +
                           std::chrono::nanoseconds(250 * (round % 32));
      while (std::chrono::steady_clock::now() < push_at) {
      }
    }
  });
  pool.Join(driver);
  const FiberPoolStats s = pool.stats();
  // The Dekker handshake guarantee: no push was ever missed by a parking
  // worker — every timed park that expired found nothing to do.  On the
  // old relaxed-load ordering this counter goes nonzero here (multi-core
  // hosts; the race needs real parallelism to fire).
  EXPECT_EQ(s.timeout_rescues, 0u)
      << "a parked worker found work only via its timeout backstop: "
         "the push-side handshake missed a parking worker";
}

// The conservative single-CPU policy (wake only when all workers are parked)
// must still never strand work: with wake_eagerly = 0 the same ping-pong
// completes because the pusher's own worker dispatches the child after the
// driver blocks in Join.
TEST(FiberWakeup, ConservativePolicyStillDrains) {
  FiberPoolOptions options;
  options.wake_eagerly = 0;
  FiberPool pool(2, options);
  std::atomic<int> done{0};
  auto driver = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    for (int round = 0; round < 200; ++round) {
      FiberHandle child = p->Spawn([&] { done.fetch_add(1); });
      p->Join(child);  // blocks the fiber; the worker dispatches the child
    }
  });
  pool.Join(driver);
  EXPECT_EQ(done.load(), 200);
  EXPECT_EQ(pool.stats().timeout_rescues, 0u);

  // No wake-up is lost either when the spawning fiber computes for 20 ms
  // before it joins: the idle worker's timed parks then find the child on
  // the spawner's deque, where the policy leaves it on purpose, and that is
  // no rescue.
  FiberPool computing(2, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // both park
  std::atomic<bool> ran{false};
  auto spawner = computing.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    FiberHandle child = p->Spawn([&] { ran.store(true); });
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
    p->Join(child);
  });
  computing.Join(spawner);
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(computing.stats().timeout_rescues, 0u) << "a spawner that computes before it joins";
}

// ---------------------------------------------------------------------------
// Park count.
// ---------------------------------------------------------------------------

// The value the parked_workers gauge holds for 20 consecutive samples 1 ms
// apart (a park being claimed moves it by one for an instant), or -1 if no
// value holds that long within 10 s.
int SettledParkedWorkers(const FiberPool& pool) {
  constexpr int kStable = 20;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int value = pool.stats().parked_workers;
  int streak = 1;
  while (streak < kStable && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int now = pool.stats().parked_workers;
    streak = now == value ? streak + 1 : 1;
    value = now;
  }
  return streak >= kStable ? value : -1;
}

// Every park is counted in parked_workers once and taken out once, by
// whoever clears the worker's `parked` flag.  A waker that claims a worker
// during its post-publish recheck leaves a stale `notified`, which the
// worker's next park consumes at once; that park must still leave the
// count.  The load is the perfbench `fibers` unit's in small: spawn/join
// batches from one fiber (thieves wake, steal and park again on every
// batch; this is where the claims land) and a semaphore ping-pong pair per
// worker.  Then the idle pool must settle with every worker counted
// exactly once.  An inflated count makes every worker-local push scan the
// parking lot and lets an external join spin with no CPU free.
TEST(FiberWakeup, ParkCountSettlesAtWorkerCount) {
  constexpr int kBatches = 400;
  constexpr int kBatch = 256;
  constexpr int kRounds = 300;
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    FiberPoolOptions options;
    options.wake_eagerly = 1;
    FiberPool pool(workers, options);
    std::atomic<int> ran{0};
    FiberHandle parent = pool.Spawn([&] {
      FiberPool* p = FiberPool::Current();
      std::vector<FiberHandle> batch(kBatch);
      for (int b = 0; b < kBatches; ++b) {
        for (FiberHandle& h : batch) {
          h = p->Spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
        for (FiberHandle& h : batch) {
          p->Join(h);
        }
      }
    });
    pool.Join(parent);
    std::vector<FiberSemaphore> sems(2 * static_cast<size_t>(workers));
    std::vector<FiberHandle> pairs;
    for (int p = 0; p < workers; ++p) {
      FiberSemaphore* ping = &sems[2 * static_cast<size_t>(p)];
      FiberSemaphore* pong = ping + 1;
      pairs.push_back(pool.Spawn([ping, pong] {
        for (int r = 0; r < kRounds; ++r) {
          ping->Post();
          pong->Wait();
        }
      }));
      pairs.push_back(pool.Spawn([ping, pong, &ran] {
        for (int r = 0; r < kRounds; ++r) {
          ping->Wait();
          ran.fetch_add(1, std::memory_order_relaxed);
          pong->Post();
        }
      }));
    }
    for (FiberHandle& h : pairs) {
      pool.Join(h);
    }
    ASSERT_EQ(ran.load(), kBatches * kBatch + workers * kRounds);
    EXPECT_EQ(SettledParkedWorkers(pool), workers)
        << "an idle pool must count each worker parked exactly once";
  }
}

// ---------------------------------------------------------------------------
// WorkStealingDeque: Grow under concurrent steal.
// ---------------------------------------------------------------------------

// Starts the deque at capacity 2 and pushes enough to force many geometric
// growths while thieves hammer Steal and a sampler reads SizeApprox.  The
// Chase–Lev growth contract says a thief holding the retired buffer pointer
// must still read valid cells (retired buffers are kept alive and their
// cells never overwritten); every pushed value must be consumed exactly
// once between the owner and the thieves.  Run under TSan by the fibers CI
// job, this is the test that catches a retired-buffer lifetime bug.
TEST(WorkStealingDequeGrow, StealersSurviveConcurrentGrowth) {
  constexpr uint64_t kValues = 200000;
  constexpr uint64_t kBurst = 4096;  // pushed before any thief runs
  constexpr int kThieves = 3;
  WorkStealingDeque<uint64_t> deque(/*initial_capacity=*/2);
  std::vector<std::vector<uint64_t>> stolen(kThieves);
  std::vector<uint64_t> popped;
  std::atomic<bool> start_stealing{false};
  std::atomic<bool> done_pushing{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      while (!start_stealing.load(std::memory_order_acquire)) {
      }
      uint64_t v = 0;
      for (;;) {
        if (deque.Steal(&v)) {
          stolen[static_cast<size_t>(t)].push_back(v);
        } else if (done_pushing.load(std::memory_order_acquire) &&
                   deque.EmptyApprox()) {
          return;
        }
      }
    });
  }
  std::thread sampler([&] {
    while (!done_pushing.load(std::memory_order_acquire)) {
      // SizeApprox must stay bounded and never wrap: it is computed from a
      // racing bottom/top pair, and a miscomputed (underflowed) difference
      // would come back as a huge size_t.
      ASSERT_LE(deque.SizeApprox(), kValues);
    }
  });

  // Owner: an unconsumed burst first, which deterministically forces the
  // buffer to grow from capacity 2 well past kBurst — so the thieves
  // released below start on a freshly swapped buffer and keep racing later
  // growths as the owner pushes on.  Periodic pops exercise the
  // owner-pop-vs-steal race on the last item as well.
  uint64_t v = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    deque.Push(i);
  }
  start_stealing.store(true, std::memory_order_release);
  for (uint64_t i = kBurst; i < kValues; ++i) {
    deque.Push(i);
    if (i % 7 == 0 && deque.Pop(&v)) {
      popped.push_back(v);
    }
  }
  done_pushing.store(true, std::memory_order_release);
  // Owner drains what the thieves leave behind.
  while (deque.Pop(&v)) {
    popped.push_back(v);
  }
  for (auto& t : thieves) {
    t.join();
  }
  sampler.join();

  // Every value consumed exactly once, across owner and thieves.
  std::vector<uint8_t> seen(kValues, 0);
  uint64_t total = 0;
  auto consume = [&](const std::vector<uint64_t>& vals) {
    for (uint64_t value : vals) {
      ASSERT_LT(value, kValues);
      ASSERT_EQ(seen[value], 0) << "value " << value << " consumed twice";
      seen[value] = 1;
      ++total;
    }
  };
  consume(popped);
  for (const auto& s : stolen) {
    consume(s);
  }
  EXPECT_EQ(total, kValues);
}

// ---------------------------------------------------------------------------
// Lazy (pcall) spawning.
// ---------------------------------------------------------------------------

// A spawner that joins newest-first without ever leaving its worker runs
// every child inline: no fibers, no promotions — spawn+join collapsed to
// procedure calls.
TEST(FiberLazy, UnpromotedFramesRunInlineAtJoin) {
  FiberPool pool(1);
  constexpr int kChildren = 32;
  std::atomic<int> ran{0};
  auto driver = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    std::vector<LazyHandle> hs;
    hs.reserve(kChildren);
    for (int i = 0; i < kChildren; ++i) {
      hs.push_back(p->SpawnLazy([&] { ran.fetch_add(1); }));
    }
    for (auto it = hs.rbegin(); it != hs.rend(); ++it) {
      p->JoinLazy(*it);
    }
  });
  pool.Join(driver);
  EXPECT_EQ(ran.load(), kChildren);
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_spawns, static_cast<uint64_t>(kChildren));
  EXPECT_EQ(s.lazy_inlines, static_cast<uint64_t>(kChildren));
  EXPECT_EQ(s.lazy_promotions, 0u);
}

// A spawner that keeps its worker's dispatch loop busy (yield storm) gets
// its frame promoted by the loop's promotion tick — the native heartbeat.
TEST(FiberLazy, DispatchTickPromotesFrames) {
  FiberPool pool(1);
  std::atomic<bool> ran{false};
  auto driver = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    LazyHandle h = p->SpawnLazy([&] { ran.store(true); });
    // Drive the dispatch loop well past the promotion tick period.  The
    // promoted fiber runs on this same worker between yields.
    for (int i = 0; i < 256 && !ran.load(); ++i) {
      FiberPool::Yield();
    }
    p->JoinLazy(h);  // already promoted and likely finished: a plain join
  });
  pool.Join(driver);
  EXPECT_TRUE(ran.load());
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_promotions, 1u);
  EXPECT_EQ(s.lazy_inlines, 0u);
}

// A dry worker promotes another worker's frame rather than parking — the
// steal-side promotion that turns lazy spawns into real parallelism the
// moment a processor is idle.  The spawning fiber busy-spins without
// yielding, so only the other worker can possibly run the child.
TEST(FiberLazy, DryWorkerPromotesInsteadOfParking) {
  FiberPoolOptions options;
  options.wake_eagerly = 1;
  FiberPool pool(2, options);
  std::atomic<bool> ran{false};
  auto driver = pool.Spawn([&] {
    FiberPool* p = FiberPool::Current();
    LazyHandle h = p->SpawnLazy([&] { ran.store(true); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ran.load()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "no worker ever promoted the outstanding lazy frame";
    }
    p->JoinLazy(h);
  });
  pool.Join(driver);
  EXPECT_TRUE(ran.load());
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_promotions, 1u);
  EXPECT_EQ(s.lazy_inlines, 0u);
}

// Recursive divide-and-conquer over both APIs at once: lazy spawns racing
// promotion, inlining and real joins under multiple workers.  The sum
// checks that every leaf ran exactly once whichever path resolved it.
TEST(FiberLazy, RecursiveSpawnTreeSumsCorrectly) {
  FiberPoolOptions options;
  options.wake_eagerly = 1;
  FiberPool pool(4, options);
  constexpr int kLeaves = 512;
  std::atomic<int64_t> sum{0};
  struct Range {
    static void Run(std::atomic<int64_t>* sum, int lo, int hi) {
      FiberPool* p = FiberPool::Current();
      std::vector<LazyHandle> pending;
      while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        pending.push_back(
            p->SpawnLazy([sum, mid, hi] { Run(sum, mid, hi); }));
        hi = mid;
      }
      sum->fetch_add(lo);
      for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        p->JoinLazy(*it);
      }
    }
  };
  auto root = pool.Spawn([&] { Range::Run(&sum, 0, kLeaves); });
  pool.Join(root);
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kLeaves) * (kLeaves - 1) / 2);
  const FiberPoolStats s = pool.stats();
  EXPECT_EQ(s.lazy_spawns, static_cast<uint64_t>(kLeaves - 1));
  EXPECT_EQ(s.lazy_promotions + s.lazy_inlines, s.lazy_spawns);
  EXPECT_EQ(s.timeout_rescues, 0u);
}

}  // namespace
}  // namespace sa::fibers
