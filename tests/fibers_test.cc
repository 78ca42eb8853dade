// Native fiber library: correctness of context switching, scheduling,
// joining and synchronization on real hardware.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/fibers/fiber_pool.h"

namespace sa::fibers {
namespace {

TEST(Fibers, TracerRecordsHostClockEvents) {
  trace::TraceBuffer tb(1u << 14);
  tb.set_enabled(trace::cat::kFibers);
  std::atomic<int> ran{0};
  {
    FiberPool pool(2);
    pool.set_tracer(&tb);
    std::vector<FiberHandle> handles;
    for (int i = 0; i < 32; ++i) {
      handles.push_back(pool.Spawn([&] { ran.fetch_add(1); }));
    }
    for (auto& h : handles) {
      pool.Join(h);
    }
  }  // pool joined: workers have quiesced, the buffer is safe to read
  EXPECT_EQ(ran, 32);
  size_t spawns = 0;
  size_t switches = 0;
  for (const trace::Record& r : tb.Snapshot()) {
    if (static_cast<trace::Kind>(r.kind) == trace::Kind::kFibSpawn) {
      ++spawns;
    } else if (static_cast<trace::Kind>(r.kind) == trace::Kind::kFibSwitch) {
      ++switches;
    }
  }
  EXPECT_EQ(spawns, 32u);
  EXPECT_GE(switches, 32u);
}

TEST(Fibers, TracerInstalledWhileWorkersPark) {
  // The workers start in the pool's constructor, so a tracer is always
  // installed under their feet.  Let them park, install it while their timed
  // re-parks read the pointer, then trace a batch; ThreadSanitizer checks
  // the hand-off.
  trace::TraceBuffer tb(1u << 14);
  tb.set_enabled(trace::cat::kFibers);
  std::atomic<int> ran{0};
  {
    FiberPool pool(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.set_tracer(&tb);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<FiberHandle> handles;
    for (int i = 0; i < 32; ++i) {
      handles.push_back(pool.Spawn([&] { ran.fetch_add(1); }));
    }
    for (auto& h : handles) {
      pool.Join(h);
    }
  }
  EXPECT_EQ(ran, 32);
  size_t spawns = 0;
  for (const trace::Record& r : tb.Snapshot()) {
    spawns += static_cast<trace::Kind>(r.kind) == trace::Kind::kFibSpawn ? 1 : 0;
  }
  EXPECT_EQ(spawns, 32u);
}

TEST(Fibers, RunsASingleFiber) {
  FiberPool pool(1);
  std::atomic<int> ran{0};
  auto h = pool.Spawn([&] { ran = 1; });
  pool.Join(h);
  EXPECT_EQ(ran, 1);
}

TEST(Fibers, ArgumentsAndCapturesSurviveTheContextSwitch) {
  FiberPool pool(1);
  std::vector<int> results;
  std::vector<FiberHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(pool.Spawn([&results, i] { results.push_back(i * i); }));
  }
  for (auto& h : handles) {
    pool.Join(h);
  }
  ASSERT_EQ(results.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
}

TEST(Fibers, YieldInterleavesFibers) {
  FiberPool pool(1);
  // A gate fiber keeps the worker busy until both yielders are queued, so
  // the interleaving below is deterministic on one worker.
  std::atomic<bool> gate{false};
  std::vector<int> order;
  auto g = pool.Spawn([&] {
    while (!gate.load()) {
      FiberPool::Yield();
    }
  });
  auto a = pool.Spawn([&] {
    order.push_back(1);
    FiberPool::Yield();
    order.push_back(3);
  });
  auto b = pool.Spawn([&] {
    order.push_back(2);
    FiberPool::Yield();
    order.push_back(4);
  });
  gate = true;
  pool.Join(a);
  pool.Join(b);
  pool.Join(g);
  // The per-worker scheduler is LIFO for fresh work and FIFO after a yield;
  // the exact interleaving is scheduler-defined, but on one worker each
  // fiber's first half must precede its second half, yields must let the
  // other fibers through (the gate fiber only exits because the worker kept
  // dispatching while it spun), and all four events appear exactly once.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_LT(std::find(order.begin(), order.end(), 1) - order.begin(),
            std::find(order.begin(), order.end(), 3) - order.begin());
  EXPECT_LT(std::find(order.begin(), order.end(), 2) - order.begin(),
            std::find(order.begin(), order.end(), 4) - order.begin());
}

TEST(Fibers, FiberToFiberJoin) {
  FiberPool pool(1);
  int stage = 0;
  auto h = pool.Spawn([&] {
    auto child = FiberPool::Current()->Spawn([&] {
      FiberPool::Yield();
      stage = 1;
    });
    FiberPool::Current()->Join(child);
    EXPECT_EQ(stage, 1);
    stage = 2;
  });
  pool.Join(h);
  EXPECT_EQ(stage, 2);
}

TEST(Fibers, ManyFibersRecycleStacks) {
  FiberPool pool(1);
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    std::vector<FiberHandle> handles;
    for (int i = 0; i < 50; ++i) {
      handles.push_back(pool.Spawn([&] { count.fetch_add(1); }));
    }
    for (auto& h : handles) {
      pool.Join(h);
    }
  }
  EXPECT_EQ(count, 1000);
}

TEST(Fibers, MutexProvidesMutualExclusion) {
  FiberPool pool(2);
  FiberMutex mu;
  int counter = 0;
  std::vector<FiberHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(pool.Spawn([&] {
      for (int k = 0; k < 1000; ++k) {
        mu.Lock();
        // Non-atomic increment: torn updates would show without the mutex.
        counter = counter + 1;
        mu.Unlock();
      }
    }));
  }
  for (auto& h : handles) {
    pool.Join(h);
  }
  EXPECT_EQ(counter, 8000);
}

TEST(Fibers, SemaphorePingPong) {
  FiberPool pool(1);
  FiberSemaphore ping(0), pong(0);
  int rounds = 0;
  auto a = pool.Spawn([&] {
    for (int i = 0; i < 100; ++i) {
      ping.Post();
      pong.Wait();
    }
  });
  auto b = pool.Spawn([&] {
    for (int i = 0; i < 100; ++i) {
      ping.Wait();
      ++rounds;
      pong.Post();
    }
  });
  pool.Join(a);
  pool.Join(b);
  EXPECT_EQ(rounds, 100);
}

TEST(Fibers, DeepStackUsageSurvives) {
  FiberPool pool(1, /*stack_size=*/256 * 1024);
  double result = 0;
  auto h = pool.Spawn([&] {
    // ~64 KiB of live stack data across a yield.
    volatile double buf[8192];
    for (int i = 0; i < 8192; ++i) {
      buf[i] = i * 0.5;
    }
    FiberPool::Yield();
    double sum = 0;
    for (int i = 0; i < 8192; ++i) {
      sum += buf[i];
    }
    result = sum;
  });
  pool.Join(h);
  EXPECT_DOUBLE_EQ(result, 0.5 * 8191.0 * 8192.0 / 2.0);
}

TEST(Fibers, WorkDistributesAcrossWorkers) {
  FiberPool pool(4);
  std::atomic<int> done{0};
  std::vector<FiberHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(pool.Spawn([&] {
      for (int k = 0; k < 4; ++k) {
        FiberPool::Yield();
      }
      done.fetch_add(1);
    }));
  }
  for (auto& h : handles) {
    pool.Join(h);
  }
  EXPECT_EQ(done, 64);
  EXPECT_GT(pool.switches(), 64u * 5);
}

TEST(Fibers, SwitchCountTracksActivity) {
  FiberPool pool(1);
  const uint64_t before = pool.switches();
  auto h = pool.Spawn([] {
    for (int i = 0; i < 10; ++i) {
      FiberPool::Yield();
    }
  });
  pool.Join(h);
  EXPECT_GE(pool.switches() - before, 20u);
}

}  // namespace
}  // namespace sa::fibers
