// The runtime base (rt::Runtime) and its thread table (rt::ThreadTable):
// every runtime kind creates its own address space and counts its threads
// through the one table, and the table commits joins by tid.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/rt/harness.h"
#include "src/rt/misbehaving_runtime.h"
#include "src/rt/topaz_runtime.h"
#include "src/ult/ult_runtime.h"

namespace sa {
namespace {

// A thread that forks a child and joins it: two threads per spawn.
sim::Program ForkJoin(rt::ThreadCtx& t) {
  rt::WorkloadFn child = [](rt::ThreadCtx& c) -> sim::Program {
    co_await c.Compute(sim::Usec(40));
  };
  const int tid = co_await t.Fork(std::move(child));
  co_await t.Compute(sim::Usec(20));
  co_await t.Join(tid);
}

TEST(RuntimeBase, EveryKindOwnsItsSpaceAndCountsItsThreads) {
  rt::HarnessConfig config;
  config.processors = 4;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  kern::Kernel* kernel = &h.kernel();
  ult::UltConfig uc;
  uc.max_vcpus = 2;

  rt::TopazRuntime topaz(kernel, "topaz");
  rt::TopazRuntime ultrix(kernel, "ultrix", /*heavyweight=*/true, /*priority=*/1);
  ult::UltRuntime original(kernel, "orig-ft", ult::BackendKind::kKernelThreads, uc);
  ult::UltRuntime modified(kernel, "new-ft", ult::BackendKind::kSchedulerActivations, uc,
                           /*priority=*/2);
  rt::MisbehavingRuntime adversary(kernel, "adversary", /*claimed_demand=*/1,
                                   /*priority=*/3);
  struct Kind {
    rt::Runtime* rt;
    kern::AsMode mode;
    int priority;
    bool hosts_threads;
  };
  const std::vector<Kind> kinds = {
      {&topaz, kern::AsMode::kKernelThreads, 0, true},
      {&ultrix, kern::AsMode::kKernelThreads, 1, true},
      {&original, kern::AsMode::kKernelThreads, 0, true},
      {&modified, kern::AsMode::kSchedulerActivations, 2, true},
      {&adversary, kern::AsMode::kSchedulerActivations, 3, false},
  };

  for (const Kind& k : kinds) {
    const kern::AddressSpace* as = k.rt->address_space();
    ASSERT_NE(as, nullptr) << k.rt->name();
    EXPECT_EQ(as->name(), k.rt->name());
    EXPECT_EQ(as->mode(), k.mode) << k.rt->name();
    EXPECT_EQ(as->priority(), k.priority) << k.rt->name();
    EXPECT_EQ(as->heavyweight(), k.rt == &ultrix) << k.rt->name();
    // Empty: done, with nothing created or finished.
    EXPECT_TRUE(k.rt->AllDone()) << k.rt->name();
    EXPECT_EQ(k.rt->threads_created(), 0u) << k.rt->name();
    EXPECT_EQ(k.rt->threads_finished(), 0u) << k.rt->name();
  }

  for (const Kind& k : kinds) {
    if (!k.hosts_threads) {
      continue;
    }
    for (int i = 0; i < 2; ++i) {
      k.rt->Spawn(ForkJoin, "fj" + std::to_string(i));
    }
    EXPECT_FALSE(k.rt->AllDone()) << k.rt->name();
    EXPECT_EQ(k.rt->threads_created(), 2u) << k.rt->name();
    EXPECT_EQ(k.rt->threads_finished(), 0u) << k.rt->name();
    h.AddRuntime(k.rt);
  }
  const rt::RunResult result = h.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;

  for (const Kind& k : kinds) {
    const size_t threads = k.hosts_threads ? 4 : 0;  // two spawns, two children
    EXPECT_TRUE(k.rt->AllDone()) << k.rt->name();
    EXPECT_EQ(k.rt->threads_created(), threads) << k.rt->name();
    EXPECT_EQ(k.rt->threads_finished(), threads) << k.rt->name();
  }
}

// Counts the copies made of the closure that holds it; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&& other) noexcept : copies(other.copies) {}
  int* copies;
};

// A fork moves its body into the child: a closure built once and moved into
// Fork or ForkLazy is never copied on its way to the child's record, under
// kernel threads and under FastThreads on both backends.
TEST(RuntimeBase, ForkMovesItsBodyIntoTheChild) {
  struct Kind {
    const char* name;
    kern::KernelMode mode;
    std::function<std::unique_ptr<rt::Runtime>(kern::Kernel*)> make;
  };
  ult::UltConfig uc;
  uc.max_vcpus = 2;
  const std::vector<Kind> kinds = {
      {"topaz", kern::KernelMode::kNativeTopaz,
       [](kern::Kernel* k) { return std::make_unique<rt::TopazRuntime>(k, "topaz"); }},
      {"orig-ft", kern::KernelMode::kNativeTopaz,
       [uc](kern::Kernel* k) {
         return std::make_unique<ult::UltRuntime>(k, "orig-ft",
                                                  ult::BackendKind::kKernelThreads, uc);
       }},
      {"new-ft", kern::KernelMode::kSchedulerActivations,
       [uc](kern::Kernel* k) {
         return std::make_unique<ult::UltRuntime>(
             k, "new-ft", ult::BackendKind::kSchedulerActivations, uc);
       }},
  };
  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.name);
    rt::HarnessConfig config;
    config.processors = 2;
    config.kernel.mode = kind.mode;
    rt::Harness h(config);
    std::unique_ptr<rt::Runtime> runtime = kind.make(&h.kernel());
    int copies = 0;
    std::vector<int> seen;  // the copy count as each child starts
    runtime->Spawn(
        [&copies, &seen](rt::ThreadCtx& t) -> sim::Program {
          std::vector<int> kids;
          for (int i = 0; i < 6; ++i) {
            rt::WorkloadFn body = [counter = CopyCounter(&copies),
                                   &seen](rt::ThreadCtx& c) -> sim::Program {
              seen.push_back(*counter.copies);
              co_await c.Compute(sim::Usec(10));
            };
            int kid;
            if (i % 2 == 0) {
              kid = co_await t.Fork(std::move(body), "eager");
            } else {
              kid = co_await t.ForkLazy(std::move(body), "lazy");
            }
            kids.push_back(kid);
          }
          for (int kid : kids) {
            co_await t.Join(kid);
          }
        },
        "main");
    h.AddRuntime(runtime.get());
    const rt::RunResult result = h.TryRun();
    ASSERT_TRUE(result.ok()) << result.diagnostics;
    EXPECT_EQ(seen, std::vector<int>(6, 0));
    EXPECT_EQ(copies, 0);
  }
}

TEST(ThreadTable, JoinQueuesOnlyOnAThreadStillRunning) {
  rt::ThreadTable table;
  size_t counter = 0;  // the harness's finished-thread counter
  table.CountFinishesInto(&counter);
  rt::WorkThread* target = table.Create(nullptr, "target");
  rt::WorkThread* joiner = table.Create(nullptr, "joiner");
  rt::WorkThread* late = table.Create(nullptr, "late");
  const int tid = target->tid();

  // A live target queues the joiner.
  EXPECT_FALSE(table.Finished(tid));
  EXPECT_TRUE(table.Join(tid, joiner));
  ASSERT_EQ(target->joiners.size(), 1u);
  EXPECT_EQ(target->joiners[0], joiner);

  // Finish counts once, and a finished target queues nobody.
  table.Finish(target);
  EXPECT_EQ(table.finished(), 1u);
  EXPECT_EQ(counter, 1u);
  EXPECT_TRUE(table.Finished(tid));
  EXPECT_FALSE(table.Join(tid, late));
  EXPECT_EQ(target->joiners.size(), 1u);

  // Released and reused: the old tid stays finished, and a join on it
  // queues nothing on the thread the record serves now.
  target->joiners.clear();
  table.Release(target);
  rt::WorkThread* reuser = table.Create(nullptr, "reuser");
  ASSERT_EQ(reuser, target);
  EXPECT_NE(reuser->tid(), tid);
  EXPECT_TRUE(table.Finished(tid));
  EXPECT_FALSE(table.Finished(reuser->tid()));
  EXPECT_FALSE(table.Join(tid, late));
  EXPECT_TRUE(reuser->joiners.empty());

  table.Finish(reuser);
  EXPECT_EQ(table.finished(), 2u);
  EXPECT_EQ(counter, 2u);
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.records(), 3u);
}

// 100,000 create-finish-release cycles beside two long-lived threads: the
// tid index keeps only the blocks that hold a live thread, so it stays at a
// few blocks; a tid whose block was freed still reads as finished (a join
// on it returns at once), and the unfinished threads are listed in tid
// order.
TEST(ThreadTable, IndexFollowsTheLiveThreads) {
  rt::ThreadTable table;
  rt::WorkThread* main = table.Create(nullptr, "main");
  rt::WorkThread* later = nullptr;
  int early_tid = -1;
  size_t most_blocks = 0;
  for (int i = 0; i < 100'000; ++i) {
    if (i == 50'000) {
      later = table.Create(nullptr, "later");
    }
    rt::WorkThread* w = table.Create(nullptr, "short");
    if (i == 0) {
      early_tid = w->tid();
    }
    table.Finish(w);
    table.Release(w);
    most_blocks = std::max(most_blocks, table.index_blocks());
  }
  EXPECT_EQ(table.size(), 100'002u);
  EXPECT_EQ(table.records(), 3u);
  EXPECT_LE(most_blocks, 3u);  // main's, later's and the one being filled
  EXPECT_LE(table.index_blocks(), 3u);
  EXPECT_TRUE(table.Finished(early_tid));
  EXPECT_FALSE(table.Join(early_tid, main));
  EXPECT_TRUE(main->joiners.empty());
  EXPECT_FALSE(table.Finished(main->tid()));
  EXPECT_TRUE(table.Join(later->tid(), main));
  std::string unfinished;
  table.DescribeUnfinished(&unfinished);
  EXPECT_EQ(unfinished, "  thread 0 (main): not started\n  thread " +
                            std::to_string(later->tid()) + " (later): not started\n");
}

}  // namespace
}  // namespace sa
