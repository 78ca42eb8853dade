#include "src/apps/nbody_workload.h"

#include <cmath>
#include <numeric>

namespace sa::apps {

NBodyApp::NBodyApp(const NBodyConfig& config)
    : config_(config), rng_(config.seed), touch_rng_(config.seed ^ 0x9e3779b9) {
  SA_CHECK(config_.bodies > 0 && config_.steps > 0 && config_.chunk > 0);
  bodies_ = MakeDisk(config_.bodies, &rng_);
  num_pages_ = (config_.bodies + config_.bodies_per_page - 1) / config_.bodies_per_page;
  hot_pages_ = std::max<int64_t>(1, static_cast<int64_t>(
                                        config_.hot_fraction * static_cast<double>(num_pages_)));
  size_t capacity = 0;  // infinite
  if (config_.memory_percent < 100.0) {
    capacity = static_cast<size_t>(std::ceil(config_.memory_percent / 100.0 *
                                             static_cast<double>(num_pages_)));
    capacity = std::max<size_t>(capacity, 2);
  }
  cache_ = std::make_unique<BufferCache>(capacity);
  // Warm start: the cache begins full (hot pages first).
  for (int64_t p = 0; p < num_pages_; ++p) {
    if (capacity != 0 && p >= static_cast<int64_t>(capacity)) {
      break;
    }
    cache_->Prefill(p);
  }
}

NBodyApp::~NBodyApp() {
  if (!producer_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    stop_ = true;
  }
  freed_.notify_one();
  producer_.join();
}

int NBodyApp::steps_produced() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return produced_;
}

// An exception here ends the program, as one in the simulation's
// coroutines does (sim::Program terminates on one).
void NBodyApp::Produce() {
  for (int step = 0; step < config_.steps; ++step) {
    {
      std::unique_lock<std::mutex> lock(ring_mu_);
      freed_.wait(lock, [&] { return stop_ || step - taken_ < kRingDepth; });
      if (stop_) {
        return;
      }
    }
    tree_.Build(bodies_);
    // Forces in the tree's leaf order, where consecutive bodies are
    // neighbours whose walks read mostly the same cells, on the host's cores.
    forces_.Run(tree_, bodies_, config_.theta);
    const std::vector<int>& order = tree_.leaf_order();
    std::vector<int64_t>& counts = ring_[static_cast<size_t>(step % kRingDepth)];
    counts.resize(bodies_.size());
    for (size_t k = 0; k < order.size(); ++k) {
      const ForcePass::Result& r = forces_.results()[k];
      const size_t i = static_cast<size_t>(order[k]);
      bodies_[i].ax = r.acc.x;
      bodies_[i].ay = r.acc.y;
      counts[i] = r.interactions;
    }
    Integrate(&bodies_, config_.dt);
    {
      std::lock_guard<std::mutex> lock(ring_mu_);
      produced_ = step + 1;
    }
    filled_.notify_one();
  }
}

void NBodyApp::BuildStep() {
  if (!producer_.joinable()) {
    producer_ = StartHostThread([this] { Produce(); });
  }
  {
    std::unique_lock<std::mutex> lock(ring_mu_);
    filled_.wait(lock, [this] { return produced_ > step_; });
  }
  const std::vector<int64_t>& counts = ring_[static_cast<size_t>(step_ % kRingDepth)];
  const int n = config_.bodies;
  const int num_tasks = (n + config_.chunk - 1) / config_.chunk;
  tasks_.assign(static_cast<size_t>(num_tasks), Task{});
  for (int task = 0; task < num_tasks; ++task) {
    Task& tk = tasks_[static_cast<size_t>(task)];
    const int begin = task * config_.chunk;
    const int end = std::min(n, begin + config_.chunk);
    const int64_t interactions =
        std::accumulate(counts.begin() + begin, counts.begin() + end, int64_t{0});
    total_interactions_ += interactions;
    tk.cost = interactions * config_.cost_per_interaction;
    // Reference string: a task's own bodies stream through a double buffer
    // (sequential sweep; kept out of the cache — LRU is pathological under
    // cyclic sweeps and the real application would not cache a stream).
    // Random-access reads of *remote* bodies go through the buffer cache:
    // a fraction of tasks reads one remote page, mostly from a hot subset
    // (the densely-populated centre of the disk).
    if (touch_rng_.NextDouble() < config_.remote_touch_fraction) {
      const int64_t pages =
          touch_rng_.NextDouble() < config_.hot_probability ? hot_pages_ : num_pages_;
      tk.page = static_cast<int64_t>(touch_rng_.Below(static_cast<uint64_t>(pages)));
    }
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    taken_ = step_ + 1;
  }
  freed_.notify_one();
}

sim::Program NBodyApp::TaskThread(rt::ThreadCtx& t, int task_index) {
  const Task& task = tasks_[static_cast<size_t>(task_index)];
  if (task.page >= 0 && !cache_->Touch(task.page)) {
    co_await t.Io(config_.miss_latency);  // blocks in the kernel, 50 ms
  }
  co_await t.Compute(task.cost);
  co_await t.Acquire(lock_);
  co_await t.Compute(config_.task_accumulate_cs);
  diagnostics_ += 1.0;
  co_await t.Release(lock_);
  ++total_tasks_;
}

sim::Program NBodyApp::LazyRangeThread(rt::ThreadCtx& t, int lo, int hi) {
  // Cilk-style descent: lazily fork the right half, keep the left half in
  // this thread, repeat until a single task remains.  The forked frames sit
  // on the local promotion stack, oldest = largest subrange, so a thief or
  // the heartbeat peels off the biggest chunk of remaining work.
  std::vector<int> pending;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    const int tid = co_await t.ForkLazy(
        [this, mid, hi](rt::ThreadCtx& c) -> sim::Program {
          return LazyRangeThread(c, mid, hi);
        },
        "nbody-range");
    pending.push_back(tid);
    hi = mid;
  }
  // Leaf: the per-task ops, identical to the eager port's TaskThread.
  const Task& task = tasks_[static_cast<size_t>(lo)];
  if (task.page >= 0 && !cache_->Touch(task.page)) {
    co_await t.Io(config_.miss_latency);
  }
  co_await t.Compute(task.cost);
  co_await t.Acquire(lock_);
  co_await t.Compute(config_.task_accumulate_cs);
  diagnostics_ += 1.0;
  co_await t.Release(lock_);
  ++total_tasks_;
  // Join newest-first: a still-unpromoted frame (nobody wanted the
  // parallelism) runs inline here at procedure-call cost; promoted ones are
  // real threads and this is an ordinary join.
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    co_await t.Join(*it);
  }
}

sim::Program NBodyApp::MainThread(rt::ThreadCtx& t) {
  for (step_ = 0; step_ < config_.steps; ++step_) {
    BuildStep();
    co_await t.Compute(config_.tree_build_per_body * config_.bodies);
    const int num_tasks = static_cast<int>(tasks_.size());
    if (config_.lazy_fork) {
      // One eager fork per step; all further division is lazy.
      const int root = co_await t.Fork(
          [this, num_tasks](rt::ThreadCtx& c) -> sim::Program {
            return LazyRangeThread(c, 0, num_tasks);
          },
          "nbody-root");
      co_await t.Join(root);
    } else {
      std::vector<int> tids;
      tids.reserve(tasks_.size());
      for (int i = 0; i < num_tasks; ++i) {
        const int tid = co_await t.Fork(
            [this, i](rt::ThreadCtx& c) -> sim::Program { return TaskThread(c, i); },
            "nbody-task");
        tids.push_back(tid);
      }
      for (int tid : tids) {
        co_await t.Join(tid);
      }
    }
    co_await t.Compute(config_.integrate_per_body * config_.bodies);
  }
  done_ = true;
  if (clock_ != nullptr) {
    finished_at_ = clock_->now();
  }
}

void NBodyApp::InstallOn(rt::Runtime* rt) {
  rt_ = rt;
  lock_ = rt->CreateLock(rt::LockKind::kSpin);
  rt->Spawn([this](rt::ThreadCtx& t) -> sim::Program { return MainThread(t); },
            "nbody-main");
}

sim::Duration NBodyApp::SequentialTime() const {
  sim::Duration per_step_fixed =
      config_.tree_build_per_body * config_.bodies +
      config_.integrate_per_body * config_.bodies;
  return config_.steps * per_step_fixed +
         total_interactions_ * config_.cost_per_interaction +
         static_cast<sim::Duration>(total_tasks_) * config_.seq_accumulate;
}

}  // namespace sa::apps
