// The paper's N-body application as a runnable workload (Section 5.3).
//
// Per time step the main thread builds the Barnes-Hut tree (sequential),
// forks one thread per task (a small chunk of bodies), and joins them.  Each
// task touches its bodies' pages through the application-managed buffer
// cache (a miss blocks in the kernel for 50 ms), performs its force
// computation (virtual cost = its real interaction count times a per-
// interaction cost calibrated to the CVAX's floating-point speed), and
// accumulates diagnostics under a user-level spinlock — the critical section
// whose inopportune preemption Section 3.3 is about.
//
// The physics is identical across runtimes (forces are computed from the
// real tree), so the sequential-time baseline is the same for every system.
// The host computes each step's forces on its spare cores (ForcePass), all
// within the one event that builds the step, so virtual time cannot see how
// many cores it used.

#ifndef SA_APPS_NBODY_WORKLOAD_H_
#define SA_APPS_NBODY_WORKLOAD_H_

#include <memory>
#include <vector>

#include "src/apps/buffer_cache.h"
#include "src/apps/nbody.h"
#include "src/rt/runtime.h"
#include "src/sim/engine.h"

namespace sa::apps {

struct NBodyConfig {
  int bodies = 1200;
  int steps = 3;
  int chunk = 3;  // bodies per task (one thread per task)
  double theta = 0.8;

  // Cost calibration (CVAX-era floating point).
  sim::Duration cost_per_interaction = sim::Usec(18);
  sim::Duration tree_build_per_body = sim::Usec(40);
  sim::Duration integrate_per_body = sim::Usec(2);
  sim::Duration task_accumulate_cs = sim::Usec(100);  // inside the spinlock
  sim::Duration seq_accumulate = sim::Usec(5);       // same work, no lock

  // Buffer cache (Figure 2).  memory_percent = 100 disables misses entirely
  // (the problem size was chosen so the cache fits in memory).
  double memory_percent = 100.0;
  int bodies_per_page = 24;
  sim::Duration miss_latency = sim::Msec(50);
  // Reference-string model for non-local touches: a fraction of tasks read a
  // remote body page; most remote reads hit a hot subset of pages.
  double remote_touch_fraction = 0.5;
  double hot_fraction = 0.30;
  double hot_probability = 0.80;

  // Use the lazy-fork (pcall) API: per step the main thread forks one root
  // range thread eagerly, and the range recursively splits via ForkLazy —
  // right halves become promotable frames, left halves descend inline.
  // Joins run newest-first so an unpromoted frame is inlined at procedure-
  // call cost while thieves and the heartbeat take the oldest (largest)
  // subranges (DESIGN.md §17).  Physics and per-task ops are identical to
  // the eager port, so the two are directly comparable (bench_heartbeat).
  bool lazy_fork = false;
  // Heartbeat period for the user-level-thread runtimes (copied into
  // UltConfig::heartbeat_us by RunNBody); 0 disables.  With lazy_fork off
  // this must not perturb the run at all — the heartbeat only ever arms
  // when a promotion stack is non-empty (trace_test / heartbeat_test assert
  // byte-identical seeded traces).
  int64_t heartbeat_us = 0;

  uint64_t seed = 12345;
  double dt = 0.05;
};

class NBodyApp {
 public:
  explicit NBodyApp(const NBodyConfig& config);

  // Spawns the main application thread on `rt`.  Call before harness.Run().
  void InstallOn(rt::Runtime* rt);

  bool done() const { return done_; }
  // When the run finished (requires set_clock before the run).
  void set_clock(sim::Engine* engine) { clock_ = engine; }
  sim::Time finished_at() const { return finished_at_; }
  int64_t total_interactions() const { return total_interactions_; }
  int total_tasks_run() const { return total_tasks_; }
  const BufferCache& cache() const { return *cache_; }
  const std::vector<Body>& bodies() const { return bodies_; }

  // Analytic sequential execution time for the identical computation
  // (valid after the run; misses excluded — used at 100% memory).
  sim::Duration SequentialTime() const;

 private:
  struct Task {
    sim::Duration cost = 0;
    int64_t page = -1;  // the remote body page it reads; -1 for none
  };

  void BuildStep();
  sim::Program MainThread(rt::ThreadCtx& t);
  sim::Program TaskThread(rt::ThreadCtx& t, int task_index);
  // Lazy-fork port: computes tasks [lo, hi) by recursive halving.
  sim::Program LazyRangeThread(rt::ThreadCtx& t, int lo, int hi);

  NBodyConfig config_;
  common::Rng rng_;
  common::Rng touch_rng_;
  std::vector<Body> bodies_;
  QuadTree tree_;
  ForcePass forces_;
  std::vector<int64_t> body_interactions_;  // this step's, by body
  std::unique_ptr<BufferCache> cache_;
  std::vector<Task> tasks_;
  int64_t num_pages_ = 0;
  int64_t hot_pages_ = 0;

  rt::Runtime* rt_ = nullptr;
  sim::Engine* clock_ = nullptr;
  sim::Time finished_at_ = 0;
  int lock_ = -1;
  bool done_ = false;
  int step_ = 0;
  int64_t total_interactions_ = 0;
  int total_tasks_ = 0;
  double diagnostics_ = 0;  // accumulated under the spinlock
};

}  // namespace sa::apps

#endif  // SA_APPS_NBODY_WORKLOAD_H_
