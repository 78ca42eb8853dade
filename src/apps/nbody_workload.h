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
// The whole trajectory (trees, forces, interaction counts, positions)
// depends only on the seed, never on the simulated schedule, so a host
// producer thread computes it ahead of the simulation: each step's tree
// build, force pass (ForcePass, on the host's spare cores) and integration
// fill one slot of a kRingDepth-slot ring, and the event that starts a step
// only takes that step's interaction counts from its slot, waiting if the
// producer is behind.  Virtual time reads nothing but the counts, so it
// cannot see how far ahead the producer ran or how many cores it used.

#ifndef SA_APPS_NBODY_WORKLOAD_H_
#define SA_APPS_NBODY_WORKLOAD_H_

#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
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
  // Slots of the ring between the producer and the simulation.
  static constexpr int kRingDepth = 2;

  explicit NBodyApp(const NBodyConfig& config);
  // Stops and joins the producer, wherever it is: computing a step, or
  // waiting on a full ring because the run ended before the app did.
  ~NBodyApp();
  NBodyApp(const NBodyApp&) = delete;
  NBodyApp& operator=(const NBodyApp&) = delete;

  // Spawns the main application thread on `rt`.  Call before harness.Run().
  void InstallOn(rt::Runtime* rt);

  bool done() const { return done_; }
  // When the run finished (requires set_clock before the run).
  void set_clock(sim::Engine* engine) { clock_ = engine; }
  sim::Time finished_at() const { return finished_at_; }
  int64_t total_interactions() const { return total_interactions_; }
  int total_tasks_run() const { return total_tasks_; }
  const BufferCache& cache() const { return *cache_; }
  // The initial bodies before the run, the final ones once done(); the
  // producer moves them in between.
  const std::vector<Body>& bodies() const { return bodies_; }
  // Steps the producer has finished so far.
  int steps_produced() const;

  // Analytic sequential execution time for the identical computation
  // (valid after the run; misses excluded — used at 100% memory).
  sim::Duration SequentialTime() const;

 private:
  struct Task {
    sim::Duration cost = 0;
    int64_t page = -1;  // the remote body page it reads; -1 for none
  };

  // Takes step step_'s interaction counts from the ring (starting the
  // producer at the first step) and derives the step's tasks.
  void BuildStep();
  // The producer thread: computes steps into the ring until every step is
  // done or the app stops it.
  void Produce();
  sim::Program MainThread(rt::ThreadCtx& t);
  sim::Program TaskThread(rt::ThreadCtx& t, int task_index);
  // Lazy-fork port: computes tasks [lo, hi) by recursive halving.
  sim::Program LazyRangeThread(rt::ThreadCtx& t, int lo, int hi);

  NBodyConfig config_;
  common::Rng rng_;
  common::Rng touch_rng_;
  // Touched only by the producer thread while it runs.
  std::vector<Body> bodies_;
  QuadTree tree_;
  ForcePass forces_;
  // Step s's interaction counts, by body, in slot s % kRingDepth.  A slot
  // belongs to the producer until it publishes the step, then to the
  // simulation until it takes the step.
  std::array<std::vector<int64_t>, kRingDepth> ring_;
  mutable std::mutex ring_mu_;
  std::condition_variable filled_;  // the simulation: a step was published
  std::condition_variable freed_;   // the producer: a slot was freed, or stop
  int produced_ = 0;                // steps published; guarded by ring_mu_
  int taken_ = 0;                   // steps taken; guarded by ring_mu_
  bool stop_ = false;               // guarded by ring_mu_
  std::thread producer_;
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
