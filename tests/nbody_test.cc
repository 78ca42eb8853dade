// Barnes-Hut N-body, buffer cache, and the N-body workload driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "src/apps/buffer_cache.h"
#include "src/apps/experiments.h"
#include "src/apps/nbody.h"
#include "src/apps/nbody_workload.h"
#include "src/inject/fault_plan.h"
#include "src/rt/harness.h"
#include "src/ult/ult_runtime.h"

namespace sa::apps {
namespace {

// ---- tree code ----

// The reference Barnes-Hut tree: a node pool built by inserting the bodies
// one at a time, summarized recursively, and walked with an explicit LIFO
// stack that pushes children 0..3.  QuadTree must reproduce its forces and
// interaction counts bit for bit.
class ReferenceTree {
 public:
  void Build(const std::vector<Body>& bodies) {
    nodes_.clear();
    if (bodies.empty()) {
      return;
    }
    double lo = bodies[0].x, hi = bodies[0].x;
    for (const Body& b : bodies) {
      lo = std::min({lo, b.x, b.y});
      hi = std::max({hi, b.x, b.y});
    }
    const double half = std::max((hi - lo) / 2.0, 1e-9) * 1.001;
    const double cx = (hi + lo) / 2.0;
    NewNode(cx, cx, half);
    for (int i = 0; i < static_cast<int>(bodies.size()); ++i) {
      Insert(0, bodies, i);
    }
    Summarize(0, bodies);
  }

  Vec2 ForceOn(const std::vector<Body>& bodies, int i, double theta,
               int64_t* interactions) const {
    Vec2 acc;
    const Body& b = bodies[static_cast<size_t>(i)];
    if (nodes_.empty()) {
      return acc;
    }
    std::vector<int> stack;
    stack.push_back(0);
    while (!stack.empty()) {
      const Node& node = nodes_[static_cast<size_t>(stack.back())];
      stack.pop_back();
      if (node.count == 0 || (node.count == 1 && node.body == i)) {
        continue;
      }
      const double dx = node.comx - b.x;
      const double dy = node.comy - b.y;
      const double d2 = dx * dx + dy * dy + QuadTree::kSoftening2;
      const double width = 2.0 * node.half;
      const bool is_leaf = node.body >= 0 || node.count == 1;
      if (is_leaf || width * width < theta * theta * d2) {
        const double inv = 1.0 / std::sqrt(d2);
        const double f = node.mass * inv * inv * inv;
        acc.x += f * dx;
        acc.y += f * dy;
        ++*interactions;
        continue;
      }
      for (int c : node.children) {
        if (c >= 0) {
          stack.push_back(c);
        }
      }
    }
    return acc;
  }

 private:
  struct Node {
    double cx = 0, cy = 0, half = 0;
    double mass = 0;
    double comx = 0, comy = 0;
    int children[4] = {-1, -1, -1, -1};
    int body = -1;
    int count = 0;
  };

  int NewNode(double cx, double cy, double half) {
    Node node;
    node.cx = cx;
    node.cy = cy;
    node.half = half;
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Returns the child of `ni` in quadrant `quad`, creating it if absent.
  int Child(int ni, int quad) {
    const Node node = nodes_[static_cast<size_t>(ni)];  // NewNode may reallocate
    if (node.children[quad] >= 0) {
      return node.children[quad];
    }
    const double qh = node.half / 2.0;
    const int child = NewNode(node.cx + (quad & 1 ? qh : -qh), node.cy + (quad & 2 ? qh : -qh), qh);
    nodes_[static_cast<size_t>(ni)].children[quad] = child;
    return child;
  }

  static int Quadrant(const Node& node, const Body& b) {
    return (b.x >= node.cx ? 1 : 0) | (b.y >= node.cy ? 2 : 0);
  }

  void Insert(int ni, const std::vector<Body>& bodies, int body) {
    for (;;) {
      Node& node = nodes_[static_cast<size_t>(ni)];
      if (node.count == 0) {
        node.body = body;
        node.count = 1;
        return;
      }
      if (node.body >= 0) {  // split a leaf: push its body down first
        const int existing = node.body;
        node.body = -1;
        const int quad = Quadrant(node, bodies[static_cast<size_t>(existing)]);
        Insert(Child(ni, quad), bodies, existing);
      }
      ++nodes_[static_cast<size_t>(ni)].count;
      ni = Child(ni, Quadrant(nodes_[static_cast<size_t>(ni)], bodies[static_cast<size_t>(body)]));
    }
  }

  void Summarize(int ni, const std::vector<Body>& bodies) {
    if (nodes_[static_cast<size_t>(ni)].body >= 0) {
      Node& node = nodes_[static_cast<size_t>(ni)];
      const Body& b = bodies[static_cast<size_t>(node.body)];
      node.mass = b.mass;
      node.comx = b.x;
      node.comy = b.y;
      return;
    }
    double mass = 0, mx = 0, my = 0;
    for (int c : nodes_[static_cast<size_t>(ni)].children) {
      if (c < 0) {
        continue;
      }
      Summarize(c, bodies);
      const Node& child = nodes_[static_cast<size_t>(c)];
      mass += child.mass;
      mx += child.comx * child.mass;
      my += child.comy * child.mass;
    }
    Node& node = nodes_[static_cast<size_t>(ni)];
    node.mass = mass;
    node.comx = mass > 0 ? mx / mass : node.cx;
    node.comy = mass > 0 ? my / mass : node.cy;
  }

  std::vector<Node> nodes_;
};

// Holds QuadTree to ReferenceTree bit for bit: both acceleration components
// and the interaction count of every body.
void ExpectMatchesReference(const std::vector<Body>& bodies, double theta) {
  QuadTree tree;
  tree.Build(bodies);
  ReferenceTree reference;
  reference.Build(bodies);
  int mismatches = 0;
  int first = -1;
  for (int i = 0; i < static_cast<int>(bodies.size()); ++i) {
    int64_t got_n = 0, want_n = 0;
    const Vec2 got = tree.ForceOn(bodies, i, theta, &got_n);
    const Vec2 want = reference.ForceOn(bodies, i, theta, &want_n);
    if (std::bit_cast<uint64_t>(got.x) != std::bit_cast<uint64_t>(want.x) ||
        std::bit_cast<uint64_t>(got.y) != std::bit_cast<uint64_t>(want.y) || got_n != want_n) {
      first = first < 0 ? i : first;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << bodies.size() << " bodies at theta " << theta
                           << "; first is body " << first;
}

TEST(QuadTree, MatchesReferenceTreeBitForBit) {
  for (int n : {1, 2, 3, 200, 4000}) {
    common::Rng rng(static_cast<uint64_t>(n));
    const auto bodies = MakeDisk(n, &rng);
    for (double theta : {0.0, 0.5, 0.8, 1.5}) {
      ExpectMatchesReference(bodies, theta);
    }
  }
}

TEST(QuadTree, MatchesReferenceTreeOnCentreLinesAndInClusters) {
  // A grid over [-1, 1]^2 puts the root's centre at (0, 0) and a row and a
  // column of bodies exactly on its centre lines, where the quadrant test's
  // `>=` decides the side.
  std::vector<Body> grid;
  for (int gx = -4; gx <= 4; ++gx) {
    for (int gy = -4; gy <= 4; ++gy) {
      Body b;
      b.x = gx / 4.0;
      b.y = gy / 4.0;
      b.mass = 1.0 + 0.01 * static_cast<double>(grid.size());
      grid.push_back(b);
    }
  }
  // A disk with a tight cluster: bodies 1e-7 apart build a deep tree.
  common::Rng rng(23);
  std::vector<Body> cluster = MakeDisk(300, &rng);
  for (int k = 0; k < 40; ++k) {
    Body b;
    b.x = 0.25 + 1e-7 * k;
    b.y = -0.5 + 1e-7 * ((k * 7) % 40);
    b.mass = 1.0 / 300;
    cluster.push_back(b);
  }
  for (double theta : {0.0, 0.5, 0.8, 1.5}) {
    ExpectMatchesReference(grid, theta);
    ExpectMatchesReference(cluster, theta);
  }
}

TEST(QuadTree, MatchesDirectSummationAtSmallTheta) {
  common::Rng rng(17);
  const auto bodies = MakeDisk(200, &rng);
  QuadTree tree;
  tree.Build(bodies);
  // theta -> 0 forces full expansion: results must match direct summation.
  for (int i = 0; i < 200; i += 17) {
    int64_t interactions = 0;
    const Vec2 approx = tree.ForceOn(bodies, i, /*theta=*/0.0, &interactions);
    const Vec2 exact = DirectForce(bodies, i);
    EXPECT_NEAR(approx.x, exact.x, 1e-9);
    EXPECT_NEAR(approx.y, exact.y, 1e-9);
    EXPECT_EQ(interactions, 199);  // one term per other body
  }
}

TEST(QuadTree, ApproximationErrorIsSmallAtModerateTheta) {
  common::Rng rng(18);
  const auto bodies = MakeDisk(500, &rng);
  QuadTree tree;
  tree.Build(bodies);
  // Normalize by the mean force magnitude: bodies near the disk centre have
  // near-zero net force, which makes per-body relative error meaningless.
  // Accuracy improves as theta shrinks (the Barnes-Hut accuracy/speed knob).
  double prev_error = 1e9;
  for (double theta : {0.8, 0.5, 0.2}) {
    double err_sum = 0, mag_sum = 0;
    for (int i = 0; i < 500; i += 23) {
      int64_t interactions = 0;
      const Vec2 approx = tree.ForceOn(bodies, i, theta, &interactions);
      const Vec2 exact = DirectForce(bodies, i);
      mag_sum += std::hypot(exact.x, exact.y);
      err_sum += std::hypot(approx.x - exact.x, approx.y - exact.y);
      EXPECT_LT(interactions, 500);  // never worse than direct summation
    }
    const double rel = err_sum / mag_sum;
    EXPECT_LT(rel, prev_error);  // monotone in theta
    prev_error = rel;
  }
  EXPECT_LT(prev_error, 0.01);  // theta = 0.2: well under 1% mean error
}

TEST(QuadTree, InteractionCountGrowsSubquadratically) {
  common::Rng rng(19);
  int64_t small_total = 0, large_total = 0;
  {
    const auto bodies = MakeDisk(250, &rng);
    QuadTree tree;
    tree.Build(bodies);
    for (int i = 0; i < 250; ++i) {
      tree.ForceOn(bodies, i, 0.8, &small_total);
    }
  }
  {
    const auto bodies = MakeDisk(1000, &rng);
    QuadTree tree;
    tree.Build(bodies);
    for (int i = 0; i < 1000; ++i) {
      tree.ForceOn(bodies, i, 0.8, &large_total);
    }
  }
  // 4x the bodies: O(N^2) would give 16x the interactions; O(N log N)
  // should stay well under 8x.
  EXPECT_LT(large_total, 8 * small_total);
}

TEST(QuadTree, MassIsConserved) {
  common::Rng rng(20);
  const auto bodies = MakeDisk(300, &rng);
  QuadTree tree;
  tree.Build(bodies);
  double total = 0;
  for (const Body& b : bodies) {
    total += b.mass;
  }
  const auto& cells = tree.cells();
  EXPECT_NEAR(cells[0].mass, total, 1e-9);
  EXPECT_EQ(cells[0].skip, static_cast<int>(cells.size()));  // the root spans the array
  EXPECT_EQ(std::count_if(cells.begin(), cells.end(),
                          [](const QuadTree::Cell& c) { return c.body >= 0; }),
            300);
}

// ---- parallel force pass ----

// Counts the leaves whose ForcePass result differs from a plain ForceOn loop
// over the leaf order in the bits of either acceleration component or in the
// interaction count.  The results are copied first, so a pass that returned
// before its workers finished shows as mismatches.
int PassMismatches(const ForcePass& pass, const QuadTree& tree,
                   const std::vector<Body>& bodies, double theta) {
  const std::vector<ForcePass::Result> results = pass.results();
  const std::vector<int>& order = tree.leaf_order();
  EXPECT_EQ(results.size(), order.size());
  int mismatches = 0;
  for (size_t k = 0; k < order.size() && k < results.size(); ++k) {
    int64_t want_n = 0;
    const Vec2 want = tree.ForceOn(bodies, order[k], theta, &want_n);
    const ForcePass::Result& got = results[k];
    if (std::bit_cast<uint64_t>(got.acc.x) != std::bit_cast<uint64_t>(want.x) ||
        std::bit_cast<uint64_t>(got.acc.y) != std::bit_cast<uint64_t>(want.y) ||
        got.interactions != want_n) {
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(ForcePass, EqualsTheSequentialWalkForAnyWorkerCount) {
  for (int n : {1, 2, 63, 64, 65, 1200, 4000}) {
    common::Rng rng(static_cast<uint64_t>(n));
    const auto bodies = MakeDisk(n, &rng);
    QuadTree tree;
    tree.Build(bodies);
    const int blocks = (n + ForcePass::kBlock - 1) / ForcePass::kBlock;
    for (int max_workers : {0, 1, 3}) {
      ForcePass pass(max_workers);
      pass.Run(tree, bodies, 0.8);
      // One worker per block beyond the caller's, at most max_workers.
      EXPECT_EQ(pass.workers(), std::min(max_workers, blocks - 1));
      EXPECT_EQ(PassMismatches(pass, tree, bodies, 0.8), 0)
          << n << " bodies, " << max_workers << " workers";
    }
  }
}

TEST(ForcePass, UnusedWorkerSetIsDestroyedCleanly) {
  ForcePass pass(3);
  EXPECT_EQ(pass.workers(), 0);  // the workers start with the first pass
}

// One worker set serves a whole run: many passes over moving bodies, each
// equal to the sequential walk, then a clean join.
TEST(ForcePass, ServesManyPasses) {
  common::Rng rng(29);
  std::vector<Body> bodies = MakeDisk(700, &rng);
  QuadTree tree;
  ForcePass pass(3);
  int mismatches = 0;
  for (int step = 0; step < 40; ++step) {
    tree.Build(bodies);
    pass.Run(tree, bodies, 0.8);
    mismatches += PassMismatches(pass, tree, bodies, 0.8);
    for (size_t k = 0; k < bodies.size(); ++k) {
      Body& b = bodies[static_cast<size_t>(tree.leaf_order()[k])];
      b.ax = pass.results()[k].acc.x;
      b.ay = pass.results()[k].acc.y;
    }
    Integrate(&bodies, 0.05);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(pass.workers(), 3);
}

TEST(Integrate, MovesBodiesByVelocity) {
  std::vector<Body> bodies(1);
  bodies[0].vx = 2.0;
  bodies[0].ax = 1.0;
  Integrate(&bodies, 0.5);
  EXPECT_DOUBLE_EQ(bodies[0].vx, 2.5);
  EXPECT_DOUBLE_EQ(bodies[0].x, 1.25);
}

// ---- buffer cache ----

TEST(BufferCache, HitsAfterFirstTouch) {
  BufferCache cache(4);
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(BufferCache, EvictsLeastRecentlyUsed) {
  BufferCache cache(2);
  cache.Touch(1);
  cache.Touch(2);
  cache.Touch(1);     // 1 is now most recent
  cache.Touch(3);     // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(BufferCache, InfiniteCapacityNeverEvicts) {
  BufferCache cache(0);
  for (int i = 0; i < 1000; ++i) {
    cache.Touch(i);
  }
  EXPECT_EQ(cache.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(cache.Contains(i));
  }
}

TEST(BufferCache, PrefillDoesNotCountStats) {
  BufferCache cache(4);
  cache.Prefill(1);
  cache.Prefill(2);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1);
}

TEST(BufferCache, PrefillRespectsCapacity) {
  BufferCache cache(2);
  cache.Prefill(1);
  cache.Prefill(2);
  cache.Prefill(3);
  EXPECT_EQ(cache.size(), 2u);
}

// ---- workload driver ----

TEST(NBodyWorkload, RunsToCompletionAndCountsWork) {
  NBodyConfig config;
  config.bodies = 120;
  config.steps = 2;
  DaemonConfig daemons;
  daemons.enabled = false;
  const auto r = RunNBody(SystemKind::kNewFastThreads, 2, config, daemons, 1, 3);
  EXPECT_GT(r.speedup, 1.0);
  EXPECT_GT(r.sequential, 0);
  EXPECT_EQ(r.cache_misses, 0);  // 100% memory
}

TEST(NBodyWorkload, PhysicsIsIdenticalAcrossRuntimes) {
  NBodyConfig config;
  config.bodies = 120;
  config.steps = 2;
  DaemonConfig daemons;
  daemons.enabled = false;
  const auto a = RunNBody(SystemKind::kTopazThreads, 2, config, daemons, 1, 3);
  const auto b = RunNBody(SystemKind::kNewFastThreads, 2, config, daemons, 1, 3);
  // The same computation was performed: identical sequential-time baseline.
  EXPECT_EQ(a.sequential, b.sequential);
}

TEST(NBodyWorkload, ReducedMemoryProducesMisses) {
  NBodyConfig config;
  config.bodies = 240;
  config.steps = 2;
  config.memory_percent = 50;
  DaemonConfig daemons;
  daemons.enabled = false;
  const auto r = RunNBody(SystemKind::kNewFastThreads, 2, config, daemons, 1, 3);
  EXPECT_GT(r.cache_misses, 0);
  EXPECT_GT(r.counters.io_blocks, 0);
}

TEST(NBodyWorkload, DeterministicAcrossRepeatedRuns) {
  NBodyConfig config;
  config.bodies = 120;
  config.steps = 2;
  DaemonConfig daemons;
  const auto a = RunNBody(SystemKind::kNewFastThreads, 3, config, daemons, 1, 5);
  const auto b = RunNBody(SystemKind::kNewFastThreads, 3, config, daemons, 1, 5);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.counters.upcalls, b.counters.upcalls);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

// ---- the trajectory pipeline ----

// NBodyTrajectory's fig1 run (3 steps) must outrun the producer's ring, so
// that its pinned digest covers a reused slot.
static_assert(NBodyApp::kRingDepth < 3);

// An N-body application of `steps` steps of 600 bodies on new FastThreads
// over scheduler activations, four processors.
struct PipelineRun {
  explicit PipelineRun(int steps)
      : harness(Machine()),
        runtime(&harness.kernel(), "nbody", ult::BackendKind::kSchedulerActivations,
                Vcpus(4)) {
    harness.AddRuntime(&runtime);
    NBodyConfig nc;
    nc.bodies = 600;
    nc.steps = steps;
    app = std::make_unique<NBodyApp>(nc);
    app->InstallOn(&runtime);
  }

  static ult::UltConfig Vcpus(int n) {
    ult::UltConfig uc;
    uc.max_vcpus = n;
    return uc;
  }

  static rt::HarnessConfig Machine() {
    rt::HarnessConfig config;
    config.processors = 4;
    config.kernel.mode = kern::KernelMode::kSchedulerActivations;
    return config;
  }

  // True once the producer has finished `steps` steps; false after 60 s.
  bool AwaitProduced(int steps) const {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (app->steps_produced() < steps) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  // Destroys the application; returns how long that took, in seconds.
  double DestroyApp() {
    const auto start = std::chrono::steady_clock::now();
    app.reset();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  rt::Harness harness;
  ult::UltRuntime runtime;
  std::unique_ptr<NBodyApp> app;
};

TEST(NBodyPipeline, AppThatNeverRanStartsNoProducer) {
  PipelineRun run(8);
  EXPECT_EQ(run.app->steps_produced(), 0);
  EXPECT_LT(run.DestroyApp(), 2.0);
}

// A run cut short (here by an event budget, inside step 0) leaves the
// producer ahead of it: it fills the ring and waits for a slot that will
// never be freed.  The application's destructor must wake and join it.
TEST(NBodyPipeline, AppDestroyedWithItsProducerAheadJoinsPromptly) {
  PipelineRun run(8);
  EXPECT_EQ(run.harness.TryRun(/*max_events=*/200).outcome, rt::RunOutcome::kEventBudget);
  ASSERT_GT(run.app->total_interactions(), 0);  // step 0 was taken ...
  ASSERT_LT(run.app->total_tasks_run(), 200);   // ... and not finished
  ASSERT_TRUE(run.AwaitProduced(1 + NBodyApp::kRingDepth));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(run.app->steps_produced(), 1 + NBodyApp::kRingDepth);  // the ring is full
  EXPECT_LT(run.DestroyApp(), 2.0);
}

// A fault plan crashes the application's space inside step 0 (whose tree
// build is charged 24 ms): the run completes without it, and its producer
// fills the ring and waits, until the destructor wakes and joins it.
TEST(NBodyPipeline, AppOfACrashedSpaceJoinsPromptly) {
  inject::FaultPlan plan;
  plan.crash_at = sim::Msec(10);
  plan.crash_space = 0;
  PipelineRun run(8);
  run.harness.EnableFaultInjection(plan);
  const rt::RunResult result = run.harness.TryRun();
  ASSERT_TRUE(result.ok()) << result.diagnostics;
  EXPECT_FALSE(run.app->done());
  ASSERT_TRUE(run.AwaitProduced(1 + NBodyApp::kRingDepth));
  EXPECT_LT(run.DestroyApp(), 2.0);
}

// ---- pinned trajectories ----

// FNV-1a over the bytes of the bodies' final state.
uint64_t BodiesDigest(const std::vector<Body>& bodies) {
  uint64_t hash = 14695981039346656037ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(bodies.data());
  for (size_t k = 0; k < bodies.size() * sizeof(Body); ++k) {
    hash = (hash ^ bytes[k]) * 1099511628211ull;
  }
  return hash;
}

struct Trajectory {
  int64_t interactions = 0;
  sim::Duration sequential = 0;
  uint64_t digest = 0;
};

// Runs the N-body application on new FastThreads; the physics does not depend
// on the runtime or the processor count.
Trajectory RunTrajectory(int bodies, int steps) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness h(config);
  ult::UltConfig uc;
  uc.max_vcpus = 6;
  ult::UltRuntime runtime(&h.kernel(), "nbody", ult::BackendKind::kSchedulerActivations, uc);
  h.AddRuntime(&runtime);
  NBodyConfig nc;
  nc.bodies = bodies;
  nc.steps = steps;
  NBodyApp app(nc);
  app.InstallOn(&runtime);
  h.Run();
  EXPECT_TRUE(app.done());
  return Trajectory{app.total_interactions(), app.SequentialTime(), BodiesDigest(app.bodies())};
}

// Pinned from the pool-and-stack tree that the preorder array replaced, with
// bench_fig1's problem (1200 bodies x 3 steps) and the firefly workload's body
// count.  The run-vs-run determinism tests cannot see a change that moves
// the physics the same way on every run; a mismatch here means the forces,
// the interaction counts or the integration moved.
TEST(NBodyTrajectory, MatchesPinnedDigests) {
  const Trajectory fig1 = RunTrajectory(1200, 3);
  EXPECT_EQ(fig1.interactions, 178427);
  EXPECT_EQ(fig1.sequential, 3368886000);
  EXPECT_EQ(fig1.digest, 0xca13ae786cc11ebdull);
  const Trajectory firefly = RunTrajectory(4000, 2);
  EXPECT_EQ(firefly.interactions, 498996);
  EXPECT_EQ(firefly.sequential, 9331268000);
  EXPECT_EQ(firefly.digest, 0xcd33c77e8408799cull);
}

}  // namespace
}  // namespace sa::apps
