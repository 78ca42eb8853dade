// Barnes & Hut (1986) hierarchical O(N log N) N-body force calculation — the
// application the paper measures (Section 5.3).
//
// This is a real implementation (2-D quadtree, centre-of-mass aggregation,
// opening-angle criterion): the simulated workload's task costs and memory
// reference strings come from the actual tree traversals, so task granularity,
// load imbalance and locality are genuine rather than synthetic.

#ifndef SA_APPS_NBODY_H_
#define SA_APPS_NBODY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"

namespace sa::apps {

struct Body {
  double x = 0;
  double y = 0;
  double vx = 0;
  double vy = 0;
  double ax = 0;
  double ay = 0;
  double mass = 1.0;
};

struct Vec2 {
  double x = 0;
  double y = 0;
};

// Quadtree over a square region, stored as one preorder array of cells.  A
// cell's subtree is the contiguous run [index, skip), so a walk that accepts
// a cell jumps to its skip and one that opens it steps to index + 1.
// Children follow their parent in quadrant order 3, 2, 1, 0 (the quadrant of
// a point is (x >= cx) | (y >= cy) << 1).  Index 0 is the root.
class QuadTree {
 public:
  struct Cell {
    double comx = 0, comy = 0;  // centre of mass
    double mass = 0;            // total mass
    double width2 = 0;          // squared width of the cell's square
    int skip = 0;               // one past the last cell of the subtree
    int body = -1;              // leaf: index of its single body; -1 if internal
  };

  // Builds the tree over all bodies.
  void Build(const std::vector<Body>& bodies);

  // Computes the gravitational acceleration on body `i` using opening angle
  // `theta`.  Increments *interactions per force term evaluated.
  Vec2 ForceOn(const std::vector<Body>& bodies, int i, double theta,
               int64_t* interactions) const;

  const std::vector<Cell>& cells() const { return cells_; }
  // Body indices in the order of their leaves in cells().
  const std::vector<int>& leaf_order() const { return order_; }

  // Gravitational softening (avoids singularities in close encounters).
  static constexpr double kSoftening2 = 1e-4;

 private:
  void BuildCell(int first, int last, double cx, double cy, double half,
                 const std::vector<Body>& bodies);

  std::vector<Cell> cells_;
  std::vector<int> order_;    // body indices, partitioned into leaf order
  std::vector<int> scratch_;  // BuildCell's counting-sort buffer
};

// Starts a host thread running `body` with every signal blocked, so that a
// process-directed signal (a timer's, a profiler's) is delivered to the
// simulation's thread.  Throws std::system_error if the host has no thread
// to spare.
std::thread StartHostThread(std::function<void()> body);

// One time step's forces: ForceOn for every body of a built tree, spread over
// the host's cores.  The calling thread (in the N-body workload, the
// application's producer thread, which computes the trajectory ahead of the
// simulation) and up to `max_workers` host threads claim blocks of kBlock
// consecutive leaves from a shared counter, and each result goes to its
// leaf's own slot, so every acceleration and count is bit for bit that of a
// sequential ForceOn loop, for any number of workers.  The workers start on
// the first Run (one per block beyond the caller's, at most `max_workers`),
// block every signal, allocate nothing, sleep on a condition variable
// between passes and are joined by the destructor.
class ForcePass {
 public:
  struct Result {
    Vec2 acc;
    int64_t interactions = 0;
  };
  static constexpr int kBlock = 64;

  // As many workers as the process has CPUs to run on besides the caller,
  // read from its affinity mask at the first pass.
  ForcePass() = default;
  // At most `max_workers` (>= 0) workers.
  explicit ForcePass(int max_workers) : max_workers_(max_workers) {}
  ~ForcePass();
  ForcePass(const ForcePass&) = delete;
  ForcePass& operator=(const ForcePass&) = delete;

  // Computes results()[k] = ForceOn(bodies, tree.leaf_order()[k], theta).
  void Run(const QuadTree& tree, const std::vector<Body>& bodies, double theta);
  // By position in the tree's leaf order.
  const std::vector<Result>& results() const { return results_; }
  int workers() const { return static_cast<int>(threads_.size()); }

 private:
  void StartWorkers(int count);
  void WorkerLoop();
  // Computes blocks until none is left.
  void ClaimBlocks();

  int max_workers_ = -1;  // -1: from the affinity mask
  std::vector<Result> results_;
  // The pass in flight, set before the workers are woken.
  const QuadTree* tree_ = nullptr;
  const std::vector<Body>* bodies_ = nullptr;
  double theta_ = 0;
  int blocks_ = 0;
  std::atomic<int> next_block_{0};
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable wake_;  // workers: a new pass, or stop
  std::condition_variable idle_;  // Run: every worker left the pass
  uint64_t pass_ = 0;             // guarded by mu_
  int busy_ = 0;                  // workers still in the pass; guarded by mu_
  bool stop_ = false;             // guarded by mu_
  std::vector<std::thread> threads_;
};

// Direct O(N^2) summation, for validating the tree code.
Vec2 DirectForce(const std::vector<Body>& bodies, int i);

// Generates a rotating disk of N bodies (deterministic for a given rng).
std::vector<Body> MakeDisk(int n, common::Rng* rng);

// Leapfrog integration step (dt small); updates positions and velocities
// from the accelerations stored in the bodies.
void Integrate(std::vector<Body>* bodies, double dt);

}  // namespace sa::apps

#endif  // SA_APPS_NBODY_H_
