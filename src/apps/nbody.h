// Barnes & Hut (1986) hierarchical O(N log N) N-body force calculation — the
// application the paper measures (Section 5.3).
//
// This is a real implementation (2-D quadtree, centre-of-mass aggregation,
// opening-angle criterion): the simulated workload's task costs and memory
// reference strings come from the actual tree traversals, so task granularity,
// load imbalance and locality are genuine rather than synthetic.

#ifndef SA_APPS_NBODY_H_
#define SA_APPS_NBODY_H_

#include <cstdint>
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

// Direct O(N^2) summation, for validating the tree code.
Vec2 DirectForce(const std::vector<Body>& bodies, int i);

// Generates a rotating disk of N bodies (deterministic for a given rng).
std::vector<Body> MakeDisk(int n, common::Rng* rng);

// Leapfrog integration step (dt small); updates positions and velocities
// from the accelerations stored in the bodies.
void Integrate(std::vector<Body>* bodies, double dt);

}  // namespace sa::apps

#endif  // SA_APPS_NBODY_H_
