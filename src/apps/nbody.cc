#include "src/apps/nbody.h"

#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <system_error>

#include "src/common/affinity.h"
#include "src/common/assert.h"

namespace sa::apps {

void QuadTree::Build(const std::vector<Body>& bodies) {
  cells_.clear();
  order_.resize(bodies.size());
  scratch_.resize(bodies.size());
  std::iota(order_.begin(), order_.end(), 0);
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
  BuildCell(0, static_cast<int>(bodies.size()), cx, cx, half, bodies);
}

// Appends the subtree over the bodies order_[first, last), which lie in the
// square centred on (cx, cy) with half-width `half`, and leaves that range
// of order_ in leaf order.
void QuadTree::BuildCell(int first, int last, double cx, double cy, double half,
                         const std::vector<Body>& bodies) {
  const size_t index = cells_.size();
  const double width2 = (2.0 * half) * (2.0 * half);
  if (last - first == 1) {
    const int body = order_[static_cast<size_t>(first)];
    const Body& b = bodies[static_cast<size_t>(body)];
    cells_.push_back(Cell{b.x, b.y, b.mass, width2, static_cast<int>(index) + 1, body});
    return;
  }
  cells_.emplace_back();  // filled in once the children are summed
  // Coincident bodies never separate: stop once `half` underflows instead of
  // recursing without end.
  SA_CHECK(half > 0);
  const auto quadrant = [&](int body) {
    const Body& b = bodies[static_cast<size_t>(body)];
    return (b.x >= cx ? 1 : 0) | (b.y >= cy ? 2 : 0);
  };
  // Counting sort by quadrant; the children are laid out in order 3, 2, 1, 0.
  int count[4] = {0, 0, 0, 0};
  for (int k = first; k < last; ++k) {
    ++count[quadrant(order_[static_cast<size_t>(k)])];
  }
  int start[4];
  start[3] = first;
  for (int quad = 2; quad >= 0; --quad) {
    start[quad] = start[quad + 1] + count[quad + 1];
  }
  int next[4] = {start[0], start[1], start[2], start[3]};
  for (int k = first; k < last; ++k) {
    const int body = order_[static_cast<size_t>(k)];
    scratch_[static_cast<size_t>(next[quadrant(body)]++)] = body;
  }
  std::copy(scratch_.begin() + first, scratch_.begin() + last, order_.begin() + first);
  const double qh = half / 2.0;
  int children[4] = {-1, -1, -1, -1};
  for (int quad = 3; quad >= 0; --quad) {
    if (count[quad] > 0) {
      children[quad] = static_cast<int>(cells_.size());
      BuildCell(start[quad], start[quad] + count[quad], cx + (quad & 1 ? qh : -qh),
                cy + (quad & 2 ? qh : -qh), qh, bodies);
    }
  }
  // Sum over children 0..3: floating-point sums depend on the order.
  double mass = 0, mx = 0, my = 0;
  for (int c : children) {
    if (c < 0) {
      continue;
    }
    const Cell& child = cells_[static_cast<size_t>(c)];
    mass += child.mass;
    mx += child.comx * child.mass;
    my += child.comy * child.mass;
  }
  cells_[index] = Cell{mass > 0 ? mx / mass : cx, mass > 0 ? my / mass : cy, mass, width2,
                       static_cast<int>(cells_.size()), -1};
}

Vec2 QuadTree::ForceOn(const std::vector<Body>& bodies, int i, double theta,
                       int64_t* interactions) const {
  Vec2 acc;
  const Body& b = bodies[static_cast<size_t>(i)];
  const double theta2 = theta * theta;
  int64_t terms = 0;
  const int n = static_cast<int>(cells_.size());
  for (int c = 0; c < n;) {
    const Cell& cell = cells_[static_cast<size_t>(c)];
    if (cell.body == i) {
      c = cell.skip;  // self
      continue;
    }
    const double dx = cell.comx - b.x;
    const double dy = cell.comy - b.y;
    const double d2 = dx * dx + dy * dy + kSoftening2;
    if (cell.body < 0 && !(cell.width2 < theta2 * d2)) {
      ++c;  // too close to aggregate: descend into the children
      continue;
    }
    // A single body, or far enough: one interaction with the aggregate.
    const double inv = 1.0 / std::sqrt(d2);
    const double f = cell.mass * inv * inv * inv;
    acc.x += f * dx;
    acc.y += f * dy;
    ++terms;
    c = cell.skip;
  }
  *interactions += terms;
  return acc;
}

std::thread StartHostThread(std::function<void()> body) {
  // A thread inherits its creator's signal mask: block every signal while
  // it starts.
  sigset_t all;
  sigset_t old;
  sigfillset(&all);
  pthread_sigmask(SIG_SETMASK, &all, &old);
  struct Restore {
    const sigset_t& old;
    ~Restore() { pthread_sigmask(SIG_SETMASK, &old, nullptr); }
  } restore{old};
  return std::thread(std::move(body));
}

ForcePass::~ForcePass() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ForcePass::Run(const QuadTree& tree, const std::vector<Body>& bodies, double theta) {
  const int n = static_cast<int>(tree.leaf_order().size());
  results_.resize(static_cast<size_t>(n));
  tree_ = &tree;
  bodies_ = &bodies;
  theta_ = theta;
  blocks_ = (n + kBlock - 1) / kBlock;
  next_block_.store(0, std::memory_order_relaxed);
  if (!started_) {
    started_ = true;
    const int max_workers = max_workers_ >= 0 ? max_workers_ : common::AffinityCpus() - 1;
    StartWorkers(std::min(max_workers, blocks_ - 1));
  }
  if (threads_.empty()) {
    ClaimBlocks();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pass_;
    busy_ = workers();
  }
  wake_.notify_all();
  ClaimBlocks();
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return busy_ == 0; });
}

void ForcePass::StartWorkers(int count) {
  if (count <= 0) {
    return;
  }
  threads_.reserve(static_cast<size_t>(count));
  try {
    while (workers() < count) {
      threads_.push_back(StartHostThread([this] { WorkerLoop(); }));
    }
  } catch (const std::system_error&) {
    // The host has no thread to spare: the passes run on those started.
  }
}

void ForcePass::WorkerLoop() {
  uint64_t seen = 0;  // the workers start before the first pass
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || pass_ != seen; });
      if (stop_) {
        return;
      }
      seen = pass_;
    }
    ClaimBlocks();
    std::lock_guard<std::mutex> lock(mu_);
    if (--busy_ == 0) {
      idle_.notify_one();
    }
  }
}

void ForcePass::ClaimBlocks() {
  const std::vector<int>& order = tree_->leaf_order();
  const int n = static_cast<int>(order.size());
  for (int block = next_block_.fetch_add(1, std::memory_order_relaxed); block < blocks_;
       block = next_block_.fetch_add(1, std::memory_order_relaxed)) {
    const int end = std::min(n, (block + 1) * kBlock);
    for (int k = block * kBlock; k < end; ++k) {
      Result& r = results_[static_cast<size_t>(k)];
      r.interactions = 0;
      r.acc = tree_->ForceOn(*bodies_, order[static_cast<size_t>(k)], theta_, &r.interactions);
    }
  }
}

Vec2 DirectForce(const std::vector<Body>& bodies, int i) {
  Vec2 acc;
  const Body& b = bodies[static_cast<size_t>(i)];
  for (int j = 0; j < static_cast<int>(bodies.size()); ++j) {
    if (j == i) {
      continue;
    }
    const Body& o = bodies[static_cast<size_t>(j)];
    const double dx = o.x - b.x;
    const double dy = o.y - b.y;
    const double d2 = dx * dx + dy * dy + QuadTree::kSoftening2;
    const double inv = 1.0 / std::sqrt(d2);
    const double f = o.mass * inv * inv * inv;
    acc.x += f * dx;
    acc.y += f * dy;
  }
  return acc;
}

std::vector<Body> MakeDisk(int n, common::Rng* rng) {
  SA_CHECK(n > 0);
  std::vector<Body> bodies(static_cast<size_t>(n));
  for (Body& b : bodies) {
    const double r = std::sqrt(rng->NextDouble());  // uniform over the disk
    const double phi = rng->Uniform(0, 2 * M_PI);
    b.x = r * std::cos(phi);
    b.y = r * std::sin(phi);
    // Roughly circular orbits around the collective centre.
    const double v = 0.3 * std::sqrt(r);
    b.vx = -v * std::sin(phi);
    b.vy = v * std::cos(phi);
    b.mass = 1.0 / n;
  }
  return bodies;
}

void Integrate(std::vector<Body>* bodies, double dt) {
  for (Body& b : *bodies) {
    b.vx += b.ax * dt;
    b.vy += b.ay * dt;
    b.x += b.vx * dt;
    b.y += b.vy * dt;
  }
}

}  // namespace sa::apps
