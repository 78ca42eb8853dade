// Incremental processor allocation (DESIGN.md §14).
//
// The allocator's incremental decision structures (tier Fenwick aggregates,
// deficit heap, surplus index) must be *policy-invisible*: every target,
// every grant, and every revocation must be exactly what the original
// full-rescan implementation of the Section 4.1 policy would have produced,
// with the affinity rules of DESIGN.md §13 and without.  This file proves
// that two ways:
//
//   1. Differential fuzzing: >= 10,000 randomized demand/priority/churn/
//      storm/release sequences (one cell with more wanting spaces than
//      processors), each run with affinity off on a flat machine
//      and with affinity on across two sockets, drive the real allocator and
//      RescanModel — an independent, kernel-free model of the full-rescan
//      policy — in lockstep, comparing targets, holdings, the free pool, and
//      the full grant/revoke event order after every operation.
//   2. Byte-identity: seeded SA-protocol, revocation-storm and affinity
//      storm workloads reproduce trace digests pinned from the full-rescan
//      implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/inject/fault_plan.h"
#include "src/kern/kernel.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/sa_iface.h"
#include "src/rt/harness.h"
#include "src/rt/topaz_runtime.h"
#include "src/trace/trace.h"
#include "src/ult/ult_runtime.h"
#include "tests/trace_digest.h"

namespace sa::kern {
namespace {

using AllocEvent = std::tuple<char, int, int>;  // kind ('G'/'R'), space id, cpu
using Targets = std::vector<std::pair<int, int>>;  // (space id, target), id order

// ---------------------------------------------------------------------------
// Stub-driven allocator harness.
//
// Stub SA hooks log every grant and revocation; because stub spaces never
// start spans, every revocation takes the synchronous idle-in-kernel fast
// path, so a whole storm/rebalance resolves before the injection call
// returns — ideal for lockstep differential comparison.
// ---------------------------------------------------------------------------

class LoggingSaSpace : public SaSpaceIface {
 public:
  LoggingSaSpace(int as_id, std::vector<AllocEvent>* log) : as_id_(as_id), log_(log) {}
  void OnProcessorGranted(hw::Processor* p) override {
    log_->emplace_back('G', as_id_, p->id());
  }
  void OnProcessorRevoked(hw::Processor* p, KThread*) override {
    log_->emplace_back('R', as_id_, p == nullptr ? -1 : p->id());
  }
  void OnThreadBlockedInKernel(KThread*, hw::Processor*) override {}
  void OnThreadUnblockedInKernel(KThread*) override {}
  void OnUpcallProcessorReady(hw::Processor*, KThread*) override {}
  int OnSpaceReaped() override { return 0; }

 private:
  int as_id_;
  std::vector<AllocEvent>* log_;
};

hw::TopologyConfig Sockets(int sockets) {
  hw::TopologyConfig topology;
  topology.sockets = sockets;
  return topology;
}

class AllocDriver {
 public:
  explicit AllocDriver(int processors, int sockets = 1, bool affinity = false)
      : machine_(processors, 1, Sockets(sockets)) {
    Config config;
    config.mode = KernelMode::kSchedulerActivations;
    config.affinity_allocation = affinity;
    kernel_ = std::make_unique<Kernel>(&machine_, config);
  }

  ProcessorAllocator* alloc() { return kernel_->allocator(); }

  AddressSpace* CreateSpace(int priority) {
    AddressSpace* as = kernel_->CreateAddressSpace(
        std::string("s").append(std::to_string(live_.size())), AsMode::kSchedulerActivations,
        priority);
    stubs_.push_back(std::make_unique<LoggingSaSpace>(as->id(), &log_));
    as->set_sa(stubs_.back().get());
    live_.push_back(as);
    return as;
  }

  // Emulates the reaper's teardown: demand to zero, idle processors
  // detached through OnRevokeComplete, then the registration dropped.
  void ReleaseSpace(size_t idx) {
    AddressSpace* as = live_[idx];
    alloc()->SetDesired(as, 0);
    std::vector<hw::Processor*> held(as->assigned());
    for (hw::Processor* proc : held) {
      if (!as->IsAssigned(proc)) {
        continue;  // reclaimed by a reentrant rebalance
      }
      alloc()->Unassign(proc);
      alloc()->OnRevokeComplete(as, proc);
    }
    alloc()->ReleaseSpace(as);
    live_.erase(live_.begin() + static_cast<ptrdiff_t>(idx));
  }

  const std::vector<AddressSpace*>& live() const { return live_; }
  const std::vector<AllocEvent>& log() const { return log_; }

  Targets TargetsById() {
    const std::vector<int> targets = alloc()->ComputeTargets();
    Targets out;
    for (const auto& as : kernel_->spaces()) {
      if (alloc()->IsRegistered(as.get())) {
        out.emplace_back(as->id(), targets.at(out.size()));
      }
    }
    EXPECT_EQ(out.size(), targets.size());
    return out;
  }

  // Per live space in creation order: id, held cpus in grant order, -1.
  std::vector<int> AssignedIds() const {
    std::vector<int> out;
    for (const AddressSpace* as : live_) {
      out.push_back(as->id());
      for (const hw::Processor* p : as->assigned()) {
        out.push_back(p->id());
      }
      out.push_back(-1);
    }
    return out;
  }

 private:
  hw::Machine machine_;
  std::unique_ptr<Kernel> kernel_;
  std::vector<std::unique_ptr<LoggingSaSpace>> stubs_;
  std::vector<AddressSpace*> live_;
  std::vector<AllocEvent> log_;
};

// ---------------------------------------------------------------------------
// The full-rescan policy, as an independent model of the stub world.
//
// Kernel-free: spaces are ids with a priority, a demand, ordered holdings and
// per-socket counts; the free pool is a LIFO vector; processors carry a
// last-owner mark.  Every decision recomputes everything — targets by the
// iterative water-fill, the neediest space by a linear scan — exactly as the
// allocator did before its decisions became incremental.  Because stub
// spaces never run anything, every revocation is the idle fast path: no
// pending revocations, spans or upcalls to model.
// ---------------------------------------------------------------------------

class RescanModel {
 public:
  RescanModel(int processors, int sockets, bool affinity)
      : processors_(processors),
        sockets_(sockets),
        cores_per_socket_((processors + sockets - 1) / sockets),
        affinity_(affinity),
        last_owner_(static_cast<size_t>(processors), -1) {
    for (int cpu = 0; cpu < processors; ++cpu) {
      free_.push_back(cpu);
    }
  }

  void CreateSpace(int priority) {
    Space s;
    s.priority = priority;
    s.per_socket.assign(static_cast<size_t>(sockets_), 0);
    spaces_[next_id_++] = s;
  }

  // The id of the idx-th registered space (AllocDriver::live() order).
  int NthLiveId(size_t idx) const {
    return std::next(spaces_.begin(), static_cast<ptrdiff_t>(idx))->first;
  }

  void SetDesired(int id, int desired) {
    Space& s = spaces_.at(id);
    if (s.desired == desired) {
      return;
    }
    s.desired = desired;
    Rebalance();
  }

  // Storm candidates are every held processor, spaces in id order and each
  // space's holdings in grant order; picks come from the caller's stream.
  void InjectRevocations(int burst, common::Rng& rng) {
    std::vector<std::pair<int, int>> owned;  // (space id, cpu)
    for (const auto& [id, s] : spaces_) {
      for (int cpu : s.held) {
        owned.emplace_back(id, cpu);
      }
    }
    int revoked = 0;
    for (int i = 0; i < burst && !owned.empty(); ++i) {
      const size_t pick = static_cast<size_t>(rng.Below(owned.size()));
      const auto [id, cpu] = owned[pick];
      owned.erase(owned.begin() + static_cast<ptrdiff_t>(pick));
      Revoke(id, cpu);
      ++revoked;
    }
    if (revoked > 0) {
      Rebalance();
    }
  }

  // AllocDriver::ReleaseSpace's teardown: demand to zero, each remaining
  // processor detached (no revocation upcall) and rebalanced, then the space
  // dropped.
  void ReleaseSpace(int id) {
    SetDesired(id, 0);
    const std::vector<int> held = spaces_.at(id).held;
    for (int cpu : held) {
      Space& s = spaces_.at(id);
      if (std::find(s.held.begin(), s.held.end(), cpu) == s.held.end()) {
        continue;
      }
      Unassign(s, cpu);
      free_.push_back(cpu);
      Rebalance();
    }
    spaces_.erase(id);
    Rebalance();
  }

  void Rebalance() {
    const std::map<int, int> target = ComputeTargets();
    bool someone_needs = false;
    for (const auto& [id, s] : spaces_) {
      someone_needs |= static_cast<int>(s.held.size()) < target.at(id);
    }
    if (someone_needs) {
      for (auto& [id, s] : spaces_) {
        RevokeSurplus(id, target.at(id));
      }
    }
    GrantFreeProcessors();
  }

  // Section 4.1: tiers highest priority first; within a tier, cap spaces
  // content with the even share at their demand and re-split the rest; when
  // nobody is content, everyone gets the share and the leftover goes out
  // one by one in id order — incumbents (more holdings) first under
  // affinity.
  std::map<int, int> ComputeTargets() const {
    std::map<int, int> target;
    std::map<int, std::vector<int>, std::greater<int>> tiers;
    for (const auto& [id, s] : spaces_) {
      target[id] = 0;
      if (s.desired > 0) {
        tiers[s.priority].push_back(id);
      }
    }
    int remaining = processors_;
    for (auto& [prio, open] : tiers) {
      int pool = remaining;
      while (!open.empty() && pool > 0) {
        const int share = pool / static_cast<int>(open.size());
        const size_t before = open.size();
        for (auto it = open.begin(); it != open.end();) {
          const int want = spaces_.at(*it).desired;
          if (want <= share) {
            target[*it] = want;
            pool -= want;
            it = open.erase(it);
          } else {
            ++it;
          }
        }
        if (open.size() < before) {
          continue;
        }
        if (affinity_) {
          std::stable_sort(open.begin(), open.end(), [this](int a, int b) {
            return spaces_.at(a).held.size() > spaces_.at(b).held.size();
          });
        }
        for (int id : open) {
          target[id] = share;
          pool -= share;
        }
        for (auto it = open.begin(); it != open.end() && pool > 0; ++it, --pool) {
          ++target[*it];
        }
        open.clear();
      }
      remaining = pool;
    }
    return target;
  }

  Targets TargetsById() const {
    const std::map<int, int> target = ComputeTargets();
    return Targets(target.begin(), target.end());
  }

  std::vector<int> AssignedIds() const {
    std::vector<int> out;
    for (const auto& [id, s] : spaces_) {
      out.push_back(id);
      out.insert(out.end(), s.held.begin(), s.held.end());
      out.push_back(-1);
    }
    return out;
  }

  int num_free() const { return static_cast<int>(free_.size()); }
  const std::vector<AllocEvent>& log() const { return log_; }

 private:
  struct Space {
    int priority = 0;
    int desired = 0;
    std::vector<int> held;        // grant order
    std::vector<int> per_socket;  // processors held per socket
  };

  int SocketOf(int cpu) const { return cpu / cores_per_socket_; }

  int Deficit(int id, const std::map<int, int>& target) const {
    return target.at(id) - static_cast<int>(spaces_.at(id).held.size());
  }

  void Unassign(Space& s, int cpu) {
    s.held.erase(std::find(s.held.begin(), s.held.end(), cpu));
    --s.per_socket[static_cast<size_t>(SocketOf(cpu))];
  }

  void Revoke(int id, int cpu) {
    Unassign(spaces_.at(id), cpu);
    log_.emplace_back('R', id, cpu);
    free_.push_back(cpu);
  }

  // Victims most recently granted first; under affinity on a hierarchical
  // machine, stragglers in the space's least-held sockets go first.
  void RevokeSurplus(int id, int target) {
    const Space& s = spaces_.at(id);
    int surplus = static_cast<int>(s.held.size()) - target;
    if (surplus <= 0) {
      return;
    }
    std::vector<int> order(s.held.rbegin(), s.held.rend());
    if (affinity_ && sockets_ > 1) {
      const std::vector<int> per_socket = s.per_socket;
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return per_socket[static_cast<size_t>(SocketOf(a))] <
               per_socket[static_cast<size_t>(SocketOf(b))];
      });
    }
    for (auto it = order.begin(); surplus > 0; ++it, --surplus) {
      Revoke(id, *it);
    }
  }

  // One grant per rescan: the neediest space (highest priority, largest
  // deficit, lowest id) — or, under affinity, a space tied with it whose
  // processor sits in the pool — gets a processor.
  void GrantFreeProcessors() {
    while (!free_.empty()) {
      const std::map<int, int> target = ComputeTargets();
      int best = -1;
      for (const auto& [id, s] : spaces_) {
        const int deficit = Deficit(id, target);
        if (deficit > 0 &&
            (best < 0 || s.priority > spaces_.at(best).priority ||
             (s.priority == spaces_.at(best).priority && deficit > Deficit(best, target)))) {
          best = id;
        }
      }
      if (best < 0) {
        return;
      }
      if (affinity_ && WarmRegrant(best, target)) {
        continue;
      }
      Grant(PickFreeProcessor(best), best);
    }
  }

  bool WarmRegrant(int best, const std::map<int, int>& target) {
    for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
      const int owner = last_owner_[static_cast<size_t>(*it)];
      if (spaces_.count(owner) > 0 &&
          spaces_.at(owner).priority == spaces_.at(best).priority &&
          Deficit(owner, target) == Deficit(best, target)) {
        const int cpu = *it;
        free_.erase(std::next(it).base());
        Grant(cpu, owner);
        return true;
      }
    }
    return false;
  }

  // Most recently freed; under affinity the best-scoring pooled processor
  // (last owned by the grantee: 2, in a socket it occupies: 1), ties to the
  // most recently freed.
  int PickFreeProcessor(int id) {
    size_t pick = free_.size() - 1;
    if (affinity_) {
      const Space& s = spaces_.at(id);
      int best_score = -1;
      for (size_t i = 0; i < free_.size(); ++i) {
        const int cpu = free_[i];
        const int score = (last_owner_[static_cast<size_t>(cpu)] == id ? 2 : 0) +
                          (s.per_socket[static_cast<size_t>(SocketOf(cpu))] > 0 ? 1 : 0);
        if (score >= best_score) {
          best_score = score;
          pick = i;
        }
      }
    }
    const int cpu = free_[pick];
    free_.erase(free_.begin() + static_cast<ptrdiff_t>(pick));
    return cpu;
  }

  void Grant(int cpu, int id) {
    Space& s = spaces_.at(id);
    last_owner_[static_cast<size_t>(cpu)] = id;
    s.held.push_back(cpu);
    ++s.per_socket[static_cast<size_t>(SocketOf(cpu))];
    log_.emplace_back('G', id, cpu);
  }

  int processors_;
  int sockets_;
  int cores_per_socket_;
  bool affinity_;
  std::map<int, Space> spaces_;  // registered spaces, id order
  int next_id_ = 0;
  std::vector<int> free_;        // back = most recently freed
  std::vector<int> last_owner_;  // per cpu; -1 = never owned
  std::vector<AllocEvent> log_;
};

// The shape of one randomized sequence.
struct Sequence {
  int processors = 0;
  int max_spaces = 0;
  int ops = 0;
  int initial_spaces = 3;  // starts with 1..initial_spaces spaces
  int tiers = 4;           // priorities 0..tiers-1
  int max_demand = -1;     // demands 0..max_demand; -1 means 0..2P+1
};

// One randomized sequence, mirrored op-for-op onto the real allocator and
// the rescan model.  After every operation the two must agree on targets,
// holdings (including grant order), free-pool size, and the entire
// grant/revoke event history.
void RunDifferentialSequence(uint64_t seed, const Sequence& shape, int sockets,
                             bool affinity) {
  const int processors = shape.processors;
  AllocDriver real(processors, sockets, affinity);
  RescanModel model(processors, sockets, affinity);
  common::Rng script(seed);
  common::Rng storm_real(seed ^ 0x9e3779b97f4a7c15ull);
  common::Rng storm_model(seed ^ 0x9e3779b97f4a7c15ull);
  const uint64_t tiers = static_cast<uint64_t>(shape.tiers);
  const uint64_t demands = static_cast<uint64_t>(
      shape.max_demand < 0 ? 2 * processors + 2 : shape.max_demand + 1);

  const int initial =
      1 + static_cast<int>(script.Below(static_cast<uint64_t>(shape.initial_spaces)));
  for (int i = 0; i < initial; ++i) {
    const int prio = static_cast<int>(script.Below(tiers));
    real.CreateSpace(prio);
    model.CreateSpace(prio);
  }

  for (int op = 0; op < shape.ops; ++op) {
    const uint64_t pick = script.Below(100);
    if (pick < 12 && static_cast<int>(real.live().size()) < shape.max_spaces) {
      const int prio = static_cast<int>(script.Below(tiers));
      real.CreateSpace(prio);
      model.CreateSpace(prio);
    } else if (pick < 60 && !real.live().empty()) {
      const size_t idx = static_cast<size_t>(script.Below(real.live().size()));
      const int demand = static_cast<int>(script.Below(demands));
      real.alloc()->SetDesired(real.live()[idx], demand);
      model.SetDesired(model.NthLiveId(idx), demand);
    } else if (pick < 80) {
      const int burst = 1 + static_cast<int>(script.Below(static_cast<uint64_t>(processors)));
      real.alloc()->InjectRevocations(burst, storm_real);
      model.InjectRevocations(burst, storm_model);
    } else if (pick < 90) {
      real.alloc()->Rebalance();
      model.Rebalance();
    } else if (real.live().size() > 1) {
      const size_t idx = static_cast<size_t>(script.Below(real.live().size()));
      model.ReleaseSpace(model.NthLiveId(idx));
      real.ReleaseSpace(idx);
    }

    const std::string where = " (seed " + std::to_string(seed) + ", op " +
                              std::to_string(op) + ", affinity " +
                              std::to_string(affinity) + ")";
    ASSERT_EQ(real.TargetsById(), model.TargetsById()) << "targets diverged" << where;
    ASSERT_EQ(real.alloc()->num_free(), model.num_free()) << "free pool diverged" << where;
    ASSERT_EQ(real.AssignedIds(), model.AssignedIds()) << "holdings diverged" << where;
    ASSERT_EQ(real.log(), model.log()) << "grant/revoke order diverged" << where;
  }
}

TEST(AllocDifferentialFuzz, TenThousandSmallSequences) {
  // Small machines, few spaces, short scripts: maximum sequence diversity.
  for (uint64_t seed = 1; seed <= 10000; ++seed) {
    Sequence shape;
    shape.processors = 2 + static_cast<int>(seed % 7);
    shape.max_spaces = 8;
    shape.ops = 14;
    for (bool affinity : {false, true}) {
      RunDifferentialSequence(seed, shape, /*sockets=*/affinity ? 2 : 1, affinity);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(AllocDifferentialFuzz, DeepSequencesOnLargerMachines) {
  // Fewer seeds, but bigger machines, more spaces, and longer scripts so
  // multi-tier water-fills, deep storms, and release churn interleave.
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Sequence shape;
    shape.processors = 16 + static_cast<int>(seed % 4) * 16;  // 16..64
    shape.max_spaces = 40;
    shape.ops = 60;
    for (bool affinity : {false, true}) {
      RunDifferentialSequence(seed * 31 + 7, shape, /*sockets=*/affinity ? 2 : 1,
                              affinity);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(AllocDifferentialFuzz, OversubscribedTiers) {
  // More wanting spaces than processors: up to 96 spaces with demands 0-3
  // in three tiers, so a tier's uncapped members outnumber its pool, the
  // share is 0 and only the leftover cutoff moves — the regime of many
  // tenants sharing few processors.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Sequence shape;
    shape.processors = 8 + static_cast<int>(seed % 4) * 8;  // 8..32
    shape.max_spaces = 96;
    shape.initial_spaces = 96;
    shape.ops = 200;
    shape.tiers = 3;
    shape.max_demand = 3;
    for (bool affinity : {false, true}) {
      RunDifferentialSequence(seed * 131 + 3, shape, /*sockets=*/affinity ? 2 : 1,
                              affinity);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Targeted incremental-structure regressions.
// ---------------------------------------------------------------------------

TEST(AllocIncremental, GrantsBreakTiesByLowestId) {
  // Three equally needy spaces: the deficit heap must reproduce the legacy
  // scan's lowest-id-first tie-break.
  AllocDriver d(3);
  AddressSpace* a = d.CreateSpace(0);
  AddressSpace* b = d.CreateSpace(0);
  AddressSpace* c = d.CreateSpace(0);
  d.alloc()->SetDesired(a, 1);
  d.alloc()->SetDesired(b, 1);
  d.alloc()->SetDesired(c, 1);
  const std::vector<AllocEvent> expected = {
      {'G', a->id(), 2}, {'G', b->id(), 1}, {'G', c->id(), 0}};
  EXPECT_EQ(d.log(), expected);
}

TEST(AllocIncremental, ReleasePreservesIdOrderedPolicy) {
  // Releasing a middle space must not leak into policy order: leftovers
  // still distribute by id.
  AllocDriver d(6);
  d.CreateSpace(0);
  for (int i = 0; i < 4; ++i) {
    d.CreateSpace(0);
  }
  for (AddressSpace* as : d.live()) {
    d.alloc()->SetDesired(as, 6);
  }
  d.ReleaseSpace(1);  // spaces 0,2,3,4 remain
  ASSERT_EQ(d.live().size(), 4u);
  // 6 processors over 4 eager spaces: 2,2,1,1 by ascending id.
  const Targets expected = {{0, 2}, {2, 2}, {3, 1}, {4, 1}};
  EXPECT_EQ(d.TargetsById(), expected);
}

TEST(AllocIncremental, RevokeCompletionForReleasedSpaceIsTolerated) {
  AllocDriver d(2);
  AddressSpace* a = d.CreateSpace(0);
  d.alloc()->SetDesired(a, 2);
  ASSERT_EQ(a->assigned().size(), 2u);
  d.ReleaseSpace(0);
  EXPECT_FALSE(d.alloc()->IsRegistered(a));
  EXPECT_EQ(d.alloc()->num_free(), 2);
  // A straggling completion for the dead space must not underflow anything.
  common::Rng rng(1);
  EXPECT_EQ(d.alloc()->InjectRevocations(1, rng), 0);
}

TEST(AllocIncremental, StatsSurviveTheFieldMigration) {
  // stats_for() reads through the new per-space fields.
  AllocDriver d(2);
  AddressSpace* a = d.CreateSpace(0);
  d.alloc()->SetDesired(a, 1);
  common::Rng rng(5);
  ASSERT_EQ(d.alloc()->InjectRevocations(1, rng), 1);
  const auto stats = d.alloc()->stats_for(a);
  EXPECT_EQ(stats.warm_grants, 1);  // regrant of its own processor
  EXPECT_EQ(stats.cold_grants, 1);  // the boot grant
}

// ---------------------------------------------------------------------------
// Byte-identity on seeded end-to-end traces.
//
// The digests were computed by this code against the full-rescan allocator
// (identical in default and Release builds); the incremental path must
// reproduce every record.
// ---------------------------------------------------------------------------

enum class Seeded { kSaProtocol, kStorm, kAffinityStorm };

std::vector<trace::Record> RunSeededWorkload(Seeded style) {
  rt::HarnessConfig config;
  config.processors = 6;
  config.seed = 11;
  config.kernel.mode = KernelMode::kSchedulerActivations;
  if (style == Seeded::kAffinityStorm) {
    config.topology.sockets = 2;
    config.kernel.affinity_allocation = true;
  }
  rt::Harness h(config);
  h.EnableTracing(trace::cat::kAll);
  if (style != Seeded::kSaProtocol) {
    inject::FaultPlan plan;
    plan.seed = 7;
    plan.storm_period = sim::Msec(1);
    plan.storm_burst = 2;
    h.EnableFaultInjection(plan);
  }
  // Two SA runtimes and a kernel-thread runtime compete for processors, so
  // demand shifts exercise multi-space rebalances throughout the run.
  ult::UltConfig uc;
  uc.max_vcpus = config.processors;
  ult::UltRuntime sa1(&h.kernel(), "sa1", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime sa2(&h.kernel(), "sa2", ult::BackendKind::kSchedulerActivations, uc);
  rt::TopazRuntime kt(&h.kernel(), "kt");
  h.AddRuntime(&sa1);
  h.AddRuntime(&sa2);
  h.AddRuntime(&kt);
  // Periodic daemon preemptions keep processors churning through the
  // allocator (and redispatch any kernel thread parked by a revocation).
  h.AddDaemon("daemon", sim::Msec(2), sim::Usec(200));
  for (int i = 0; i < 8; ++i) {
    auto body = [i](rt::ThreadCtx& t) -> sim::Program {
      for (int k = 0; k < 12; ++k) {
        co_await t.Compute(sim::Usec(50 + 9 * (i % 4)));
        if ((k + i) % 3 == 0) {
          co_await t.Io(sim::Usec(70));
        }
      }
    };
    sa1.Spawn(body, std::string("a").append(std::to_string(i)));
    sa2.Spawn(body, std::string("b").append(std::to_string(i)));
    if (i % 2 == 0) {
      kt.Spawn(body, std::string("k").append(std::to_string(i)));
    }
  }
  h.Run();
  return h.trace()->Snapshot();
}

void ExpectPinnedTrace(Seeded style, size_t records, uint64_t digest) {
  const std::vector<trace::Record> trace = RunSeededWorkload(style);
  EXPECT_EQ(trace.size(), records);
  EXPECT_EQ(TraceDigest(trace), digest);
}

TEST(AllocZeroPerturbation, SaProtocolTraceIsByteIdentical) {
  ExpectPinnedTrace(Seeded::kSaProtocol, 4312, 0x461b2057c796af39ull);
}

TEST(AllocZeroPerturbation, RevocationStormTraceIsByteIdentical) {
  ExpectPinnedTrace(Seeded::kStorm, 10986, 0xcd44c9165d8de1a7ull);
}

TEST(AllocZeroPerturbation, AffinityStormTraceIsByteIdentical) {
  // Two sockets, affinity on: every affinity key on the incremental path
  // (incumbent leftovers, holdings-dirtied tiers, warm regrants) under 1 ms
  // revocation storms.
  ExpectPinnedTrace(Seeded::kAffinityStorm, 14452, 0x3f080f63dce74767ull);
}

}  // namespace
}  // namespace sa::kern
