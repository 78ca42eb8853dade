// Direct drives of single layers, timed on the host: the allocator on stub
// spaces, the bare event engine, and the Barnes-Hut tree build.  Each runs
// in the shape of the workload whose traced run reports it.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/apps/nbody.h"
#include "src/common/rng.h"
#include "src/hw/machine.h"
#include "src/kern/kernel.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/sa_iface.h"
#include "src/sim/engine.h"

namespace perfbench {

namespace {

using namespace sa;

// An SA space with no runtime behind it: never starts spans, so every
// revocation takes the synchronous idle-in-kernel path.
class StubSpace : public kern::SaSpaceIface {
 public:
  void OnProcessorGranted(hw::Processor*) override {}
  void OnProcessorRevoked(hw::Processor*, kern::KThread*) override {}
  void OnThreadBlockedInKernel(kern::KThread*, hw::Processor*) override {}
  void OnThreadUnblockedInKernel(kern::KThread*) override {}
  void OnUpcallProcessorReady(hw::Processor*, kern::KThread*) override {}
  int OnSpaceReaped() override { return 0; }
};

int Poisson(common::Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.NextDouble();
  } while (p > limit);
  return k - 1;
}

}  // namespace

double AllocNsPerDecision(const AllocShape& shape, uint64_t seed, int ops, int reps) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    hw::TopologyConfig topology;
    topology.sockets = shape.sockets;
    hw::Machine machine(shape.processors, /*seed=*/1, topology);
    kern::Config config;
    config.mode = kern::KernelMode::kSchedulerActivations;
    config.affinity_allocation = shape.affinity;
    kern::Kernel kernel(&machine, config);
    std::vector<std::unique_ptr<StubSpace>> stubs;
    std::vector<kern::AddressSpace*> spaces;
    for (int i = 0; i < shape.spaces; ++i) {
      kern::AddressSpace* as = kernel.CreateAddressSpace(
          Name("s", i), kern::AsMode::kSchedulerActivations, i % shape.tiers);
      stubs.push_back(std::make_unique<StubSpace>());
      as->set_sa(stubs.back().get());
      spaces.push_back(as);
    }
    kern::ProcessorAllocator* alloc = kernel.allocator();
    common::Rng script(SubSeed(seed, 100 + static_cast<uint64_t>(rep)));
    common::Rng storm(script.Next());
    for (kern::AddressSpace* as : spaces) {
      alloc->SetDesired(as, 1 + Poisson(script, 3.0));
    }
    const int64_t before = alloc->decisions();
    const int64_t t0 = HostNs();
    for (int op = 0; op < ops; ++op) {
      if (script.Below(100) < 88) {
        kern::AddressSpace* as = spaces[script.Below(spaces.size())];
        alloc->SetDesired(as, 1 + Poisson(script, 3.0));
      } else {
        const uint64_t bursts = static_cast<uint64_t>(shape.processors / 8 + 1);
        alloc->InjectRevocations(1 + static_cast<int>(script.Below(bursts)), storm);
      }
    }
    const int64_t t1 = HostNs();
    const int64_t decisions = std::max<int64_t>(1, alloc->decisions() - before);
    samples.push_back(static_cast<double>(t1 - t0) / static_cast<double>(decisions));
  }
  return Median(samples);
}

double EngineNsPerEvent(int chains, uint64_t seed, int64_t events, int reps) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Engine engine;
    common::Rng rng(SubSeed(seed, 200 + static_cast<uint64_t>(rep)));
    // Each chain re-arms itself after a pseudo-random delay, so the heap
    // holds one pending event per chain, like one span per processor.
    std::function<void()> tick = [&] {
      engine.ScheduleIn(1 + static_cast<sim::Duration>(rng.Below(10000)), tick);
    };
    for (int c = 0; c < chains; ++c) {
      engine.ScheduleIn(1 + static_cast<sim::Duration>(rng.Below(10000)), tick);
    }
    const int64_t t0 = HostNs();
    for (int64_t i = 0; i < events; ++i) {
      engine.Step();
    }
    const int64_t t1 = HostNs();
    samples.push_back(static_cast<double>(t1 - t0) / static_cast<double>(events));
  }
  return Median(samples);
}

double TreeBuildUs(int bodies, uint64_t seed, int reps) {
  common::Rng rng(seed);
  const std::vector<apps::Body> disk = apps::MakeDisk(bodies, &rng);
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    apps::QuadTree tree;
    const int64_t t0 = HostNs();
    tree.Build(disk);
    const int64_t t1 = HostNs();
    samples.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return Median(samples);
}

}  // namespace perfbench
