// Allocator scaling (DESIGN.md §14): wall-clock cost of one allocation
// decision as the machine and the multiprogramming level grow.
//
// The allocator is driven directly — stub SA spaces, no simulator — so the
// numbers isolate kern::ProcessorAllocator itself.  Stub spaces never start
// spans, so every storm revocation takes the synchronous idle-in-kernel path
// and a whole burst resolves before InjectRevocations returns.  The workload
// per cell is Poisson demand churn (demands stay >= 1, so tier membership is
// stable — lifecycle churn is the differential fuzz suite's job) mixed with
// revocation storms, the shape that made the original full-rescan allocator
// O(free x spaces) per decision.
//
// Emits BENCH_alloc_scale.json and exits non-zero unless doubling the space
// count at 256 processors raises the mean decision cost by < 1.5x per
// doubling (sublinearity; CI runs --smoke).  That every decision matches the
// full-rescan policy is alloc_incremental_test's differential fuzz.
//
// Usage: bench_alloc_scale [--smoke] [out.json]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/hw/machine.h"
#include "src/kern/address_space.h"
#include "src/kern/kernel.h"
#include "src/kern/proc_alloc.h"
#include "src/kern/sa_iface.h"

namespace sa {
namespace {

// Never starts spans, so revocations resolve synchronously.
class StubSaSpace : public kern::SaSpaceIface {
 public:
  void OnProcessorGranted(hw::Processor*) override {}
  void OnProcessorRevoked(hw::Processor*, kern::KThread*) override {}
  void OnThreadBlockedInKernel(kern::KThread*, hw::Processor*) override {}
  void OnThreadUnblockedInKernel(kern::KThread*) override {}
  void OnUpcallProcessorReady(hw::Processor*, kern::KThread*) override {}
  int OnSpaceReaped() override { return 0; }
};

class AllocBench {
 public:
  explicit AllocBench(int processors) : machine_(processors, /*seed=*/1) {
    kern::Config config;
    config.mode = kern::KernelMode::kSchedulerActivations;
    kernel_ = std::make_unique<kern::Kernel>(&machine_, config);
  }

  kern::ProcessorAllocator* alloc() { return kernel_->allocator(); }

  void CreateSpaces(int n) {
    for (int i = 0; i < n; ++i) {
      kern::AddressSpace* as = kernel_->CreateAddressSpace(
          "s" + std::to_string(i), kern::AsMode::kSchedulerActivations,
          /*priority=*/i % 4);
      stubs_.push_back(std::make_unique<StubSaSpace>());
      as->set_sa(stubs_.back().get());
      spaces_.push_back(as);
    }
  }

  const std::vector<kern::AddressSpace*>& spaces() const { return spaces_; }

 private:
  hw::Machine machine_;
  std::unique_ptr<kern::Kernel> kernel_;
  std::vector<std::unique_ptr<StubSaSpace>> stubs_;
  std::vector<kern::AddressSpace*> spaces_;
};

// Knuth's Poisson sampler; fine for the small means used here.
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

// One op of the churn script: re-demand a random space, or a storm.
void ChurnOp(AllocBench& b, common::Rng& script, common::Rng& storm, int processors) {
  const uint64_t pick = script.Below(100);
  if (pick < 88) {
    const size_t idx = static_cast<size_t>(script.Below(b.spaces().size()));
    const int demand = 1 + Poisson(script, 3.0);
    b.alloc()->SetDesired(b.spaces()[idx], demand);
  } else {
    const int burst =
        1 + static_cast<int>(script.Below(static_cast<uint64_t>(processors / 8 + 1)));
    b.alloc()->InjectRevocations(burst, storm);
  }
}

struct CellResult {
  int processors = 0;
  int spaces = 0;
  int ops = 0;
  int64_t decisions = 0;
  double ns_per_decision = 0.0;
};

CellResult RunCell(int processors, int spaces, int ops, int reps) {
  CellResult out;
  out.processors = processors;
  out.spaces = spaces;
  out.ops = ops;
  for (int rep = 0; rep < reps; ++rep) {
    AllocBench b(processors);
    b.CreateSpaces(spaces);
    common::Rng script(42 + static_cast<uint64_t>(rep));
    common::Rng storm(script.Next() ^ 0x9e3779b97f4a7c15ull);
    for (kern::AddressSpace* as : b.spaces()) {
      b.alloc()->SetDesired(as, 1 + Poisson(script, 3.0));
    }
    const int64_t before = b.alloc()->decisions();
    const auto t0 = std::chrono::steady_clock::now();
    for (int op = 0; op < ops; ++op) {
      ChurnOp(b, script, storm, processors);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const int64_t decisions = b.alloc()->decisions() - before;
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        static_cast<double>(decisions > 0 ? decisions : 1);
    // Min over reps: wall-clock noise only ever adds.
    if (rep == 0 || ns < out.ns_per_decision) {
      out.ns_per_decision = ns;
      out.decisions = decisions;
    }
  }
  return out;
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<CellResult>& cells,
               const std::vector<CellResult>& series,
               const std::vector<double>& ratios, bool ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("bench_alloc_scale: fopen");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"alloc_scale\",\n  \"build_type\": \"%s\",\n"
               "  \"smoke\": %s,\n  \"machine_cap\": 512,\n  \"cells\": [\n",
               bench::kBuildType, smoke ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(f,
                 "    {\"processors\": %d, \"spaces\": %d, \"ops\": %d, "
                 "\"decisions\": %lld, \"ns_per_decision\": %.1f}%s\n",
                 c.processors, c.spaces, c.ops, static_cast<long long>(c.decisions),
                 c.ns_per_decision, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"doubling_series\": {\"processors\": %d, \"cells\": [\n",
               series.empty() ? 0 : series.front().processors);
  for (size_t i = 0; i < series.size(); ++i) {
    std::fprintf(f, "    {\"spaces\": %d, \"ns_per_decision\": %.1f}%s\n",
                 series[i].spaces, series[i].ns_per_decision,
                 i + 1 < series.size() ? "," : "");
  }
  std::fprintf(f, "  ], \"ratios\": [");
  for (size_t i = 0; i < ratios.size(); ++i) {
    std::fprintf(f, "%.3f%s", ratios[i], i + 1 < ratios.size() ? ", " : "");
  }
  std::fprintf(f, "]},\n  \"gates_passed\": %s\n}\n", ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace sa

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_alloc_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  sa::bench::WarnIfDebugBuild("bench_alloc_scale");

  const int ops = smoke ? 3000 : 6000;
  const int reps = smoke ? 2 : 3;
  std::printf("Allocator scaling: Poisson demand churn + revocation storms, "
              "%d ops/cell, min of %d reps%s\n\n",
              ops, reps, smoke ? " (smoke)" : "");

  // Survey grid: machine sizes up to the 512 cap, multiprogramming up to
  // 4096 spaces.
  std::vector<sa::CellResult> cells;
  if (!smoke) {
    for (int processors : {6, 64, 256, 512}) {
      for (int spaces : {8, 128, 2048, 4096}) {
        cells.push_back(sa::RunCell(processors, spaces, ops, reps));
      }
    }
  }

  // Sublinearity series: 256 processors, spaces doubling.
  const std::vector<int> series_spaces =
      smoke ? std::vector<int>{1024, 2048}
            : std::vector<int>{256, 512, 1024, 2048, 4096};
  std::vector<sa::CellResult> series;
  for (int spaces : series_spaces) {
    series.push_back(sa::RunCell(256, spaces, ops, reps));
  }
  std::vector<double> ratios;
  for (size_t i = 1; i < series.size(); ++i) {
    ratios.push_back(series[i].ns_per_decision / series[i - 1].ns_per_decision);
  }

  sa::common::Table t({"processors", "spaces", "ns/decision"});
  for (const sa::CellResult& c : cells) {
    t.AddRow({sa::common::Table::Num(c.processors), sa::common::Table::Num(c.spaces),
              sa::common::Table::Num(c.ns_per_decision, 1)});
  }
  for (const sa::CellResult& c : series) {
    t.AddRow({sa::common::Table::Num(c.processors),
              sa::common::Table::Num(c.spaces) + " (series)",
              sa::common::Table::Num(c.ns_per_decision, 1)});
  }
  t.Print();

  bool ok = true;
  for (size_t i = 0; i < ratios.size(); ++i) {
    if (ratios[i] >= 1.5) {
      std::printf("FAIL: doubling spaces %d -> %d raised decision cost %.2fx "
                  "(need < 1.5x)\n",
                  series[i].spaces, series[i + 1].spaces, ratios[i]);
      ok = false;
    }
  }
  if (ok) {
    std::printf("gate passed: < 1.5x per space doubling\n");
  }

  sa::WriteJson(out_path, smoke, cells, series, ratios, ok);
  return ok ? 0 : 1;
}
