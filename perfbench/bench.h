// Shared types of the repository benchmark (README.md).
//
// A workload is a fixed-size unit of work that the runner (main.cc) prepares,
// runs and checks repeatedly for the measuring window.  Preparation is timed
// as set-up, the run itself as wall time; everything the unit computes in
// virtual time goes into a fingerprint that must be identical on every run
// of the same seed.  A traced run additionally fills per-layer numbers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// Metric values by name; units live in the metric tables (main.cc).
using Values = std::map<std::string, double>;

// Outcome of one run of a workload's unit.
struct Unit {
  bool ok = true;
  std::string error;  // why the unit failed (empty when ok)
  // Every virtual-time result and counter of the run, in a fixed order.
  std::vector<int64_t> fingerprint;
  // Per-layer numbers (traced runs; untraced runs may leave some unset).
  Values layer;

  void Fail(const std::string& why) {
    if (ok) {
      error = why;
    }
    ok = false;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the unit's inputs and objects (timed as set-up).  `traced` turns
  // on the layer's event tracing for the run that follows.
  virtual void Prepare(bool traced) = 0;
  // Runs the prepared unit to completion (timed as wall time).
  virtual void Run() = 0;
  // Checks the outputs, collects numbers and releases the unit.
  virtual Unit Finish() = 0;
  // Direct drives of single layers in this workload's shape (traced runs).
  virtual void Probe(Values* layer) {}
  // True when every run of the unit does exactly the same work on one thread
  // (the simulator), so a calibration timer may interrupt it anywhere.  A
  // pool of native threads would be disturbed by it (a worker stopped while
  // others wait on it), so there calibration runs only before and after.
  virtual bool deterministic() const { return true; }
};

// Host-speed calibration (calibration.cc), used inside a unit process.
// StartCalibration times a few bursts of fixed work and, if `during_run`,
// then one every 20 ms on a timer, interrupting whatever the process does;
// CalibrationNs is the host time spent in bursts so far, to be taken out of
// a phase's time; StopCalibration stops the timer, times a few last bursts
// and returns the factor kReferenceBurstNs / mean burst time, which scales
// the phases' host time to a host on which a burst takes kReferenceBurstNs.
constexpr int64_t kReferenceBurstNs = 1'000'000;
void StartCalibration(bool during_run);
int64_t CalibrationNs();
double StopCalibration();

// `small` selects the reduced sizes the self-test uses.
std::unique_ptr<Workload> MakeTenants(uint64_t seed, bool small);
std::unique_ptr<Workload> MakeFirefly(uint64_t seed, bool small);
std::unique_ptr<Workload> MakeStorms(uint64_t seed, bool small);
std::unique_ptr<Workload> MakeFibers(uint64_t seed, bool small);

// Direct layer drives shared by the simulator workloads (probes.cc).
struct AllocShape {
  int processors = 6;
  int sockets = 1;
  int spaces = 3;
  int tiers = 1;
  bool affinity = false;
};
// Host ns per allocator decision under demand churn plus revocation storms
// on stub spaces; median of `reps` timed passes of `ops` operations.
double AllocNsPerDecision(const AllocShape& shape, uint64_t seed, int ops, int reps);
// Host ns per event of a bare engine with `chains` self-rescheduling event
// chains (one per simulated processor); median of `reps` passes.
double EngineNsPerEvent(int chains, uint64_t seed, int64_t events, int reps);
// Host µs per Barnes-Hut tree build over `bodies` disk bodies; median.
double TreeBuildUs(int bodies, uint64_t seed, int reps);

// ---- small helpers ----

inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Derives an independent stream seed from the workload seed (splitmix64).
inline uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// `prefix` followed by `index`, e.g. "hi3".
inline std::string Name(const char* prefix, int index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
