// Host-speed calibration of the unit processes (bench.h).
//
// Host time on a shared machine drifts by tens of percent within seconds:
// other tenants of the physical cores slow a CPU-bound simulator down while a
// plain ALU loop or a memory-latency chase barely notices.  A calibration
// *burst* is a fixed amount of work of the simulator's own kind — a binary
// heap of timestamped events and a table indexed by their ids, with a
// data-dependent branch per event — over about 320 KiB, so it feels the same
// interference.  Calibration times kEdgeBursts bursts when it starts and
// again when it stops and, for a single-threaded unit, one burst every
// kPeriodUs on an interval timer in between, wherever the unit happens to
// be.  The unit's phases are then timed without the bursts and scaled by how
// much slower than kReferenceBurstNs the bursts ran.

#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <functional>
#include <utility>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

constexpr int kHeap = 4096;
constexpr int kTable = 1 << 16;
constexpr int kOpsPerBurst = 8000;
constexpr int kPeriodUs = 20'000;
constexpr int kEdgeBursts = 3;

// Static, so the signal handler allocates nothing.
std::pair<uint64_t, uint32_t> heap[kHeap];
uint32_t table[kTable];
uint64_t rng = 0x9e3779b97f4a7c15ull;
volatile uint64_t sink = 0;

// Written by the signal handler; lock-free atomics are async-signal-safe.
std::atomic<int64_t> bursts{0};
std::atomic<int64_t> burst_ns{0};
bool periodic = false;

void Burst() {
  uint64_t acc = 0;
  for (int i = 0; i < kOpsPerBurst; ++i) {
    std::pop_heap(heap, heap + kHeap, std::greater<>());
    std::pair<uint64_t, uint32_t>& e = heap[kHeap - 1];
    const uint32_t k = (e.second * 2654435761u) >> 16;
    switch ((e.first ^ k) & 3) {
      case 0:
        table[k] += 1;
        break;
      case 1:
        acc += table[k];
        break;
      case 2:
        table[(k + 7) & (kTable - 1)] ^= e.second;
        break;
      default:
        acc ^= e.first;
    }
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    e.first += 1 + rng % 1000;
    std::push_heap(heap, heap + kHeap, std::greater<>());
  }
  sink = sink + acc;
}

void TimedBurst() {
  const int64_t start = HostNs();
  Burst();
  burst_ns.fetch_add(HostNs() - start, std::memory_order_relaxed);
  bursts.fetch_add(1, std::memory_order_relaxed);
}

void OnTimer(int) {
  const int saved = errno;
  TimedBurst();
  errno = saved;
}

void SetTimer(int period_us) {
  itimerval it{};
  it.it_interval.tv_usec = period_us;
  it.it_value.tv_usec = period_us;
  setitimer(ITIMER_REAL, &it, nullptr);
}

}  // namespace

void StartCalibration(bool during_run) {
  for (int i = 0; i < kHeap; ++i) {
    heap[i] = {static_cast<uint64_t>(i) * 7919 % 100'000, static_cast<uint32_t>(i)};
  }
  std::make_heap(heap, heap + kHeap, std::greater<>());
  Burst();  // brings the burst's data into cache; not timed
  bursts = 0;
  burst_ns = 0;
  for (int i = 0; i < kEdgeBursts; ++i) {
    TimedBurst();
  }
  periodic = during_run;
  if (!periodic) {
    return;
  }
  struct sigaction action {};
  action.sa_handler = OnTimer;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, nullptr);
  SetTimer(kPeriodUs);
}

int64_t CalibrationNs() { return burst_ns.load(std::memory_order_relaxed); }

double StopCalibration() {
  if (periodic) {
    SetTimer(0);
  }
  for (int i = 0; i < kEdgeBursts; ++i) {
    TimedBurst();
  }
  return static_cast<double>(kReferenceBurstNs) * static_cast<double>(bursts.load()) /
         static_cast<double>(burst_ns.load());
}

}  // namespace perfbench
