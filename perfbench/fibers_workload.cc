// The `fibers` workload: the native fiber pool on real cores, one worker per
// CPU, with no simulator involved.  A unit runs three phases back to back:
//
//   spawn/join     a parent fiber spawns batches of short fibers and joins
//                  them (the worker-local spawn and recycle paths);
//   ping-pong      one semaphore ping-pong pair per worker (blocking sync and
//                  cross-fiber wake-ups);
//   external fork  the bench thread itself runs Spawn + Join, which enters
//                  the pool through the overflow queue and an external join.
//
// Every fiber writes a value derived from the seed; the unit checks the sum
// and that every fiber was joined.  FiberPoolStats::timeout_rescues is
// reported, not checked: under this load a parked worker's timed wake-up
// regularly sees work that a woken searcher is already about to take, so
// the counter is nonzero without any wake-up being lost.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/fibers/fiber_pool.h"
#include "src/trace/trace.h"

namespace perfbench {
namespace {

using sa::fibers::FiberHandle;
using sa::fibers::FiberPool;
using sa::fibers::FiberSemaphore;

class Fibers : public Workload {
 public:
  Fibers(uint64_t seed, bool small)
      : seed_(seed),
        workers_(static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))),
        batches_(small ? 20 : 400),
        rounds_(small ? 1000 : 20000),
        forks_(small ? 100 : 1000) {}

  void Prepare(bool traced) override {
    traced_ = traced;
    pool_ = std::make_unique<FiberPool>(workers_);
    if (traced) {
      tracer_ = std::make_unique<sa::trace::TraceBuffer>(1u << 20);
      tracer_->set_enabled(sa::trace::cat::kFibers);
      // The workers are already running and read the tracer unsynchronised;
      // the pool offers no way to install one before they start.
      pool_->set_tracer(tracer_.get());
    }
    // Fill the fiber slab and the workers' free lists before timing.
    std::vector<uint64_t> slots(kBatch);
    RunBatches(1, &slots);
    spawned_ = joined_ = 0;
    sum_ = expected_ = 0;
    spawn_ns_.clear();
    join_ns_.clear();
    wake_ns_.clear();
  }

  bool deterministic() const override { return false; }

  void Run() override {
    const int64_t t0 = HostNs();
    std::vector<uint64_t> slots(kBatch);
    RunBatches(batches_, &slots);
    const int64_t t1 = HostNs();
    PingPong();
    const int64_t t2 = HostNs();
    ExternalForks();
    const int64_t t3 = HostNs();
    phase_s_[0] = static_cast<double>(t1 - t0) / 1e9;
    phase_s_[1] = static_cast<double>(t2 - t1) / 1e9;
    phase_s_[2] = static_cast<double>(t3 - t2) / 1e9;
  }

  Unit Finish() override {
    Unit u;
    const sa::fibers::FiberPoolStats stats = pool_->stats();
    pool_.reset();  // joins the workers; the trace is readable after this
    if (sum_ != expected_) {
      u.Fail("fiber work checksum mismatch");
    }
    if (joined_ != spawned_) {
      u.Fail("fibers spawned but never joined");
    }
    Values& l = u.layer;
    const double spawn_joins = static_cast<double>(batches_) * kBatch;
    const double round_trips = static_cast<double>(workers_) * rounds_;
    l["spawn_join_mops"] = spawn_joins / phase_s_[0] / 1e6;
    l["signal_wait_mops"] = round_trips / phase_s_[1] / 1e6;
    l["external_fork_kops"] = static_cast<double>(forks_) / phase_s_[2] / 1e3;
    l["fibers.steal_hit_frac"] = Ratio(static_cast<double>(stats.steals),
                                       static_cast<double>(stats.steal_attempts));
    l["fibers.parks"] = static_cast<double>(stats.parks);
    l["fibers.wakeups"] = static_cast<double>(stats.wakeups);
    l["fibers.overflow_pops"] = static_cast<double>(stats.overflow_pops);
    l["fibers.timeout_rescues"] = static_cast<double>(stats.timeout_rescues);
    if (traced_) {
      l["fibers.spawn_ns"] = Median(spawn_ns_);
      l["fibers.join_ns"] = Median(join_ns_);
      l["fibers.wake_to_run_us_p50"] = Quantile(wake_ns_, 0.5) / 1e3;
      l["fibers.wake_to_run_us_p99"] = Quantile(wake_ns_, 0.99) / 1e3;
      l["trace.records"] = static_cast<double>(tracer_->total_emitted());
      l["trace.dropped"] = static_cast<double>(tracer_->dropped());
      tracer_.reset();
    }
    return u;
  }

 private:
  static constexpr int kBatch = 256;

  // The value fiber `i` of the unit contributes to the checksum.
  uint64_t Work(uint64_t i) const { return SubSeed(seed_, i) >> 40; }

  // Spawn/join from a parent fiber.  Traced runs time each Spawn and Join.
  void RunBatches(int batches, std::vector<uint64_t>* slots) {
    FiberHandle parent = pool_->Spawn([this, batches, slots] {
      FiberPool* pool = FiberPool::Current();
      std::vector<FiberHandle> handles(kBatch);
      for (int b = 0; b < batches; ++b) {
        const uint64_t base = spawned_;
        for (int i = 0; i < kBatch; ++i) {
          uint64_t* slot = &(*slots)[static_cast<size_t>(i)];
          const uint64_t value = Work(base + static_cast<uint64_t>(i));
          const int64_t t0 = traced_ ? HostNs() : 0;
          handles[static_cast<size_t>(i)] = pool->Spawn([slot, value] { *slot = value; });
          if (traced_) {
            spawn_ns_.push_back(static_cast<double>(HostNs() - t0));
          }
          expected_ += value;
        }
        spawned_ += kBatch;
        for (int i = 0; i < kBatch; ++i) {
          const int64_t t0 = traced_ ? HostNs() : 0;
          pool->Join(handles[static_cast<size_t>(i)]);
          if (traced_) {
            join_ns_.push_back(static_cast<double>(HostNs() - t0));
          }
          sum_ += (*slots)[static_cast<size_t>(i)];
          ++joined_;
        }
      }
    });
    pool_->Join(parent);
  }

  // One ping-pong pair per worker.  Traced runs time each wake-up from the
  // Post to the return of the Wait it releases.
  void PingPong() {
    struct Pair {
      FiberSemaphore ping{0};
      FiberSemaphore pong{0};
      std::atomic<int64_t> posted_at{0};
      uint64_t seen = 0;
      std::vector<double> wake_ns;
    };
    std::vector<std::unique_ptr<Pair>> pairs;
    std::vector<FiberHandle> handles;
    const bool traced = traced_;
    const int rounds = rounds_;
    for (int p = 0; p < workers_; ++p) {
      pairs.push_back(std::make_unique<Pair>());
      Pair* pair = pairs.back().get();
      const uint64_t value = Work(spawned_ + static_cast<uint64_t>(p));
      expected_ += value * static_cast<uint64_t>(rounds);
      handles.push_back(pool_->Spawn([pair, rounds, traced] {
        for (int r = 0; r < rounds; ++r) {
          if (traced) {
            pair->posted_at.store(HostNs(), std::memory_order_relaxed);
          }
          pair->ping.Post();
          pair->pong.Wait();
        }
      }));
      handles.push_back(pool_->Spawn([pair, rounds, traced, value] {
        for (int r = 0; r < rounds; ++r) {
          pair->ping.Wait();
          if (traced) {
            pair->wake_ns.push_back(static_cast<double>(
                HostNs() - pair->posted_at.load(std::memory_order_relaxed)));
          }
          pair->seen += value;
          pair->pong.Post();
        }
      }));
    }
    spawned_ += handles.size();
    for (FiberHandle& h : handles) {
      pool_->Join(h);
      ++joined_;
    }
    for (const auto& pair : pairs) {
      sum_ += pair->seen;
      wake_ns_.insert(wake_ns_.end(), pair->wake_ns.begin(), pair->wake_ns.end());
    }
  }

  // Spawn + Join from the bench thread (not a fiber).
  void ExternalForks() {
    uint64_t slot = 0;
    for (int i = 0; i < forks_; ++i) {
      const uint64_t value = Work(spawned_);
      FiberHandle h = pool_->Spawn([&slot, value] { slot = value; });
      ++spawned_;
      expected_ += value;
      pool_->Join(h);
      ++joined_;
      sum_ += slot;
    }
  }

  uint64_t seed_;
  int workers_;
  int batches_;
  int rounds_;
  int forks_;
  bool traced_ = false;
  std::unique_ptr<sa::trace::TraceBuffer> tracer_;
  std::unique_ptr<FiberPool> pool_;
  uint64_t spawned_ = 0;
  uint64_t joined_ = 0;
  uint64_t sum_ = 0;
  uint64_t expected_ = 0;
  double phase_s_[3] = {0, 0, 0};
  std::vector<double> spawn_ns_;
  std::vector<double> join_ns_;
  std::vector<double> wake_ns_;
};

}  // namespace

std::unique_ptr<Workload> MakeFibers(uint64_t seed, bool small) {
  return std::make_unique<Fibers>(seed, small);
}

}  // namespace perfbench
