// Demonstrates space-sharing under multiprogramming (Sections 3.2/4.1):
// two scheduler-activation applications with phased parallelism share a
// six-processor machine; the allocator's assignments are sampled over time.
//
//   $ ./examples/multiprogramming

#include <cstdio>
#include <string>
#include <vector>

#include "src/rt/harness.h"
#include "src/ult/ult_runtime.h"

using namespace sa;  // NOLINT: example brevity

// Phased workload: a serial warm-up, then `width` parallel workers, twice.
rt::WorkloadFn PhasedMain(int width) {
  return [width](rt::ThreadCtx& t) -> sim::Program {
    for (int phase = 0; phase < 2; ++phase) {
      co_await t.Compute(sim::Msec(20));  // serial phase: needs one processor
      std::vector<int> kids;
      for (int i = 0; i < width; ++i) {
        kids.push_back(co_await t.Fork(
            [](rt::ThreadCtx& c) -> sim::Program { co_await c.Compute(sim::Msec(30)); },
            "worker"));
      }
      for (int kid : kids) {
        co_await t.Join(kid);
      }
    }
  };
}

int main() {
  rt::HarnessConfig config;
  config.processors = 6;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness harness(config);

  ult::UltConfig uc;
  uc.max_vcpus = 6;
  ult::UltRuntime appA(&harness.kernel(), "appA", ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime appB(&harness.kernel(), "appB", ult::BackendKind::kSchedulerActivations, uc);
  harness.AddRuntime(&appA);
  harness.AddRuntime(&appB);

  appA.Spawn(PhasedMain(6), "A-main");
  appB.Spawn(PhasedMain(3), "B-main");

  std::printf("time(ms)  appA procs  appB procs  (6-processor machine)\n");
  std::function<void()> sample = [&] {
    std::printf("%7.0f  %10zu  %10zu\n", sim::ToMsec(harness.engine().now()),
                appA.address_space()->assigned().size(),
                appB.address_space()->assigned().size());
    if (!harness.AllDone()) {
      harness.engine().ScheduleIn(sim::Msec(10), sample);
    }
  };
  harness.engine().ScheduleIn(sim::Msec(5), sample);

  const sim::Time elapsed = harness.Run();
  std::printf("\nboth applications finished at %s\n",
              sim::FormatDuration(elapsed).c_str());
  std::printf("A ran %zu threads, B ran %zu; the allocator moved processors to\n"
              "whichever space had parallelism, splitting evenly under contention.\n",
              appA.threads_finished(), appB.threads_finished());
  return 0;
}
