// Traces the Table-2 upcall protocol through the event-trace layer
// (DESIGN.md §10) and exports a Chrome trace for chrome://tracing or
// ui.perfetto.dev:
//
//   $ ./examples/upcall_trace [out.json]
//
// The scenario provokes all four Table-2 upcall kinds: two address spaces
// share two processors, threads block and unblock in the kernel (I/O), and
// the late-arriving second space forces a preemption of the first.  The run
// is seeded, so the exported trace is byte-identical on every invocation.

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/upcall.h"
#include "src/rt/harness.h"
#include "src/trace/chrome_export.h"
#include "src/trace/invariants.h"
#include "src/trace/trace.h"
#include "src/ult/ult_runtime.h"

using namespace sa;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "upcall_trace.json";

  rt::HarnessConfig config;
  config.processors = 2;
  config.kernel.mode = kern::KernelMode::kSchedulerActivations;
  rt::Harness harness(config);
  trace::TraceBuffer& tb = harness.EnableTracing(trace::cat::kAll);

  ult::UltConfig uc;
  uc.max_vcpus = 2;
  ult::UltRuntime app(&harness.kernel(), "app",
                      ult::BackendKind::kSchedulerActivations, uc);
  ult::UltRuntime rival(&harness.kernel(), "rival",
                        ult::BackendKind::kSchedulerActivations, uc);
  harness.AddRuntime(&app);
  harness.AddRuntime(&rival);

  // "app" keeps both processors busy, with one thread doing I/O so the
  // kernel vectors blocked/unblocked events.
  app.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Msec(20));
      },
      "cpu-thread");
  app.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Compute(sim::Msec(1));
        co_await t.Io(sim::Msec(5));  // blocks in the kernel
        co_await t.Compute(sim::Msec(1));
      },
      "io-thread");
  // "rival" arrives later and takes a processor away: the space-sharing
  // allocator preempts one of app's processors (Table-2 "preempted").
  rival.Spawn(
      [](rt::ThreadCtx& t) -> sim::Program {
        co_await t.Io(sim::Msec(4));
        co_await t.Compute(sim::Msec(8));
      },
      "intruder");

  const sim::Time elapsed = harness.Run();
  const std::vector<trace::Record> records = tb.Snapshot();

  // Narrate the protocol from the trace, with virtual timestamps: every
  // event the kernel queued for a space, and every upcall that carried them.
  for (const trace::Record& r : records) {
    const auto kind = static_cast<trace::Kind>(r.kind);
    if (kind != trace::Kind::kUpcallQueued && kind != trace::Kind::kUpcallDeliver) {
      continue;
    }
    const std::string& space = harness.kernel().spaces()[static_cast<size_t>(r.as_id)]->name();
    std::printf("[%9.3f ms] %s: ", sim::ToMsec(r.ts), space.c_str());
    if (kind == trace::Kind::kUpcallQueued) {
      std::printf("queue %s(act %lld)\n",
                  core::UpcallEventKindName(static_cast<core::UpcallEvent::Kind>(r.arg0)),
                  static_cast<long long>(r.arg1));
    } else {
      std::printf("upcall on processor %d, activation %lld, %llu events\n", r.cpu,
                  static_cast<long long>(r.arg1), static_cast<unsigned long long>(r.arg0));
    }
  }

  const auto& k = harness.kernel().counters();
  std::printf("\nfinished in %s; %lld upcalls carried %lld events "
              "(combining ratio %.2f)\n",
              sim::FormatDuration(elapsed).c_str(), static_cast<long long>(k.upcalls),
              static_cast<long long>(k.upcall_events),
              static_cast<double>(k.upcall_events) / static_cast<double>(k.upcalls));

  // Count delivered Table-2 events straight from the trace.
  int64_t by_kind[4] = {};
  for (const trace::Record& r : records) {
    if (static_cast<trace::Kind>(r.kind) == trace::Kind::kUpcallEvent && r.arg0 < 4) {
      ++by_kind[r.arg0];
    }
  }
  std::printf("Table-2 events delivered:\n");
  for (int i = 0; i < 4; ++i) {
    std::printf("  %-16s %lld\n",
                core::UpcallEventKindName(static_cast<core::UpcallEvent::Kind>(i)),
                static_cast<long long>(by_kind[i]));
  }

  const trace::CheckResult check = trace::CheckInvariants(records);
  std::printf("invariant checker: %s (%llu vessel snapshots)\n",
              check.ok() ? "clean" : check.Summary().c_str(),
              static_cast<unsigned long long>(check.vessel_checks));

  if (trace::WriteChromeJson(tb, out_path)) {
    std::printf("wrote %zu trace records to %s (open in ui.perfetto.dev)\n",
                records.size(), out_path.c_str());
  } else {
    std::printf("failed to write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
