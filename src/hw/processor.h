// Simulated physical processor.
//
// A processor executes one *span* at a time.  A span is either timed (a fixed
// amount of busy work with a completion continuation) or open-ended (a spin or
// idle loop that lasts until an external actor ends it).  Preemption is
// modelled with RequestInterrupt(): a preemptible span is cut on the spot
// and the interrupt handler receives everything needed to resume the span
// later (a SavedSpan: remaining duration + the original continuation, which
// Resume() continues); a non-preemptible span (kernel mode) latches the
// request, which fires at the next preemptible BeginSpan or is consumed at
// an explicit dispatch point.  Where a timed span ends, the kernel's
// span-end check may drop the continuation of a context that died meanwhile.
//
// A timed span's end is the processor's engine timer (sim::Engine), added
// once at construction with EndSpan as its handler: BeginSpan arms it and a
// preemption disarms it.  One span at a time means one pending end at a
// time, and span ends are most of a run's events, so a span costs no event
// slot, no callback move into the engine and no heap push or pop.  The arm
// takes the engine's next sequence number, as a scheduled completion did,
// so span ends fire in the same (at, seq) order among all events.  An open
// span may have a deadline on the same timer: a user-level idle loop that
// spins for a while before it gives its processor back (FastThreads' idle
// hysteresis, Section 4.2).  At the deadline its callback runs with the
// span still open and ends it; ending or preempting the span first
// withdraws the deadline.
//
// Time spent is accounted per SpanMode so experiments can report processor
// busy/spin/idle breakdowns.

#ifndef SA_HW_PROCESSOR_H_
#define SA_HW_PROCESSOR_H_

#include <array>
#include <string>

#include "src/common/assert.h"
#include "src/sim/callback.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace sa::hw {

enum class SpanMode : int {
  kIdle = 0,      // no span at all (kernel idle loop)
  kUser = 1,      // application computation
  kMgmt = 2,      // user-level thread management (dispatch, fork, enqueue...)
  kKernel = 3,    // kernel mode (traps, scheduling, upcall setup)
  kSpin = 4,      // user-level spin-waiting on a lock
  kIdleSpin = 5,  // user-level scheduler idle loop (looks busy to the kernel)
};
constexpr int kNumSpanModes = 6;

const char* SpanModeName(SpanMode mode);

// The unfinished part of a preempted timed span.  The kernel files it in the
// stopped context (kern::KThread::saved_span) and Processor::Resume continues
// it; an activation's span travels up in an upcall instead (DESIGN.md §3).
struct SavedSpan {
  sim::Duration remaining = 0;
  SpanMode mode = SpanMode::kUser;
  bool critical_section = false;
  sim::Callback on_complete;

  bool valid() const { return static_cast<bool>(on_complete); }
};

// Delivered to the interrupt handler when a span is preempted.
struct Interrupt {
  // The cut timed span, valid() only then; an open span sets only its mode.
  SavedSpan span;
  sim::Duration elapsed = 0;  // time spent in the span before preemption
  bool open = false;      // span was open-ended (spin/idle loop)
  bool was_idle = false;  // processor had no span at all
};

class Processor {
 public:
  using InterruptHandler = sim::InlineFunction<void(Processor*, Interrupt)>;
  // Runs where a timed span ends, before its continuation.  True means the
  // context that began the span is dead: the processor then drops the
  // continuation, and the check has already handed the processor back.
  using SpanEndCheck = sim::InlineFunction<bool(Processor*)>;

  Processor(sim::Engine* engine, int id);
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  int id() const { return id_; }

  // Installed once by the kernel at boot.
  void set_interrupt_handler(InterruptHandler handler) {
    interrupt_handler_ = std::move(handler);
  }
  void set_span_end_check(SpanEndCheck check) { span_end_check_ = std::move(check); }

  bool has_span() const { return span_active_; }
  bool span_open() const { return span_active_ && open_; }
  SpanMode current_mode() const { return span_active_ ? mode_ : SpanMode::kIdle; }
  bool in_critical_section() const { return span_active_ && critical_section_; }

  // Begins a timed span.  If an interrupt is latched and the span is
  // preemptible, the handler fires immediately (remaining = full duration)
  // instead of the span starting.  d == 0 runs on_complete synchronously.
  void BeginSpan(sim::Duration d, SpanMode mode, bool preemptible, bool critical_section,
                 sim::Callback on_complete);

  // Convenience for non-preemptible kernel-mode work.
  void BeginKernelSpan(sim::Duration d, sim::Callback on_complete) {
    BeginSpan(d, SpanMode::kKernel, /*preemptible=*/false, /*critical_section=*/false,
              std::move(on_complete));
  }

  // Continues a preempted span where it left off, preemptibly as it was
  // begun, and leaves `saved` empty first: a latched interrupt may cut the
  // continued span at once and file it again.
  void Resume(SavedSpan& saved);

  // Begins an open-ended busy span (spin or user-level idle loop); always
  // preemptible.  If an interrupt is latched it fires immediately instead,
  // and nothing is armed.  With `at_deadline`, the span has a deadline
  // `deadline` after it begins: `at_deadline` runs then, once, with the
  // span still open, unless the span ended or was preempted first.  It
  // passes no span-end check, and emits no trace record of its own.
  void BeginOpenSpan(SpanMode mode, sim::Duration deadline = 0,
                     sim::Callback at_deadline = nullptr);

  // Ends an open span from outside (work arrived / lock granted, or its
  // deadline's callback), withdrawing its deadline.
  void EndOpenSpan();

  // Kernel-initiated preemption.  Synchronously fires the interrupt handler
  // if the current span is preemptible / open / absent; otherwise latches.
  void RequestInterrupt();

  bool interrupt_latched() const { return interrupt_latched_; }

  // Dispatch-point check: if an interrupt is latched, clears it and returns
  // true (the caller then runs the preemption path itself, with the current
  // execution already at a clean boundary).
  bool ConsumeLatchedInterrupt();

  // --- accounting ---
  sim::Duration time_in(SpanMode mode) const;
  sim::Duration busy_time() const;  // everything except kIdle
  // Closes the current accounting period (call before reading at end of run).
  void FlushAccounting();

 private:
  void AccumulateTo(sim::Time now);
  void FireInterrupt(Interrupt irq);
  // The span-end timer's handler: closes the timed span and runs its
  // continuation, unless the span-end check drops it; or runs an open
  // span's deadline callback.
  void EndSpan();
  // Withdraws the open span's deadline, if it has one.
  void DropDeadline();

  sim::Engine* engine_;
  const int id_;
  const sim::TimerId span_end_;
  InterruptHandler interrupt_handler_;
  SpanEndCheck span_end_check_;

  // Current span.
  bool span_active_ = false;
  bool open_ = false;
  bool preemptible_ = true;
  bool critical_section_ = false;
  SpanMode mode_ = SpanMode::kIdle;
  sim::Time span_start_ = 0;
  sim::Duration span_duration_ = 0;
  // A timed span's continuation, or an open span's deadline callback.
  sim::Callback on_complete_;

  bool interrupt_latched_ = false;
  bool in_handler_ = false;

  // Accounting.
  sim::Time account_from_ = 0;
  std::array<sim::Duration, kNumSpanModes> accounted_{};
};

}  // namespace sa::hw

#endif  // SA_HW_PROCESSOR_H_
