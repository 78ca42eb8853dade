// Discrete-event simulation engine.
//
// A single Engine owns the virtual clock and two kinds of event source:
// scheduled events and timers.  Both fire in one order, (at, seq): by time,
// then by the sequence number every Schedule and every ArmTimer takes, so
// events due at the same instant fire in the order they were scheduled or
// armed (stable FIFO), which keeps runs deterministic.
//
// *Scheduled events* are fire and forget.  They sit in a heap of 16-byte
// keys; callbacks (sim::Callback, inline up to 24 bytes of capture) sit in
// an engine-owned slot array, freed as each event fires.  A key is the
// unsigned 128-bit number `uint64(at) << 64 | seq << 24 | slot`, so one
// integer compare orders keys by (at, seq); it is exact because every
// key's `at` is at least now() >= 0.  The heap is 4-ary: the children of
// key i are 4i+1..4i+4.  A pop's sift-down is what costs, and with 4
// children it takes half the levels of a binary heap and compares 64
// contiguous bytes a level.  Eight children measured slower.  Sift-up and
// sift-down move a hole and write the key once.
//
// *Timers* are the one event source that can be withdrawn.  A timer has at
// most one pending fire and a callback installed once (AddTimer), and is
// armed and disarmed in place (ArmTimer, DisarmTimer).  Whatever may be
// withdrawn is a timer of the object it belongs to: each processor's span
// end (hw::Processor) and time slice (kern::Kernel), and, only where their
// feature is on, the FastThreads heartbeat, a space's hang watchdog and
// the lending timers.  Span ends are most of a run's events (at seed 11,
// 69 % of those fired on perfbench's tenants, 83 % on storms and 99 % on
// firefly).  Timers live in a winner tree beside the heap: a leaf per
// timer holds its key, `uint64(at) << 64 | seq << 24 | timer` from the
// same sequence counter, or kNever when disarmed, and every inner node the
// least key below it; Step/RunUntil fire whichever of the heap's top and
// the tree's root is less.  Arming or disarming writes the leaf and
// replays its path to the root, one compare a level, so each doubling of
// the timers costs every arm a level.  A firing timer's leaf keeps its key
// while its handler runs and is cleared only if the handler did not arm
// it again, so a span end whose continuation begins the next span replays
// the path once; a nested Step or RunUntil inside a timer's handler is
// refused, since it would see that key.  pending_events() counts
// scheduled events and armed timers.

#ifndef SA_SIM_ENGINE_H_
#define SA_SIM_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/common/assert.h"
#include "src/sim/callback.h"
#include "src/sim/time.h"
#include "src/trace/trace.h"

namespace sa::sim {

// Names one of the engine's timers: its index in the order they were added.
// kNoTimer names none; it is never armed, and disarming it does nothing.
using TimerId = uint32_t;
inline constexpr TimerId kNoTimer = ~TimerId{0};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `at` (>= now).  It will
  // run: an event that may be withdrawn is a timer.
  void Schedule(Time at, Callback fn);

  // Schedules `fn` to run `delay` (>= 0) after now.
  void ScheduleIn(Duration delay, Callback fn) {
    SA_CHECK(delay >= 0);
    Schedule(now_ + delay, std::move(fn));
  }

  // Adds a disarmed timer whose every fire runs `fn`.  Not inside a timer's
  // handler.
  TimerId AddTimer(Callback fn);

  // Arms `t` to fire at absolute virtual time `at` (>= now), replacing the
  // fire it has pending, if any.  Takes the next sequence number, so `t`
  // fires after every event scheduled or timer armed before it for `at`.
  void ArmTimer(TimerId t, Time at);

  // Withdraws `t`'s pending fire.  Returns false, and does nothing, when it
  // has none (a timer is disarmed while its handler runs).
  bool DisarmTimer(TimerId t);

  bool timer_armed(TimerId t) const { return t != kNoTimer && timers_[t].armed; }
  // Timers added so far.
  size_t num_timers() const { return timers_.size(); }

  // Runs the next pending event or timer fire, if any.  Returns false when
  // none is left.
  bool Step();

  // Runs until the queue drains or `max_events` fire.
  void Run(uint64_t max_events = UINT64_MAX);

  // Runs events with time <= `until`, then moves the clock to `until`.  An
  // `until` in the past fires nothing and leaves the clock where it is.
  void RunUntil(Time until);

  uint64_t events_fired() const { return events_fired_; }

  // Scheduled events not yet fired, plus armed timers.
  size_t pending_events() const { return heap_.size() + armed_timers_; }

  // Event tracing (DESIGN.md §10).  The engine stamps records with the
  // virtual clock; components that hold an Engine* emit through it.  The
  // buffer is owned by the harness (or test); null means tracing is off.
  void set_tracer(trace::TraceBuffer* tracer) { tracer_ = tracer; }
  trace::TraceBuffer* tracer() const { return tracer_; }
  void TraceEmit(uint32_t category, trace::Kind kind, int cpu, int as_id,
                 uint64_t arg0 = 0, uint64_t arg1 = 0) {
    SA_TRACE_EMIT(tracer_, category, kind, static_cast<int64_t>(now_), cpu,
                  as_id, arg0, arg1);
  }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

  static constexpr size_t kArity = 4;

  // `uint64(at) << 64 | seq << 24 | slot or timer`: compares as (at, seq).
  using Key = unsigned __int128;
  // Above every key: a disarmed timer's leaf, or nothing left to fire.
  static constexpr Key kNever = ~Key{0};
  // A key at `at` naming slot or timer `index`, with the next sequence
  // number.
  Key NewKey(Time at, uint32_t index) {
    SA_CHECK_MSG(next_seq_ < (uint64_t{1} << (64 - kSlotBits)), "event sequence overflow");
    return static_cast<Key>(static_cast<uint64_t>(at)) << 64 | next_seq_++ << kSlotBits | index;
  }
  static Time AtOf(Key k) { return static_cast<Time>(k >> 64); }
  static uint32_t IndexOf(Key k) { return static_cast<uint32_t>(k & kSlotMask); }

  struct Timer {
    Callback fn;
    bool armed = false;
  };

  // Fills the hole at heap_[i] with `k`, moving larger parents down.
  void SiftUp(size_t i, Key k);
  // Fills the hole at heap_[i] with `k`, moving smaller children up.
  void SiftDown(size_t i, Key k);
  // Pops the top key, advances the clock to it and runs its callback.
  void FireTop();
  // The least key of the heap's top and the timers' root; kNever when
  // nothing is pending.
  Key NextDue() const {
    const Key top = heap_.empty() ? kNever : heap_.front();
    return top < tree_[1] ? top : tree_[1];
  }
  // Fires `next`, the key NextDue returned.
  void Fire(Key next);
  // Advances the clock to timer key `k` and runs the timer's handler.
  void FireTimer(Key k);
  // Writes timer `t`'s leaf and replays its path to the root.
  void SetLeaf(TimerId t, Key k);

  Time now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_fired_ = 0;
  std::vector<Key> heap_;  // 4-ary min-heap
  std::vector<Callback> slots_;  // a scheduled event's callback, by slot
  std::vector<uint32_t> free_slots_;
  std::vector<Timer> timers_;
  // The winner tree: tree_[1] is the root, the children of node i are 2i
  // and 2i+1, and timer t's leaf is tree_[leaves_ + t].
  std::vector<Key> tree_ = {kNever, kNever};
  size_t leaves_ = 1;
  size_t armed_timers_ = 0;
  TimerId firing_ = kNoTimer;  // the timer whose handler is running
  bool firing_leaf_stale_ = false;  // its leaf still holds the fired key
  trace::TraceBuffer* tracer_ = nullptr;
};

}  // namespace sa::sim

#endif  // SA_SIM_ENGINE_H_
