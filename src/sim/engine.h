// Discrete-event simulation engine.
//
// A single Engine owns the virtual clock and two kinds of event source:
// scheduled events and timers.  Both fire in one order, (at, seq): by time,
// then by the sequence number every Schedule and every ArmTimer takes, so
// events due at the same instant fire in the order they were scheduled or
// armed (stable FIFO), which keeps runs deterministic.
//
// *Scheduled events.*  Scheduling returns an EventId, the one handle on an
// event: Cancel(id) withdraws it and pending(id) asks whether it is still
// due.  The events sit in a heap of 16-byte keys; callbacks (sim::Callback,
// inline up to 24 bytes of capture) sit in an engine-owned slot array.  An
// id is `seq << 24 | slot`, and a key is the unsigned 128-bit number
// `uint64(at) << 64 | id`, so one integer compare orders keys by (at, id),
// that is by (at, seq).  The compare is exact because every key's `at` is
// at least now() >= 0, so no time is negative.  A key is live while its
// slot still holds its id: firing or cancelling frees the slot at once, so
// a stale id can neither cancel nor report the event that later reuses its
// slot.  Cancellation is lazy on the heap side: a dead key stays until it
// reaches the top, or until more than half the heap is dead and it is
// compacted.
//
// The heap is 4-ary: the children of key i are 4i+1..4i+4.  Every event is
// one push and one pop, and a pop's sift-down is what costs: with 4
// children it takes half the levels of a binary heap, and the four
// siblings it compares are 64 contiguous bytes.  Eight children measured
// slower.  Sift-up and sift-down move a hole and write the key once.
//
// *Timers.*  A timer is an event source with at most one pending fire and a
// callback installed once (AddTimer), armed and disarmed in place
// (ArmTimer, DisarmTimer).  Each simulated processor runs one span at a
// time, and a span's end is its processor's timer (hw::Processor): span
// ends are most of a run's events (at seed 11, 69 % of the events fired on
// perfbench's tenants workload, 83 % on storms and 99 % on firefly), and
// as timers they cost no slot, no callback move and no heap push or pop.
// Timers live in a winner (tournament) tree beside the heap: a leaf per
// timer holds its key, or kNever when disarmed, and every inner node the
// least key below it, so the root is the earliest armed timer.  A timer's
// key is built like an event's, `uint64(at) << 64 | seq << 24 | timer`,
// from the same sequence counter, so a timer key and a heap key compare as
// (at, seq) too, and Step/RunUntil fire whichever of the heap's live top
// and the tree's root is less.  Arming or disarming writes the leaf and
// replays its path to the root, one compare a level.  A firing timer's
// leaf keeps its key while its handler runs and is cleared only if the
// handler did not arm it again, so a span end whose continuation begins
// the next span replays the path once; a nested Step or RunUntil inside a
// timer's handler is refused, since it would see that key.
// pending_events() counts live events and armed timers.

#ifndef SA_SIM_ENGINE_H_
#define SA_SIM_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/common/assert.h"
#include "src/sim/callback.h"
#include "src/sim/time.h"
#include "src/trace/trace.h"

namespace sa::sim {

// Names one scheduled event.  kNoEvent is never pending, so it is the
// natural value for a handle with nothing scheduled.
using EventId = uint64_t;
inline constexpr EventId kNoEvent = 0;

// Names one of the engine's timers: its index in the order they were added.
using TimerId = uint32_t;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `at` (>= now).  Callers
  // that never cancel may ignore the id.
  EventId Schedule(Time at, Callback fn);

  // Schedules `fn` to run `delay` (>= 0) after now.
  EventId ScheduleIn(Duration delay, Callback fn) {
    SA_CHECK(delay >= 0);
    return Schedule(now_ + delay, std::move(fn));
  }

  // Withdraws a pending event: its callback never runs.  Returns false, and
  // does nothing, for kNoEvent or an event that already fired or was
  // cancelled.
  bool Cancel(EventId id);

  // True between scheduling and fire/cancel.
  bool pending(EventId id) const {
    const uint64_t slot = id & kSlotMask;
    return id != kNoEvent && slot < slots_.size() && slots_[slot].id == id;
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

  bool timer_armed(TimerId t) const { return timers_[t].armed; }

  // Runs the next pending event or timer fire, if any.  Returns false when
  // none is left.
  bool Step();

  // Runs until the queue drains or `max_events` fire.
  void Run(uint64_t max_events = UINT64_MAX);

  // Runs events with time <= `until`, then moves the clock to `until`.  An
  // `until` in the past fires nothing and leaves the clock where it is.
  void RunUntil(Time until);

  uint64_t events_fired() const { return events_fired_; }

  // Scheduled events that have neither fired nor been cancelled, plus
  // armed timers.
  size_t pending_events() const { return live_events_ + armed_timers_; }

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
  static constexpr TimerId kNoTimer = ~TimerId{0};

  // `uint64(at) << 64 | id`: compares as (at, id).
  using Key = unsigned __int128;
  // Above every key: a disarmed timer's leaf, or nothing left to fire.
  static constexpr Key kNever = ~Key{0};
  static Key MakeKey(Time at, EventId id) {
    return static_cast<Key>(static_cast<uint64_t>(at)) << 64 | id;
  }
  static Time AtOf(Key k) { return static_cast<Time>(k >> 64); }
  static EventId IdOf(Key k) { return static_cast<EventId>(k); }

  struct Slot {
    EventId id = kNoEvent;  // the event this slot holds; kNoEvent when free
    Callback fn;
  };

  struct Timer {
    Callback fn;
    bool armed = false;
  };

  bool live(Key k) const { return slots_[IdOf(k) & kSlotMask].id == IdOf(k); }
  // Fills the hole at heap_[i] with `k`, moving larger parents down.
  void SiftUp(size_t i, Key k);
  // Fills the hole at heap_[i] with `k`, moving smaller children up.
  void SiftDown(size_t i, Key k);
  // Removes and returns the least key of a non-empty heap.
  Key PopMin();
  // Frees the slot of live event `id`, handing back its callback.
  Callback Release(EventId id);
  // Discards dead keys at the top of the heap; false when no live key is left.
  bool DropDeadTop();
  // Pops the live top key, advances the clock to it and runs its callback.
  void FireTop();
  // The least key of the heap's live top and the timers' root; kNever when
  // nothing is pending.
  Key NextKey();
  // Fires `next`, the key NextKey returned.
  void Fire(Key next);
  // Advances the clock to timer key `k` and runs the timer's handler.
  void FireTimer(Key k);
  // Writes timer `t`'s leaf and replays its path to the root.
  void SetLeaf(TimerId t, Key k);
  // Rebuilds the heap without its dead keys once more than half are dead.
  void MaybeCompact();

  Time now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_fired_ = 0;
  size_t live_events_ = 0;
  std::vector<Key> heap_;  // 4-ary min-heap
  std::vector<Slot> slots_;
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
