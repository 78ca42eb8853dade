// Discrete-event simulation engine.
//
// A single Engine owns the virtual clock and a min-heap of scheduled events.
// Scheduling returns an EventId, the one handle on an event: Cancel(id)
// withdraws it and pending(id) asks whether it is still due.  Events
// scheduled for the same instant fire in scheduling order (stable FIFO by
// sequence number), which keeps runs deterministic.
//
// The heap holds 16-byte keys; callbacks (sim::Callback, inline up to 24
// bytes of capture) sit in an engine-owned slot array.  An id is
// `seq << 24 | slot`, and a key is the unsigned 128-bit number
// `uint64(at) << 64 | id`, so one integer compare orders keys by (at, id),
// that is by (at, seq).  The compare is exact because every key's `at` is
// at least now() >= 0, so no time is negative.  A key is live while its
// slot still holds its id: firing or cancelling frees the slot at once, so
// a stale id can neither cancel nor report the event that later reuses its
// slot.  Cancellation is lazy on the heap side: a dead key stays until it
// reaches the top, or until more than half the heap is dead and it is
// compacted.  pending_events() counts live events only.
//
// The heap is 4-ary: the children of key i are 4i+1..4i+4.  Every event is
// one push and one pop, and a pop's sift-down is what costs: with 4
// children it takes half the levels of a binary heap, and the four
// siblings it compares are 64 contiguous bytes.  Eight children measured
// slower.  Sift-up and sift-down move a hole and write the key once.

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
// natural value for a timer that is not armed.
using EventId = uint64_t;
inline constexpr EventId kNoEvent = 0;

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

  // Runs the next pending event, if any.  Returns false when none is left.
  bool Step();

  // Runs until the queue drains or `max_events` fire.
  void Run(uint64_t max_events = UINT64_MAX);

  // Runs events with time <= `until`, then moves the clock to `until`.  An
  // `until` in the past fires nothing and leaves the clock where it is.
  void RunUntil(Time until);

  uint64_t events_fired() const { return events_fired_; }

  // Number of scheduled events that have neither fired nor been cancelled.
  size_t pending_events() const { return live_events_; }

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

  // `uint64(at) << 64 | id`: compares as (at, id).
  using Key = unsigned __int128;
  static Key MakeKey(Time at, EventId id) {
    return static_cast<Key>(static_cast<uint64_t>(at)) << 64 | id;
  }
  static Time AtOf(Key k) { return static_cast<Time>(k >> 64); }
  static EventId IdOf(Key k) { return static_cast<EventId>(k); }

  struct Slot {
    EventId id = kNoEvent;  // the event this slot holds; kNoEvent when free
    Callback fn;
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
  // Rebuilds the heap without its dead keys once more than half are dead.
  void MaybeCompact();

  Time now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_fired_ = 0;
  size_t live_events_ = 0;
  std::vector<Key> heap_;  // 4-ary min-heap
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  trace::TraceBuffer* tracer_ = nullptr;
};

}  // namespace sa::sim

#endif  // SA_SIM_ENGINE_H_
