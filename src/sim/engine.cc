#include "src/sim/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sa::sim {
namespace {

// Heaps smaller than this are never compacted: the dead entries cost less
// than the rebuild.
constexpr size_t kCompactMinSize = 64;

}  // namespace

std::string FormatDuration(Duration d) {
  char buf[64];
  const char* sign = d < 0 ? "-" : "";
  const int64_t v = d < 0 ? -d : d;
  if (v >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%s%.3fs", sign, static_cast<double>(v) / kSecond);
  } else if (v >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%s%.3fms", sign, static_cast<double>(v) / kMillisecond);
  } else if (v >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%s%.2fus", sign, static_cast<double>(v) / kMicrosecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%ldns", sign, static_cast<long>(v));
  }
  return buf;
}

EventId Engine::Schedule(Time at, Callback fn) {
  SA_CHECK_MSG(at >= now_, "event scheduled in the past");
  SA_CHECK_MSG(next_seq_ < (uint64_t{1} << (64 - kSlotBits)), "event sequence overflow");
  uint32_t slot;
  if (free_slots_.empty()) {
    SA_CHECK_MSG(slots_.size() <= kSlotMask, "too many pending events");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = next_seq_++ << kSlotBits | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Key{at, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_events_;
  return id;
}

Callback Engine::Release(EventId id) {
  const auto slot = static_cast<uint32_t>(id & kSlotMask);
  slots_[slot].id = kNoEvent;
  free_slots_.push_back(slot);
  --live_events_;
  return std::move(slots_[slot].fn);
}

bool Engine::Cancel(EventId id) {
  if (!pending(id)) {
    return false;
  }
  Release(id);  // the callback is destroyed unrun
  MaybeCompact();
  return true;
}

void Engine::MaybeCompact() {
  const size_t dead = heap_.size() - live_events_;
  if (heap_.size() < kCompactMinSize || dead * 2 <= heap_.size()) {
    return;
  }
  std::erase_if(heap_, [this](const Key& k) { return !live(k); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  SA_DCHECK(heap_.size() == live_events_);
}

bool Engine::DropDeadTop() {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return !heap_.empty();
}

void Engine::FireTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key top = heap_.back();
  heap_.pop_back();
  SA_CHECK(top.at >= now_);
  now_ = top.at;
  ++events_fired_;
  Callback fn = Release(top.id);
  fn();
}

bool Engine::Step() {
  if (!DropDeadTop()) {
    return false;
  }
  FireTop();
  return true;
}

void Engine::Run(uint64_t max_events) {
  for (uint64_t i = 0; i < max_events; ++i) {
    if (!Step()) {
      return;
    }
  }
}

void Engine::RunUntil(Time until) {
  while (DropDeadTop() && heap_.front().at <= until) {
    FireTop();
  }
  now_ = std::max(now_, until);
}

}  // namespace sa::sim
