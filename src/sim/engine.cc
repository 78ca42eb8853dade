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
  const Key key = MakeKey(at, id);
  heap_.push_back(key);
  SiftUp(heap_.size() - 1, key);
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
  std::erase_if(heap_, [this](Key k) { return !live(k); });
  // Heapify: sift every key down, last first (a leaf stays where it is).
  for (size_t i = heap_.size(); i-- > 0;) {
    SiftDown(i, heap_[i]);
  }
  SA_DCHECK(heap_.size() == live_events_);
}

void Engine::SiftUp(size_t i, Key k) {
  Key* const h = heap_.data();
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!(k < h[parent])) {
      break;
    }
    h[i] = h[parent];
    i = parent;
  }
  h[i] = k;
}

void Engine::SiftDown(size_t i, Key k) {
  Key* const h = heap_.data();
  const size_t n = heap_.size();
  // A full family's least child is picked without a branch: the compares
  // go either way at random, and a mispredicted one costs more than all
  // three.
  static_assert(kArity == 4);
  for (size_t first; (first = kArity * i + 1) + kArity <= n;) {
    const size_t a = first + static_cast<size_t>(h[first + 1] < h[first]);
    const size_t b = first + 2 + static_cast<size_t>(h[first + 3] < h[first + 2]);
    const size_t least = a ^ ((a ^ b) & (size_t{0} - static_cast<size_t>(h[b] < h[a])));
    if (!(h[least] < k)) {
      h[i] = k;
      return;
    }
    h[i] = h[least];
    i = least;
  }
  // The last family may be partial; its members are leaves.
  const size_t first = kArity * i + 1;
  if (first < n) {
    size_t least = first;
    for (size_t c = first + 1; c < n; ++c) {
      least = h[c] < h[least] ? c : least;
    }
    if (h[least] < k) {
      h[i] = h[least];
      i = least;
    }
  }
  h[i] = k;
}

Engine::Key Engine::PopMin() {
  const Key min = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
  return min;
}

bool Engine::DropDeadTop() {
  while (!heap_.empty() && !live(heap_.front())) {
    PopMin();
  }
  return !heap_.empty();
}

void Engine::FireTop() {
  const Key top = PopMin();
  SA_CHECK(AtOf(top) >= now_);
  now_ = AtOf(top);
  ++events_fired_;
  Callback fn = Release(IdOf(top));
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
  while (DropDeadTop() && AtOf(heap_.front()) <= until) {
    FireTop();
  }
  now_ = std::max(now_, until);
}

}  // namespace sa::sim
