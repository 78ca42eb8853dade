#include "src/sim/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sa::sim {

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

void Engine::Schedule(Time at, Callback fn) {
  SA_CHECK_MSG(at >= now_, "event scheduled in the past");
  uint32_t slot;
  if (free_slots_.empty()) {
    SA_CHECK_MSG(slots_.size() <= kSlotMask, "too many pending events");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  const Key key = NewKey(at, slot);
  heap_.push_back(key);
  SiftUp(heap_.size() - 1, key);
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

void Engine::FireTop() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
  SA_CHECK(AtOf(top) >= now_);
  now_ = AtOf(top);
  ++events_fired_;
  const uint32_t slot = IndexOf(top);
  free_slots_.push_back(slot);
  Callback fn = std::move(slots_[slot]);
  fn();
}

TimerId Engine::AddTimer(Callback fn) {
  SA_CHECK_MSG(firing_ == kNoTimer, "timer added inside a timer's handler");
  SA_CHECK_MSG(timers_.size() <= kSlotMask, "too many timers");
  const auto t = static_cast<TimerId>(timers_.size());
  timers_.push_back(Timer{std::move(fn)});
  if (timers_.size() > leaves_) {
    // Double the leaves and rebuild the inner nodes, last first.
    std::vector<Key> tree(4 * leaves_, kNever);
    std::copy(tree_.begin() + static_cast<ptrdiff_t>(leaves_), tree_.end(),
              tree.begin() + static_cast<ptrdiff_t>(2 * leaves_));
    leaves_ *= 2;
    for (size_t i = leaves_; i-- > 1;) {
      tree[i] = std::min(tree[2 * i], tree[2 * i + 1]);
    }
    tree_ = std::move(tree);
  }
  return t;
}

void Engine::SetLeaf(TimerId t, Key k) {
  Key* const tree = tree_.data();
  size_t i = leaves_ + t;
  tree[i] = k;
  for (; i > 1; i >>= 1) {
    const Key sibling = tree[i ^ 1];
    k = sibling < k ? sibling : k;
    tree[i >> 1] = k;
  }
}

void Engine::ArmTimer(TimerId t, Time at) {
  SA_CHECK_MSG(at >= now_, "timer armed in the past");
  SA_DCHECK(t < timers_.size());
  Timer& timer = timers_[t];
  if (!timer.armed) {
    timer.armed = true;
    ++armed_timers_;
  }
  if (t == firing_) {
    firing_leaf_stale_ = false;
  }
  SetLeaf(t, NewKey(at, t));
}

bool Engine::DisarmTimer(TimerId t) {
  if (!timer_armed(t)) {
    return false;
  }
  timers_[t].armed = false;
  --armed_timers_;
  SetLeaf(t, kNever);
  return true;
}

void Engine::FireTimer(Key k) {
  const TimerId t = IndexOf(k);
  SA_DCHECK(AtOf(k) >= now_);
  now_ = AtOf(k);
  ++events_fired_;
  Timer& timer = timers_[t];  // stays put: no timer is added meanwhile
  timer.armed = false;
  --armed_timers_;
  // The leaf keeps the fired key while the handler runs: a handler that
  // arms the timer again replays its path once, not twice.
  firing_ = t;
  firing_leaf_stale_ = true;
  timer.fn();
  firing_ = kNoTimer;
  if (firing_leaf_stale_) {
    SetLeaf(t, kNever);
  }
}

void Engine::Fire(Key next) {
  if (next == tree_[1]) {
    FireTimer(next);
  } else {
    FireTop();
  }
}

bool Engine::Step() {
  SA_CHECK_MSG(firing_ == kNoTimer, "Step inside a timer's handler");
  const Key next = NextDue();
  if (next == kNever) {
    return false;
  }
  Fire(next);
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
  SA_CHECK_MSG(firing_ == kNoTimer, "RunUntil inside a timer's handler");
  for (Key next; (next = NextDue()) != kNever && AtOf(next) <= until;) {
    Fire(next);
  }
  now_ = std::max(now_, until);
}

}  // namespace sa::sim
