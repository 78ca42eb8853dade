// Application-managed buffer cache (Section 5.3).
//
// The paper modified the N-body application to manage part of its memory as
// an explicit buffer cache; a thread that misses blocks in the kernel for
// 50 ms (standing in for a disk read).  This is a plain LRU over page ids,
// deterministic, with hit/miss statistics.

#ifndef SA_APPS_BUFFER_CACHE_H_
#define SA_APPS_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "src/common/assert.h"

namespace sa::apps {

class BufferCache {
 public:
  // capacity == 0 means "infinite" (100% of memory available).
  explicit BufferCache(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return map_.size(); }

  // Touches a page; returns true on hit.  On miss the page is brought in
  // (evicting the least recently used page if at capacity).
  bool Touch(int64_t page) {
    auto it = map_.find(page);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return true;
    }
    ++misses_;
    if (capacity_ != 0 && map_.size() >= capacity_) {
      const int64_t victim = lru_.back();
      lru_.pop_back();
      map_.erase(victim);
    }
    lru_.push_front(page);
    map_[page] = lru_.begin();
    return false;
  }

  bool Contains(int64_t page) const { return map_.count(page) > 0; }

  // Loads a page without counting statistics (warm-up).
  void Prefill(int64_t page) {
    if (Contains(page)) {
      return;
    }
    if (capacity_ != 0 && map_.size() >= capacity_) {
      const int64_t victim = lru_.back();
      lru_.pop_back();
      map_.erase(victim);
    }
    lru_.push_front(page);
    map_[page] = lru_.begin();
  }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  size_t capacity_;
  std::list<int64_t> lru_;  // front = most recently used
  std::unordered_map<int64_t, std::list<int64_t>::iterator> map_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace sa::apps

#endif  // SA_APPS_BUFFER_CACHE_H_
