// A set of small non-negative ids: a bit per id, a count, and walks in id
// order.
//
// The processor allocator keeps its space indexes (holders, surplus,
// lendable) this way: space ids are dense from 0 (the index in
// Kernel::spaces()), so a bit per id replaces a tree node per member.
// Insert and Erase flip one bit and allocate only when an id lands past
// every word so far; a walk reads one 64-bit word per 64 ids and visits the
// members in increasing id order.

#ifndef SA_COMMON_ID_SET_H_
#define SA_COMMON_ID_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/assert.h"

namespace sa::common {

class IdSet {
 public:
  bool empty() const { return size_ == 0; }
  int size() const { return size_; }

  bool Contains(int id) const {
    const size_t w = WordOf(id);
    return w < words_.size() && (words_[w] & BitOf(id)) != 0;
  }

  // Adds `id`; false, and no change, if it is already a member.
  bool Insert(int id) {
    const size_t w = WordOf(id);
    if (w >= words_.size()) {
      words_.resize(w + 1, 0);
    }
    if ((words_[w] & BitOf(id)) != 0) {
      return false;
    }
    words_[w] |= BitOf(id);
    ++size_;
    return true;
  }

  // Removes `id`; false, and no change, if it is not a member.
  bool Erase(int id) {
    if (!Contains(id)) {
      return false;
    }
    words_[WordOf(id)] &= ~BitOf(id);
    --size_;
    return true;
  }

  // Calls fn(id) for each member in increasing id order.  `fn` must not
  // change the set.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<int>(w * 64 + static_cast<size_t>(std::countr_zero(bits))));
      }
    }
  }

  // Replaces `out`'s contents with the members in increasing id order.
  void CopyTo(std::vector<int>* out) const {
    out->clear();
    ForEach([out](int id) { out->push_back(id); });
  }

 private:
  static size_t WordOf(int id) {
    SA_DCHECK(id >= 0);
    return static_cast<size_t>(id) / 64;
  }
  static uint64_t BitOf(int id) { return uint64_t{1} << (static_cast<unsigned>(id) % 64); }

  std::vector<uint64_t> words_;
  int size_ = 0;
};

}  // namespace sa::common

#endif  // SA_COMMON_ID_SET_H_
