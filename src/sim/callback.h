// Move-only callables for the simulator's continuations (DESIGN.md §3).
//
// Every event, span completion and kernel-call continuation is a callable
// that runs once.  `std::function` stores a capture inline only when it is
// trivially copyable and at most 16 bytes, so the common three-pointer
// capture (`[this, t, lock]`) cost a heap allocation per event.
// InlineFunction keeps the same 32-byte footprint (one ops pointer plus 24
// inline bytes) and stores any nothrow-movable capture of at most 24 bytes
// in place.  A larger capture still works but goes to the heap, which the
// allocation-budget test notices on the event path; a continuation that
// needs more keeps its state in the object it belongs to and captures a
// pointer.  Never capture another callback: it alone is 32 bytes.
//
// Move-only: a continuation has exactly one owner (a slot, a span, a saved
// span), so copies are never needed.  A copyable callable, a std::function
// among them, is accepted and moved or copied in.

#ifndef SA_SIM_CALLBACK_H_
#define SA_SIM_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/assert.h"

namespace sa::sim {

template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  // Captures up to this size (and pointer alignment) are stored inline.
  static constexpr size_t kInlineBytes = 24;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // implicit, like std::function
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof(heap));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { TakeFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) noexcept {
    return f.ops_ == nullptr;
  }

  R operator()(Args... args) {
    SA_DCHECK(ops_ != nullptr);
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Moves the callable from `src` storage into raw `dst` storage and ends
    // the source's lifetime; null when a byte copy does that (trivially
    // copyable captures, and the heap case's pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    // Destroys the stored callable; null when there is nothing to do.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(void*) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D* Inline(void* storage) {
    return std::launder(static_cast<D*>(storage));
  }
  template <typename D>
  static D* Heap(void* storage) {
    D* p;
    std::memcpy(&p, storage, sizeof(p));
    return p;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... args) -> R {
        return (*Inline<D>(s))(std::forward<Args>(args)...);
      },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) D(std::move(*Inline<D>(src)));
              Inline<D>(src)->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* s) noexcept { Inline<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... args) -> R {
        return (*Heap<D>(s))(std::forward<Args>(args)...);
      },
      nullptr,
      [](void* s) noexcept { delete Heap<D>(s); },
  };

  void TakeFrom(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  void Reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) {
      ops_->destroy(buf_);
    }
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  // Zeroed so a move of an empty callable copies no indeterminate bytes.
  alignas(void*) unsigned char buf_[kInlineBytes] = {};
};

// The continuation of an event, a span or a kernel call.
using Callback = InlineFunction<void()>;

static_assert(sizeof(Callback) == 32, "a Callback is one ops pointer plus 24 inline bytes");

}  // namespace sa::sim

#endif  // SA_SIM_CALLBACK_H_
