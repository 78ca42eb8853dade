// Scheduler activation state.
//
// An activation is structurally a kernel thread (kernel stack + control
// block) whose user-level execution is never resumed directly by the kernel
// once stopped: a fresh activation carries the notification instead.  This
// type holds the activation-specific state attached to a kern::KThread.

#ifndef SA_CORE_ACTIVATION_H_
#define SA_CORE_ACTIVATION_H_

#include <cstdint>
#include <vector>

#include "src/core/upcall.h"
#include "src/sim/callback.h"

namespace sa::kern {
class KThread;
}  // namespace sa::kern

namespace sa::core {

class Activation {
 public:
  Activation(int64_t id, kern::KThread* kt) : id_(id), kt_(kt) {}
  Activation(const Activation&) = delete;
  Activation& operator=(const Activation&) = delete;

  int64_t id() const { return id_; }
  kern::KThread* kthread() const { return kt_; }

  // Which user-level thread is loaded into this context (opaque cookie set
  // by the user-level thread system; shipped back in kPreempted/kUnblocked).
  void* user_cookie() const { return user_cookie_; }
  void set_user_cookie(void* cookie) { user_cookie_ = cookie; }

  // Events to vector when this (fresh) activation first reaches user level.
  // The thread system takes the batch and hands the emptied buffer back to
  // the space (SaSpace::ReturnBatch), so a cached activation holds none.
  std::vector<UpcallEvent>& inbox() { return inbox_; }

  // The caller's continuation of the downcall this activation is making,
  // held while the kernel charges the call (SaSpace's downcalls).
  sim::Callback& downcall_done() { return downcall_done_; }

  // Set when the user level returned this activation for reuse.
  bool discarded() const { return discarded_; }
  void set_discarded(bool d) { discarded_ = d; }

  // Section 4.4: activations under debugger control run on a "logical
  // processor" — debugger stops do not generate upcalls.  The processor a
  // debugger stop left bare, held until the direct resume; null otherwise.
  hw::Processor* debug_processor() const { return debug_processor_; }
  void set_debug_processor(hw::Processor* proc) { debug_processor_ = proc; }

  // Reset for recycling (Section 4.3).
  void Recycle() {
    user_cookie_ = nullptr;
    inbox_.clear();
    downcall_done_ = nullptr;
    discarded_ = false;
    debug_processor_ = nullptr;
  }

 private:
  const int64_t id_;
  kern::KThread* const kt_;
  void* user_cookie_ = nullptr;
  std::vector<UpcallEvent> inbox_;
  sim::Callback downcall_done_;
  hw::Processor* debug_processor_ = nullptr;
  bool discarded_ = false;
};

}  // namespace sa::core

#endif  // SA_CORE_ACTIVATION_H_
