// Kernel threads (and the kernel half of scheduler activations).
//
// A KThread is the kernel execution context: a kernel stack, a control block,
// and (while running) a physical processor.  Scheduler activations share this
// structure — the paper notes an activation's data structures are "quite
// similar to those of a traditional kernel thread" — so an activation is a
// KThread with `activation()` state attached (see src/core/activation.h).
//
// What a KThread *does* with a processor is delegated to its KThreadHost:
// the Topaz-threads runtime resumes a workload coroutine, the FastThreads
// virtual-processor host runs the user-level dispatcher, the activation host
// delivers upcalls.  The kernel itself never interprets user-level state.

#ifndef SA_KERN_KTHREAD_H_
#define SA_KERN_KTHREAD_H_

#include <cstdint>
#include <string>

#include "src/common/intrusive_list.h"
#include "src/hw/processor.h"

namespace sa::core {
class Activation;
}  // namespace sa::core

namespace sa::kern {

class AddressSpace;
class KThread;

enum class KThreadState {
  kBorn,     // created, never started
  kReady,    // runnable, waiting for a processor
  kRunning,  // on a processor
  kBlocked,  // blocked in the kernel (I/O, page fault, kernel wait)
  kStopped,  // stopped by the kernel, ownership passed to user level (SA only)
  kDead,     // exited
};

const char* KThreadStateName(KThreadState s);

// User-side behaviour of a kernel context.  Implementations live in the
// runtime layers; the kernel calls these without knowing what they host.
// The kernel is the one writer of a stopped or waiting context's state: it
// files a preempted span and a failed I/O in the KThread, and a host reads
// them where the context resumes (Processor::Resume, take_io_failed).
class KThreadHost {
 public:
  virtual ~KThreadHost() = default;

  // `kt` has been given processor `kt->processor()`; begin or continue its
  // user-level execution, resuming a span the kernel filed in
  // `kt->saved_span()`.  Called after the kernel's dispatch cost has been
  // charged.
  virtual void RunOn(KThread* kt) = 0;

  // `kt`'s span was interrupted (preemption); the kernel completes the
  // preemption protocol after this returns.  A cut timed span is already
  // filed in `kt->saved_span()` (irq.span is empty), so a host keeps only
  // its own bookkeeping, such as for an open span (spin or idle loop).
  // Default: nothing.
  virtual void OnPreempted(KThread* kt, const hw::Interrupt& irq) {}

  // The address space this host serves has been quarantined by the reaper:
  // none of this host's threads will ever run again.  The kernel drops each
  // of their span continuations where the span ends, so a host adds no
  // teardown guard of its own; it only stops its own timers here.  Called
  // once per distinct host of a reaped space.  Default: nothing.
  virtual void OnSpaceReaped() {}
};

class KThread {
 public:
  KThread(int64_t id, AddressSpace* as, KThreadHost* host)
      : id_(id), as_(as), host_(host) {}
  KThread(const KThread&) = delete;
  KThread& operator=(const KThread&) = delete;

  // Makes an exited thread's record a new, unborn thread `id` of the same
  // space (Kernel::CreateThread reuses records so they follow live threads).
  void Reincarnate(int64_t id, KThreadHost* host);

  int64_t id() const { return id_; }
  AddressSpace* address_space() const { return as_; }
  KThreadHost* host() const { return host_; }

  KThreadState state() const { return state_; }
  void set_state(KThreadState s) { state_ = s; }

  hw::Processor* processor() const { return processor_; }
  void set_processor(hw::Processor* p) { processor_ = p; }

  // Opaque cookie for the host (e.g. the workload thread or the vcpu slot).
  void* host_data() const { return host_data_; }
  void set_host_data(void* data) { host_data_ = data; }

  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }

  // The span the last preemption cut, filed here by the kernel
  // (Kernel::OnInterrupt); continued by Processor::Resume where the context
  // resumes (kernel-thread semantics, a debugger's direct resume) or
  // shipped to user level in an upcall (activation semantics).
  hw::SavedSpan& saved_span() { return saved_span_; }

  // Set when the kernel completed this thread's blocking I/O with an error
  // (fault injection past the retry budget); consumed exactly once where
  // the thread resumes (or shipped in the unblocked upcall) so the hosting
  // runtime can surface it to IoRead().
  void set_io_failed(bool failed) { io_failed_ = failed; }
  bool take_io_failed() {
    const bool failed = io_failed_;
    io_failed_ = false;
    return failed;
  }

  // The device wait in flight (kernel only): set when a blocking I/O or a
  // page-in is issued, read where the block commits and at each completion
  // attempt.  It lives here, not in the continuations, so those capture
  // only pointers.
  struct DeviceWait {
    sim::Duration latency = 0;
    int attempt = 0;          // failed completions retried so far
    bool io = false;          // the block waits on a device (not SysBlockWait)
    bool injectable = false;  // the completion may fail (not paging)
  };
  DeviceWait& device_wait() { return device_wait_; }

  // Activation state; null for plain kernel threads.
  core::Activation* activation() const { return activation_; }
  void set_activation(core::Activation* a) { activation_ = a; }
  bool is_activation() const { return activation_ != nullptr; }

  // Scheduler linkage (ready queues, wait queues).
  common::ListNode queue_node;

 private:
  int64_t id_;
  AddressSpace* const as_;
  KThreadHost* host_;
  KThreadState state_ = KThreadState::kBorn;
  int priority_ = 0;
  hw::Processor* processor_ = nullptr;
  void* host_data_ = nullptr;
  hw::SavedSpan saved_span_;
  core::Activation* activation_ = nullptr;
  DeviceWait device_wait_;
  bool io_failed_ = false;
};

}  // namespace sa::kern

#endif  // SA_KERN_KTHREAD_H_
