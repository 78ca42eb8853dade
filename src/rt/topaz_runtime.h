// Workloads on kernel threads used directly (the paper's "Topaz threads"
// baseline) — and, with heavyweight=true, on Ultrix-style processes.
//
// Every thread operation involves the kernel: fork and exit are syscalls,
// contended locks block in the kernel, signal/wait are kernel wakeup/block
// pairs.  Uncontended application locks are acquired with a user-level
// test-and-set, as Topaz did (Section 5.3).  The runtime keeps no teardown
// state: once its space is reaped, the kernel drops each of its span
// continuations where the span ends, so none of its code runs for a dead
// thread.

#ifndef SA_RT_TOPAZ_RUNTIME_H_
#define SA_RT_TOPAZ_RUNTIME_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/kern/kernel.h"
#include "src/rt/runtime.h"

namespace sa::rt {

class TopazRuntime : public Runtime, private kern::KThreadHost {
 public:
  // Creates an address space named `name` in `kernel`.  heavyweight selects
  // Ultrix-process costs.  priority > 0 models daemon/system spaces.
  TopazRuntime(kern::Kernel* kernel, std::string name, bool heavyweight = false,
               int priority = 0);
  ~TopazRuntime() override;

  int CreateLock(LockKind kind) override;
  int CreateCond() override;
  int CreateKernelEvent() override;
  int Spawn(WorkloadFn fn, std::string thread_name) override;
  void Start() override;

 private:
  struct TzLock {
    LockKind kind;
    WorkThread* owner = nullptr;
    std::deque<WorkThread*> waiters;
  };

  // kern::KThreadHost:
  void RunOn(kern::KThread* kt) override;

  kern::KThread* KtOf(WorkThread* w) { return static_cast<kern::KThread*>(w->impl); }
  WorkThread* WorkOf(kern::KThread* kt) { return static_cast<WorkThread*>(kt->host_data()); }

  void StepAndInterpret(WorkThread* w);
  void Interpret(WorkThread* w);
  void DoAcquire(WorkThread* w, TzLock* lock);
  void DoRelease(WorkThread* w, TzLock* lock);
  void WakeJoinersThenExit(WorkThread* w, size_t index);

  std::vector<std::unique_ptr<TzLock>> locks_;
  // Conditions and kernel events alike: a condition is a counting kernel
  // event, since every thread operation goes through the kernel.
  std::vector<std::unique_ptr<kern::KernelEvent>> events_;
  std::vector<WorkThread*> initial_;
  bool started_ = false;
};

}  // namespace sa::rt

#endif  // SA_RT_TOPAZ_RUNTIME_H_
