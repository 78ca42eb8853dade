// Original FastThreads: virtual processors are kernel threads scheduled
// obliviously by the kernel (Section 2.2).  This backend intentionally keeps
// the paper's pathologies:
//
//  * when a user-level thread blocks in the kernel, the kernel thread serving
//    as its virtual processor blocks too — the physical processor is lost to
//    the address space for the duration of the I/O;
//  * idle virtual processors spin in the user-level scheduler and look
//    runnable to the kernel, so the kernel may time-slice a vcpu that has
//    work in favour of one that is idling;
//  * the kernel may preempt a vcpu whose current thread holds a spinlock;
//    other vcpus then spin until the holder is rescheduled.

#ifndef SA_ULT_KT_BACKEND_H_
#define SA_ULT_KT_BACKEND_H_

#include "src/kern/kernel.h"
#include "src/ult/backend.h"

namespace sa::ult {

class KtBackend : public VcpuBackend, public kern::KThreadHost {
 public:
  KtBackend(kern::Kernel* kernel, kern::AddressSpace* as);

  // VcpuBackend:
  void Attach(FastThreads* ft) override;
  void Start() override;
  void OnIdle(Vcpu* v) override;

  // kern::KThreadHost:
  // Runs the vcpu the kernel dispatched.  Only a live space gets here: the
  // kernel drops a dead space's dispatch where its span ends.
  void RunOn(kern::KThread* kt) override;
  void OnPreempted(kern::KThread* kt, const hw::Interrupt& irq) override;
  void OnSpaceReaped() override;

 private:
  Vcpu* VcpuOf(kern::KThread* kt) { return static_cast<Vcpu*>(kt->host_data()); }

  kern::Kernel* kernel_;
  kern::AddressSpace* as_;
  FastThreads* ft_ = nullptr;
};

}  // namespace sa::ult

#endif  // SA_ULT_KT_BACKEND_H_
