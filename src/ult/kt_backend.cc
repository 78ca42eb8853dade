#include "src/ult/kt_backend.h"

#include "src/ult/fast_threads.h"

namespace sa::ult {

KtBackend::KtBackend(kern::Kernel* kernel, kern::AddressSpace* as)
    : kernel_(kernel), as_(as) {}

void KtBackend::Attach(FastThreads* ft) { ft_ = ft; }

void KtBackend::Start() {
  // One kernel thread per virtual processor, permanently bound.
  for (int i = 0; i < ft_->num_vcpus(); ++i) {
    Vcpu* v = ft_->vcpu(i);
    kern::KThread* kt = kernel_->CreateThread(as_, this, v);
    v->kt = kt;
    v->bound = true;
    kernel_->StartThread(kt);
  }
}

void KtBackend::RunOn(kern::KThread* kt) {
  Vcpu* v = VcpuOf(kt);
  v->idle_spinning = false;  // being (re)dispatched always re-enters the loop
  ft_->RunVcpu(v);
}

void KtBackend::OnSpaceReaped() {
  // The vcpus' kernel threads were already marked dead by the reaper, so the
  // kernel never dispatches them again, and drops any span of theirs still
  // running where it ends.
  ft_->Halt();
}

void KtBackend::OnPreempted(kern::KThread* kt, const hw::Interrupt& irq) {
  // A cut timed span stays filed in this kernel thread's context and
  // continues at its next dispatch (RunVcpu).  An open span leaves nothing
  // to continue.
  if (!irq.open) {
    return;
  }
  Vcpu* v = VcpuOf(kt);
  Tcb* t = v->current;
  if (t != nullptr && t->state == Tcb::State::kSpinning) {
    // The spinner's processor is gone; it no longer burns cycles, and the
    // lock holder's release must not pick it until it runs again.
    t->actively_spinning = false;
  } else {
    // Idle loop: nothing to save.
    v->idle_spinning = false;
  }
}

void KtBackend::OnIdle(Vcpu* v) {
  // Original FastThreads idles in the user-level scheduler: the kernel
  // thread keeps its processor and looks busy to the kernel.
  v->proc()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
}

}  // namespace sa::ult
