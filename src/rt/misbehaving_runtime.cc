#include "src/rt/misbehaving_runtime.h"

#include <utility>

#include "src/common/assert.h"

namespace sa::rt {

MisbehavingRuntime::MisbehavingRuntime(kern::Kernel* kernel, std::string name,
                                       int claimed_demand, int priority)
    : Runtime(kernel, std::move(name), kern::AsMode::kSchedulerActivations, priority),
      claimed_demand_(claimed_demand),
      burn_slice_(sim::Msec(1)) {
  SA_CHECK(claimed_demand_ > 0);
  space_ = std::make_unique<core::SaSpace>(kernel_, address_space(),
                                           static_cast<kern::KThreadHost*>(this));
}

MisbehavingRuntime::~MisbehavingRuntime() = default;

int MisbehavingRuntime::CreateLock(LockKind) {
  SA_CHECK_MSG(false, "misbehaving runtime hosts no workloads");
  return -1;
}

int MisbehavingRuntime::CreateCond() {
  SA_CHECK_MSG(false, "misbehaving runtime hosts no workloads");
  return -1;
}

int MisbehavingRuntime::CreateKernelEvent() {
  SA_CHECK_MSG(false, "misbehaving runtime hosts no workloads");
  return -1;
}

int MisbehavingRuntime::Spawn(WorkloadFn, std::string) {
  SA_CHECK_MSG(false, "misbehaving runtime hosts no workloads");
  return -1;
}

void MisbehavingRuntime::Start() {
  // The first lie: claim full demand before doing any work at all.
  ++lies_told_;
  space_->BootDemand(claimed_demand_);
}

void MisbehavingRuntime::RunOn(kern::KThread* kt) {
  SA_CHECK(kt->is_activation());
  core::Activation* act = kt->activation();
  if (!act->inbox().empty()) {
    // A well-behaved client processes these events and eventually returns
    // the discarded activations.  This one throws them away: preempted
    // thread state is lost and the kernel's recycle cache never refills.
    upcall_events_ignored_ += static_cast<int64_t>(act->inbox().size());
    act->inbox().clear();
  }
  // Re-state the lie whenever the kernel gave us less than we claim: every
  // upcall on a short-changed machine renews the add-more hint, keeping the
  // allocator under constant (dishonest) demand pressure.
  const int additional = claimed_demand_ - space_->num_assigned();
  if (additional > 0) {
    ++lies_told_;
    space_->DowncallAddProcessors(kt, additional, [this, kt] { Burn(kt); });
    return;
  }
  Burn(kt);
}

void MisbehavingRuntime::Burn(kern::KThread* kt) {
  // Endless user-mode compute: the processor always looks busy and is never
  // offered back (no "processor is idle" downcall, ever).  Preemptible, so
  // the kernel can still revoke it — that is the point of the experiment.
  kt->processor()->BeginSpan(burn_slice_, hw::SpanMode::kUser,
                             /*preemptible=*/true, /*critical_section=*/false,
                             [this, kt] { Burn(kt); });
}

void MisbehavingRuntime::OnPreempted(kern::KThread*, const hw::Interrupt&) {
  // The kernel filed the interrupted burn loop in the stopped activation,
  // and it travels up in the preempted event, which RunOn throws away; the
  // next activation (if any) starts a fresh loop.
  ++preemptions_dropped_;
}

}  // namespace sa::rt
