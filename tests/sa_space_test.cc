// Kernel-side scheduler-activation protocol (core::SaSpace), tested in
// isolation with a scripted mock host instead of the FastThreads package.
// This pins down the Table-2 semantics independent of any thread system.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/core/sa_space.h"
#include "src/hw/machine.h"
#include "src/kern/kernel.h"
#include "src/kern/proc_alloc.h"

namespace sa::core {
namespace {

struct SeenEvent {
  UpcallEvent::Kind kind;
  int64_t act;
  int proc;          // processor the event names (kAddProcessor/kPreempted)
  int delivered_on;  // processor the upcall ran on
  void* cookie;
};

class MockHost : public kern::KThreadHost {
 public:
  std::vector<SeenEvent> events;
  int upcalls = 0;
  // Scripted behaviour per upcall (by index); default: idle-spin.
  std::vector<std::function<void(kern::KThread*)>> script;

  void RunOn(kern::KThread* kt) override {
    Activation* act = kt->activation();
    if (!act->inbox().empty()) {
      for (UpcallEvent& ev : act->inbox()) {
        events.push_back({ev.kind, ev.activation_id, ev.processor_id,
                          kt->processor()->id(), ev.state.cookie});
      }
      act->inbox().clear();
      const int index = upcalls++;
      if (index < static_cast<int>(script.size()) && script[static_cast<size_t>(index)]) {
        script[static_cast<size_t>(index)](kt);
        return;
      }
    }
    kt->processor()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
  }
};

class SaSpaceTest : public ::testing::Test {
 protected:
  SaSpaceTest() : machine_(2, 1) {
    kern::Config config;
    config.mode = kern::KernelMode::kSchedulerActivations;
    kernel_ = std::make_unique<kern::Kernel>(&machine_, config);
    as_ = kernel_->CreateAddressSpace("mock", kern::AsMode::kSchedulerActivations, 0);
    space_ = std::make_unique<SaSpace>(kernel_.get(), as_, &host_);
  }

  hw::Machine machine_;
  std::unique_ptr<kern::Kernel> kernel_;
  kern::AddressSpace* as_;
  MockHost host_;
  std::unique_ptr<SaSpace> space_;
};

TEST_F(SaSpaceTest, BootGrantDeliversAddProcessorOnTheGrantedProcessor) {
  space_->BootDemand(1);
  machine_.engine().Run();
  ASSERT_EQ(host_.events.size(), 1u);
  EXPECT_EQ(host_.events[0].kind, UpcallEvent::Kind::kAddProcessor);
  EXPECT_EQ(host_.events[0].proc, host_.events[0].delivered_on);
  EXPECT_EQ(space_->num_assigned(), 1);
  EXPECT_EQ(space_->num_running_activations(), 1);
}

TEST_F(SaSpaceTest, BlockedActivationYieldsFreshVesselOnSameProcessor) {
  void* const cookie = reinterpret_cast<void*>(0x1234);
  host_.script.resize(2);
  host_.script[0] = [&](kern::KThread* kt) {
    // The vessel "runs a user thread" that blocks in the kernel.
    kt->activation()->set_user_cookie(cookie);
    kernel_->SysBlockIo(kt, sim::Msec(5));
  };
  space_->BootDemand(1);
  machine_.engine().Run();

  // add-processor, blocked, then (unblocked + preempted) combined.
  ASSERT_GE(host_.events.size(), 4u);
  EXPECT_EQ(host_.events[0].kind, UpcallEvent::Kind::kAddProcessor);
  EXPECT_EQ(host_.events[1].kind, UpcallEvent::Kind::kBlocked);
  EXPECT_EQ(host_.events[1].delivered_on, host_.events[0].delivered_on);
  EXPECT_EQ(host_.events[2].kind, UpcallEvent::Kind::kUnblocked);
  EXPECT_EQ(host_.events[2].cookie, cookie);  // the thread's state came back
  EXPECT_EQ(host_.events[3].kind, UpcallEvent::Kind::kPreempted);
  // Three upcalls total: the last one carried two events.
  EXPECT_EQ(host_.upcalls, 3);
  EXPECT_EQ(kernel_->counters().upcall_events, 4);
}

TEST_F(SaSpaceTest, VesselInvariantAcrossBlockUnblock) {
  host_.script.resize(1);
  host_.script[0] = [&](kern::KThread* kt) { kernel_->SysBlockIo(kt, sim::Msec(5)); };
  space_->BootDemand(1);
  machine_.engine().RunUntil(sim::Msec(1));
  // While the first activation is blocked, a fresh one runs: invariant holds.
  EXPECT_EQ(space_->num_running_activations(), space_->num_assigned());
  machine_.engine().Run();
  EXPECT_EQ(space_->num_running_activations(), space_->num_assigned());
}

TEST_F(SaSpaceTest, SecondGrantDeliversOnSecondProcessor) {
  space_->BootDemand(2);
  machine_.engine().Run();
  ASSERT_EQ(host_.events.size(), 2u);
  EXPECT_EQ(host_.events[0].kind, UpcallEvent::Kind::kAddProcessor);
  EXPECT_EQ(host_.events[1].kind, UpcallEvent::Kind::kAddProcessor);
  EXPECT_NE(host_.events[0].delivered_on, host_.events[1].delivered_on);
  EXPECT_EQ(space_->num_assigned(), 2);
}

TEST_F(SaSpaceTest, DiscardedActivationsAreRecycled) {
  // Run a block/unblock cycle, then return the discards.
  host_.script.resize(3);
  host_.script[0] = [&](kern::KThread* kt) { kernel_->SysBlockIo(kt, sim::Msec(2)); };
  host_.script[2] = [&](kern::KThread* kt) {
    // After the combined (unblocked+preempted) upcall: discard both stopped
    // activations (ids 1 and 2).
    space_->DowncallReturnDiscards(kt, {1, 2}, [kt] {
      kt->processor()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
    });
  };
  space_->BootDemand(1);
  machine_.engine().Run();
  EXPECT_EQ(space_->num_cached_activations(), 2);
  EXPECT_EQ(kernel_->counters().downcalls_discard, 1);
}

TEST_F(SaSpaceTest, LastProcessorRevocationIsDelayedUntilRegrant) {
  // Our space declares its only processor idle; a rival SA space with real
  // demand takes it; the preemption notification is delayed (we have no
  // processor to deliver it on) and arrives with the next grant.
  space_->BootDemand(1);
  machine_.engine().Run();
  EXPECT_EQ(space_->num_assigned(), 1);
  kern::KThread* vessel = kernel_->running_on(as_->assigned()[0]);
  vessel->processor()->EndOpenSpan();  // leave the idle loop to make the call
  space_->DowncallProcessorIdle(vessel, [vessel] {
    vessel->processor()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
  });
  machine_.engine().Run();

  MockHost rival_host;
  kern::AddressSpace* rival_as =
      kernel_->CreateAddressSpace("rival", kern::AsMode::kSchedulerActivations, 0);
  SaSpace rival(kernel_.get(), rival_as, &rival_host);
  rival.BootDemand(2);
  machine_.engine().Run();
  // The rival holds both processors; our notification is pending, delayed.
  EXPECT_EQ(rival.num_assigned(), 2);
  EXPECT_EQ(space_->num_assigned(), 0);
  EXPECT_GE(kernel_->counters().delayed_notifications, 1);
  EXPECT_GE(space_->num_pending_events(), 1u);

  // When the rival's demand drops, the allocator re-grants us a processor
  // and the delayed preemption arrives combined with add-processor.
  const size_t seen_before = host_.events.size();
  space_->BootDemand(1);
  kern::KThread* rival_vessel = kernel_->running_on(rival_as->assigned()[0]);
  rival_vessel->processor()->EndOpenSpan();
  rival.DowncallProcessorIdle(rival_vessel, [rival_vessel] {
    rival_vessel->processor()->BeginOpenSpan(hw::SpanMode::kIdleSpin);
  });
  machine_.engine().Run();
  ASSERT_GT(host_.events.size(), seen_before);
  bool saw_preempted = false, saw_add = false;
  for (size_t i = seen_before; i < host_.events.size(); ++i) {
    saw_preempted |= host_.events[i].kind == UpcallEvent::Kind::kPreempted;
    saw_add |= host_.events[i].kind == UpcallEvent::Kind::kAddProcessor;
  }
  EXPECT_TRUE(saw_preempted);
  EXPECT_TRUE(saw_add);
}

TEST_F(SaSpaceTest, DemandIsCappedByAllocatorShare) {
  space_->BootDemand(2);
  machine_.engine().Run();
  EXPECT_EQ(space_->num_assigned(), 2);
  // A rival SA space with persistent demand takes its fair share.
  MockHost rival_host;
  kern::AddressSpace* rival_as =
      kernel_->CreateAddressSpace("rival", kern::AsMode::kSchedulerActivations, 0);
  SaSpace rival(kernel_.get(), rival_as, &rival_host);
  rival.BootDemand(2);
  machine_.engine().Run();
  EXPECT_EQ(space_->num_assigned(), 1);
  EXPECT_EQ(rival.num_assigned(), 1);
  // The preemption was reported to user level.
  bool saw_preempted = false;
  for (const SeenEvent& ev : host_.events) {
    saw_preempted |= ev.kind == UpcallEvent::Kind::kPreempted;
  }
  EXPECT_TRUE(saw_preempted);
}

}  // namespace
}  // namespace sa::core
