#include "src/kern/kthread.h"


#include "src/kern/address_space.h"

namespace sa::kern {

const char* KThreadStateName(KThreadState s) {
  switch (s) {
    case KThreadState::kBorn:
      return "born";
    case KThreadState::kReady:
      return "ready";
    case KThreadState::kRunning:
      return "running";
    case KThreadState::kBlocked:
      return "blocked";
    case KThreadState::kStopped:
      return "stopped";
    case KThreadState::kDead:
      return "dead";
  }
  return "?";
}

void KThread::Reincarnate(int64_t id, KThreadHost* host) {
  SA_CHECK(state_ == KThreadState::kDead && !queue_node.linked());
  SA_CHECK(!saved_span_.valid() && activation_ == nullptr);
  id_ = id;
  host_ = host;
  state_ = KThreadState::kBorn;
  processor_ = nullptr;
  host_data_ = nullptr;
  device_wait_ = {};
  io_failed_ = false;
}

}  // namespace sa::kern
