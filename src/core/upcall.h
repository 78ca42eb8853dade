// The upcall interface between the kernel and a user-level thread system
// (Table 2 of the paper).
//
// A scheduler activation is the execution context in which the kernel vectors
// an event to an address space.  Each upcall carries a *batch* of events —
// the paper notes events occur in combinations and a single upcall passes all
// of them (e.g. "unblocked" plus the "preempted" of the thread whose
// processor was used to deliver the notification).

#ifndef SA_CORE_UPCALL_H_
#define SA_CORE_UPCALL_H_

#include <cstdint>

#include "src/hw/processor.h"

namespace sa::core {

// The machine state of the user-level thread that was running in a stopped
// activation's context.  The kernel treats both fields as opaque: `cookie`
// identifies the user-level thread (the user level stored it when it started
// running the thread in this activation — the analogue of "which thread is
// loaded into this context"), and `saved` is the interrupted execution state
// (the analogue of the register file the kernel captured at preemption).
struct UserThreadState {
  void* cookie = nullptr;
  hw::SavedSpan saved;
  // The kernel operation this thread blocked on completed with an error
  // (fault injection past the I/O retry budget).  Travels up with the
  // kUnblocked event so the thread system can surface it to the thread.
  bool io_failed = false;
};

struct UpcallEvent {
  // Table 2 upcall points.
  enum class Kind {
    kAddProcessor,  // "Add this processor": execute a runnable user thread.
    kPreempted,     // "Processor has been preempted": ready the victim thread.
    kBlocked,       // "Scheduler activation has blocked": its processor is free.
    kUnblocked,     // "Scheduler activation has unblocked": ready its thread.
  };
  Kind kind;
  int64_t activation_id = -1;  // subject activation (all kinds but kAddProcessor)
  int processor_id = -1;       // kAddProcessor / kPreempted: which processor
  UserThreadState state;       // kPreempted / kUnblocked carry machine state
  int64_t queued_at = -1;      // virtual time the kernel queued the event
                               // (stamped by SaSpace::QueueEvent; feeds the
                               // upcall-latency histogram in rt::RunReport)
};

const char* UpcallEventKindName(UpcallEvent::Kind kind);

}  // namespace sa::core

#endif  // SA_CORE_UPCALL_H_
