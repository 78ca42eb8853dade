#include "src/trace/trace.h"

#include <chrono>
#include <cstdlib>

#include "src/common/assert.h"

namespace sa::trace {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kSpanBegin: return "span-begin";
    case Kind::kSpanEnd: return "span-end";
    case Kind::kSpanPreempt: return "span-preempt";
    case Kind::kSpanOpen: return "span-open";
    case Kind::kSpanClose: return "span-close";
    case Kind::kSyscall: return "syscall";
    case Kind::kThreadReady: return "thread-ready";
    case Kind::kThreadBlock: return "thread-block";
    case Kind::kThreadWake: return "thread-wake";
    case Kind::kDispatch: return "dispatch";
    case Kind::kTimeslice: return "timeslice";
    case Kind::kIoComplete: return "io-complete";
    case Kind::kPageFault: return "page-fault";
    case Kind::kProcGrant: return "proc-grant";
    case Kind::kProcRevoke: return "proc-revoke";
    case Kind::kProcDesired: return "proc-desired";
    case Kind::kUpcallQueued: return "upcall-queued";
    case Kind::kUpcallDeliver: return "upcall-deliver";
    case Kind::kUpcallEvent: return "upcall-event";
    case Kind::kDowncallAddProcs: return "downcall-add-processors";
    case Kind::kDowncallIdle: return "downcall-idle";
    case Kind::kVessel: return "vessel";
    case Kind::kUpcallFaultBegin: return "upcall-fault-begin";
    case Kind::kUpcallFaultEnd: return "upcall-fault-end";
    case Kind::kDebugStop: return "debug-stop";
    case Kind::kDebugResume: return "debug-resume";
    case Kind::kUltDispatch: return "ult-dispatch";
    case Kind::kUltSteal: return "ult-steal";
    case Kind::kUltIdle: return "ult-idle";
    case Kind::kUltIdleWake: return "ult-idle-wake";
    case Kind::kUltCsRecover: return "ult-cs-recover";
    case Kind::kUltReady: return "ult-ready";
    case Kind::kUltRunnable: return "ult-runnable";
    case Kind::kUltUnbind: return "ult-unbind";
    case Kind::kFibSpawn: return "fib-spawn";
    case Kind::kFibSwitch: return "fib-switch";
    case Kind::kFibSteal: return "fib-steal";
    case Kind::kFibPark: return "fib-park";
    case Kind::kFibWake: return "fib-wake";
    case Kind::kInjectIoRetry: return "inject-io-retry";
    case Kind::kInjectIoError: return "inject-io-error";
    case Kind::kInjectLatencySpike: return "inject-latency-spike";
    case Kind::kInjectUpcallDelay: return "inject-upcall-delay";
    case Kind::kInjectAllocDeny: return "inject-alloc-deny";
    case Kind::kInjectStorm: return "inject-storm";
    case Kind::kLifeSpawn: return "life-spawn";
    case Kind::kLifeCrash: return "life-crash";
    case Kind::kLifeHang: return "life-hang";
    case Kind::kLifeExit: return "life-exit";
    case Kind::kLifeQuarantine: return "life-quarantine";
    case Kind::kLifeHangPing: return "life-hang-ping";
    case Kind::kLifeReclaim: return "life-reclaim";
    case Kind::kLifeIoDiscard: return "life-io-discard";
    case Kind::kLifeTeardownDone: return "life-teardown-done";
    case Kind::kLocMigrateCore: return "loc-migrate-core";
    case Kind::kLocMigrateSocket: return "loc-migrate-socket";
    case Kind::kLocStealRemote: return "loc-steal-remote";
    case Kind::kLocWarmGrant: return "loc-warm-grant";
    case Kind::kLocColdGrant: return "loc-cold-grant";
    case Kind::kLoanGrant: return "loan-grant";
    case Kind::kLoanReclaimIssue: return "loan-reclaim-issue";
    case Kind::kLoanReturn: return "loan-return";
    case Kind::kLoanForceRevoke: return "loan-force-revoke";
    case Kind::kLoanAdopt: return "loan-adopt";
    case Kind::kLoanYieldHint: return "loan-yield-hint";
    case Kind::kLoanDeadlinePing: return "loan-deadline-ping";
    case Kind::kHbLazyFork: return "hb-lazy-fork";
    case Kind::kHbPromote: return "hb-promote";
    case Kind::kHbInline: return "hb-inline";
  }
  return "?";
}

TraceBuffer::TraceBuffer(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      ring_(static_cast<Record*>(std::malloc(capacity_ * sizeof(Record)))) {
  SA_CHECK(ring_ != nullptr);
}

void TraceBuffer::Emit(Kind kind, int64_t ts, int cpu, int as_id, uint64_t arg0,
                       uint64_t arg1) {
  const uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  Record r;
  r.ts = ts;
  r.cpu = static_cast<int32_t>(cpu);
  r.as_id = static_cast<int32_t>(as_id);
  r.kind = static_cast<uint16_t>(kind);
  r.arg0 = arg0;
  r.arg1 = arg1;
  ring_[slot % capacity_] = r;  // the padding fields too
}

std::vector<Record> TraceBuffer::Snapshot() const {
  const uint64_t total = next_.load(std::memory_order_acquire);
  const Record* ring = ring_.get();
  if (total <= capacity_) {
    return std::vector<Record>(ring, ring + total);
  }
  const size_t start = static_cast<size_t>(total % capacity_);
  std::vector<Record> out;
  out.reserve(capacity_);
  out.insert(out.end(), ring + start, ring + capacity_);
  out.insert(out.end(), ring, ring + start);
  return out;
}

uint64_t TraceBuffer::dropped() const {
  const uint64_t total = next_.load(std::memory_order_relaxed);
  return total > capacity_ ? total - capacity_ : 0;
}

int64_t HostNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace sa::trace
