// Deterministic event tracing (DESIGN.md §10).
//
// A TraceBuffer is a preallocated ring of fixed-size records.  Emission is a
// bounds check plus a relaxed atomic slot claim — cheap enough to leave
// compiled in everywhere, and safe to call from the native fiber
// pool's worker threads (records are read back only after the pool has
// quiesced).  Records carry the *virtual* clock for simulated components and
// the host monotonic clock for the native fiber pool, so a simulated run's
// trace is a pure function of its seed.
//
// One switch, at run time: a component with a null buffer emits nothing, and
// a buffer records only the categories in its bitmask (set_enabled).
// Default: all off; a buffer only records what a harness or test explicitly
// asks for.

#ifndef SA_TRACE_TRACE_H_
#define SA_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace sa::trace {

// Record categories (bitmask for runtime enable).
namespace cat {
inline constexpr uint32_t kProcessor = 1u << 0;  // hw::Processor spans
inline constexpr uint32_t kKernel = 1u << 1;     // syscalls, blocks, wakes
inline constexpr uint32_t kAlloc = 1u << 2;      // processor allocator
inline constexpr uint32_t kUpcall = 1u << 3;     // SA upcalls/downcalls
inline constexpr uint32_t kUlt = 1u << 4;        // FastThreads package
inline constexpr uint32_t kFibers = 1u << 5;     // native fiber pool (host clock)
inline constexpr uint32_t kInject = 1u << 6;     // fault-injection layer
inline constexpr uint32_t kLifecycle = 1u << 7;  // address-space teardown/reap
inline constexpr uint32_t kLocality = 1u << 8;   // topology: migrations, locality
inline constexpr uint32_t kLending = 1u << 9;    // cross-space processor loans
inline constexpr uint32_t kHeartbeat = 1u << 10;  // lazy-fork promotion
inline constexpr uint32_t kAll = 0xffffffffu;
}  // namespace cat

// Event kinds.  Values are part of the exported trace format; append only.
enum class Kind : uint16_t {
  // cat::kProcessor — arg0 = SpanMode, arg1 = duration (end/preempt: elapsed).
  kSpanBegin = 1,
  kSpanEnd = 2,
  kSpanPreempt = 3,   // span cut short by RequestInterrupt
  kSpanOpen = 4,      // open (untimed) span begins
  kSpanClose = 5,     // open span ends; arg1 = elapsed

  // cat::kKernel — arg0 = thread id unless noted.
  kSyscall = 16,      // arg0 = Syscall id (below), arg1 = thread id
  kThreadReady = 17,  // thread entered a kernel ready queue
  kThreadBlock = 18,  // arg1 = BlockReason (below)
  kThreadWake = 19,   // I/O or wait completed; thread is runnable again
  kDispatch = 20,     // kernel placed thread on a processor
  kTimeslice = 21,    // quantum expiry preemption, arg0 = thread id
  kIoComplete = 22,   // arg0 = thread id
  kPageFault = 23,    // arg0 = thread id, arg1 = page

  // cat::kAlloc.
  kProcGrant = 32,    // cpu granted to as_id; arg0 = as_id's holding after
  kProcRevoke = 33,   // cpu revoked from as_id; arg0 = as_id's holding after
  kProcDesired = 34,  // arg0 = desired, arg1 = currently assigned

  // cat::kUpcall.
  kUpcallQueued = 48,     // arg0 = UpcallEvent::Kind, arg1 = activation id
  kUpcallDeliver = 49,    // arg0 = batch size, arg1 = fresh activation id
  kUpcallEvent = 50,      // one per delivered event; arg0 = kind, arg1 = act
  kDowncallAddProcs = 51,  // Table 3: arg0 = additional processors wanted
  kDowncallIdle = 52,      // Table 3: this activation's processor is idle
  kVessel = 53,       // arg0 = running activations, arg1 = assigned processors
  kUpcallFaultBegin = 54,  // upcall path took a page fault; delivery delayed
  kUpcallFaultEnd = 55,
  kDebugStop = 56,    // arg0 = activation id (§4.4)
  kDebugResume = 57,

  // cat::kUlt — arg0 = vcpu index unless noted.
  kUltDispatch = 64,   // arg1 = thread id
  kUltSteal = 65,      // arg0 = thief vcpu, arg1 = victim vcpu
  kUltIdle = 66,       // vcpu found no work
  kUltIdleWake = 67,   // idle-spinning vcpu woken by EnqueueReady
  kUltCsRecover = 68,  // critical-section recovery: arg1 = thread id
  kUltReady = 69,      // thread made ready; arg0 = thread id, arg1 = runnable
  kUltRunnable = 70,   // runnable count changed; arg1 = runnable
  kUltUnbind = 71,     // vcpu lost its processor (revocation/idle return)

  // cat::kFibers — host-clock records from the native pool.
  kFibSpawn = 80,
  kFibSwitch = 81,
  kFibSteal = 82,
  kFibPark = 83,
  kFibWake = 84,

  // cat::kInject — fault-injection layer (src/inject/).
  kInjectIoRetry = 96,       // arg0 = thread id, arg1 = attempt number
  kInjectIoError = 97,       // retry budget exhausted; arg0 = thread id
  kInjectLatencySpike = 98,  // arg0 = nominal ns, arg1 = inflated ns
  kInjectUpcallDelay = 99,   // delivery deferred; arg0 = delay ns
  kInjectAllocDeny = 100,    // activation alloc denied; arg0 = retry ns
  kInjectStorm = 101,        // arg0 = revocations issued this burst

  // cat::kLifecycle — address-space lifecycle (kern/space_reaper.h).
  // as_id is the dying space throughout.
  kLifeSpawn = 112,         // space arrived mid-run (harness churn driver)
  kLifeCrash = 113,         // injected runtime crash detected
  kLifeHang = 114,          // watchdog declared the space hung (arg0 = pings)
  kLifeExit = 115,          // orderly exit with leaked resources
  kLifeQuarantine = 116,    // teardown began; arg0 = cause (TeardownCause)
  kLifeHangPing = 117,      // unacked watchdog deadline; arg0 = ping number,
                            // arg1 = next deadline ns (doubled per ping)
  kLifeReclaim = 118,       // arg0 = threads reclaimed, arg1 = upcalls discarded
  kLifeIoDiscard = 119,     // in-flight I/O for a dead space became inert;
                            // arg0 = thread id
  kLifeTeardownDone = 120,  // space fully dead; arg0 = processors returned,
                            // arg1 = teardown latency ns

  // cat::kLocality — hierarchical-topology events (src/hw/topology.h).
  // Emitted only on hierarchical machines; a flat machine never produces
  // them, keeping flat seeded traces byte-identical.  `cpu` is the
  // destination processor throughout.
  kLocMigrateCore = 128,    // context moved cores within a socket;
                            // arg0 = thread id, arg1 = source cpu
  kLocMigrateSocket = 129,  // context crossed sockets (cold cache);
                            // arg0 = thread id, arg1 = source cpu
  kLocStealRemote = 130,    // ULT steal crossed sockets; arg0 = thief vcpu,
                            // arg1 = victim vcpu
  kLocWarmGrant = 131,      // allocator re-granted a processor to its last
                            // owner; arg0 = socket
  kLocColdGrant = 132,      // granted a processor last owned by another
                            // space (or never owned); arg0 = socket,
                            // arg1 = previous owner space id + 1 (0 = none)

  // cat::kLending — cross-space processor loans (DESIGN.md §16).  `as_id` is
  // the lender throughout; arg0 is the loan epoch unless noted.  Emitted only
  // with Config::lending, so seeded traces without lending are byte-identical.
  kLoanGrant = 144,          // cpu lent; arg1 = borrower space id
  kLoanReclaimIssue = 145,   // lender's demand returned; recall begins
  kLoanReturn = 146,         // loan closed; arg1 = reason (LoanReturnReason)
  kLoanForceRevoke = 147,    // watchdog gave up; arg1 = borrower space id
  kLoanAdopt = 148,          // loan became an ownership transfer;
                             // arg1 = borrower space id
  kLoanYieldHint = 149,      // accepted SA yield-hint downcall; arg1 = cpu
  kLoanDeadlinePing = 150,   // unanswered reclaim deadline; arg1 = ping

  // cat::kHeartbeat — heartbeat-promoted lazy forking (DESIGN.md §17).
  // Emitted only when an application uses the lazy-fork API, so seeded
  // traces of eager-fork runs are byte-identical with the feature compiled
  // in (and with UltConfig::heartbeat_us set but unused).
  kHbLazyFork = 160,  // frame pushed; arg0 = child tid, arg1 = frame seq
  kHbPromote = 161,   // frame became a real thread/fiber; arg0 = child tid,
                      // arg1 = source (HbPromoteSource)
  kHbInline = 162,    // unpromoted frame ran inline at join; arg0 = child tid
};

// arg1 of kHbPromote.
enum class HbPromoteSource : uint64_t {
  kBeat = 0,   // the virtual-time heartbeat picked the oldest frame
  kSteal = 1,  // a work-stealing processor promoted instead of going idle
  kTick = 2,   // native pool: per-worker dispatch-loop tick
  kDrain = 3,  // a dry/idle processor drained a frame outside stealing:
               // native pool pre-park drain, or a ULT push that found an
               // idle-spinning vcpu
};

// arg1 of kLoanReturn.
enum class LoanReturnReason : uint64_t {
  kReclaimFast = 0,     // borrower idle: synchronous direct return
  kReclaimPreempt = 1,  // borrower preempted by the kLoanReclaim fast path
  kBorrowerDeath = 2,   // teardown of the borrower returned it
  kForced = 3,          // never emitted: a force-revoked loan closes as
                        // kBorrowerDeath (kept: the format is append-only)
};

const char* KindName(Kind kind);

// arg0 of kSyscall.
enum class Syscall : uint64_t {
  kFork = 1,
  kExit = 2,
  kBlockIo = 3,
  kPageFault = 4,
  kBlockWait = 5,
  kYield = 6,
  kWakeup = 7,
};

// 40-byte fixed record.  `ts` is virtual nanoseconds for simulated
// categories and host monotonic nanoseconds for cat::kFibers.  `cpu` and
// `as_id` are -1 when not applicable.
struct Record {
  int64_t ts = 0;
  int32_t cpu = -1;
  int32_t as_id = -1;
  uint16_t kind = 0;
  uint16_t reserved = 0;   // alignment; keeps the layout explicit
  uint32_t pad = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};
static_assert(sizeof(Record) == 40, "trace records are 40 bytes");

class TraceBuffer {
 public:
  // Capacity is fixed at construction; the ring never allocates afterwards.
  // Its memory is left untouched until records land in it, so a large ring
  // costs a short run only the pages it fills.
  explicit TraceBuffer(size_t capacity = 1u << 20);

  // Runtime category switch.  Emission for a disabled category is a single
  // branch.  Not thread-safe against concurrent Emit; set before the run.
  void set_enabled(uint32_t mask) { enabled_.store(mask, std::memory_order_relaxed); }
  bool enabled(uint32_t category) const {
    return (enabled_.load(std::memory_order_relaxed) & category) != 0;
  }

  // Appends a record.  Thread-safe (relaxed slot claim); oldest records are
  // overwritten once the ring wraps.
  void Emit(Kind kind, int64_t ts, int cpu, int as_id, uint64_t arg0, uint64_t arg1);

  // Records in emission order (oldest surviving first).  Only call after all
  // emitters have quiesced (simulation finished / fiber pool joined).
  std::vector<Record> Snapshot() const;

  // Total records ever emitted, including ones overwritten by wrapping.
  uint64_t total_emitted() const { return next_.load(std::memory_order_relaxed); }
  // Records lost to ring wrap-around.
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Free {
    void operator()(Record* p) const { std::free(p); }
  };

  const size_t capacity_;
  // Uninitialised storage: Emit writes whole records and Snapshot reads
  // only written ones.
  std::unique_ptr<Record[], Free> ring_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint32_t> enabled_{0};
};

// Host monotonic clock in nanoseconds, for cat::kFibers records.
int64_t HostNow();

}  // namespace sa::trace

// Emission macro for simulated components.  `buf` is a TraceBuffer* (may be
// null).
#define SA_TRACE_EMIT(buf, category, kind, ts, cpu, as_id, a0, a1)      \
  do {                                                                  \
    ::sa::trace::TraceBuffer* sa_tb_ = (buf);                           \
    if (sa_tb_ != nullptr && sa_tb_->enabled(category)) {               \
      sa_tb_->Emit((kind), (ts), (cpu), (as_id), (a0), (a1));           \
    }                                                                   \
  } while (0)

#endif  // SA_TRACE_TRACE_H_
