// Address spaces (the kernel's unit of protection and processor allocation).
//
// An address space either uses kernel threads directly (kKernelThreads mode:
// its threads are scheduled by the Topaz scheduler) or scheduler activations
// (kSchedulerActivations mode: the kernel explicitly allocates whole
// processors to it and vectors events up; see src/core/).  The paper's
// implementation supports both concurrently, with no static partitioning of
// processors (Section 4.1); so does this one.

#ifndef SA_KERN_ADDRESS_SPACE_H_
#define SA_KERN_ADDRESS_SPACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/intrusive_list.h"
#include "src/kern/kthread.h"
#include "src/kern/sa_iface.h"
#include "src/kern/vm.h"

namespace sa::kern {

enum class AsMode {
  kKernelThreads,         // traditional: kernel schedules this space's threads
  kSchedulerActivations,  // processors allocated explicitly; events upcalled
};

// Lifecycle of a space under the teardown state machine (space_reaper.h).
// kAlive → kTearingDown (quarantined; processors being revoked) → kDead
// (nothing in the kernel references the space any more).
enum class AsLifecycle {
  kAlive,
  kTearingDown,
  kDead,
};

// Why a space was torn down.
enum class TeardownCause {
  kNone,
  kCrashed,  // runtime faulted (upcall handler / user thread trap)
  kHung,     // stopped responding to upcalls; watchdog declared it dead
  kExited,   // orderly exit that leaked resources
  kHoarded,  // sat on a loan past the reclaim deadline; force-revoked
};

const char* AsLifecycleName(AsLifecycle s);
const char* TeardownCauseName(TeardownCause c);

// Per-teardown post-mortem record (surfaced through rt::RunReport and the
// EXPERIMENTS.md reclamation-latency table).
struct TeardownRecord {
  int as_id = 0;
  TeardownCause cause = TeardownCause::kNone;
  sim::Time begin = 0;
  sim::Time end = 0;
  int procs_returned = 0;
  int threads_reclaimed = 0;
  int upcalls_discarded = 0;
  sim::Duration latency() const { return end - begin; }
};

// Kernel threads ready to run, oldest first.
using ReadyQueue = common::IntrusiveList<KThread, &KThread::queue_node>;

// Per-space grant classification and migration counters, surfaced through
// ProcessorAllocator::stats_for().  Counted regardless of policy flags
// (bookkeeping only; never affects placement).
struct SpaceAllocStats {
  int64_t warm_grants = 0;  // processor's last owner was this space
  int64_t cold_grants = 0;  // last owned by another space, or never owned
  int64_t migrations = 0;   // this space's threads changed processor
};

class AddressSpace {
 public:
  AddressSpace(int id, std::string name, AsMode mode, int priority)
      : id_(id), name_(std::move(name)), mode_(mode), priority_(priority) {
    // The upcall entry path is resident unless an experiment evicts it.
    vm_.MakeResident(VmSpace::kUpcallEntryPage);
  }
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  AsMode mode() const { return mode_; }
  int priority() const { return priority_; }

  // Per-space virtual memory (resident set, fault counts).
  VmSpace& vm() { return vm_; }
  const VmSpace& vm() const { return vm_; }

  // Ultrix-style process spaces pay process costs for thread operations.
  bool heavyweight() const { return heavyweight_; }
  void set_heavyweight(bool h) { heavyweight_ = h; }

  // Scheduler-activation machinery for this space; set by core::SaSpace.
  SaSpaceIface* sa() const { return sa_; }
  void set_sa(SaSpaceIface* sa) { sa_ = sa; }

  // --- lifecycle (space_reaper.h owns the transitions) ---
  AsLifecycle lifecycle() const { return lifecycle_; }
  void set_lifecycle(AsLifecycle s) { lifecycle_ = s; }
  // True once teardown has begun: the kernel must stop scheduling for this
  // space and funnel its processors back to the allocator.
  bool reaped() const { return lifecycle_ != AsLifecycle::kAlive; }
  TeardownCause teardown_cause() const { return teardown_cause_; }
  void set_teardown_cause(TeardownCause c) { teardown_cause_ = c; }
  // A hung runtime is still alive in the kernel's eyes (until the watchdog
  // gives up) but its user level silently drops every upcall.
  bool hung() const { return hung_; }
  void set_hung(bool h) { hung_ = h; }
  // The reaper's state for this space (owned by kern::SpaceReaper): the
  // hang watchdog, and the post-mortem record while kTearingDown.  The
  // pings and the record are reset when the teardown finishes.
  struct ReapState {
    int pings = 0;  // consecutive missed ack deadlines
    // The ack deadline, a timer added with the space only when hang
    // detection is on: armed while an upcall is outstanding and an ack
    // expected; the ack disarms it.
    sim::TimerId deadline = sim::kNoTimer;
    TeardownRecord record;
  };
  ReapState& reap_state() { return reap_state_; }

  // --- processor-allocator bookkeeping (both modes, Section 4.1) ---
  // How many processors this space currently wants.  For SA spaces this is
  // driven by the Table-3 downcalls; for kernel-thread spaces the kernel
  // derives it from internal data structures (runnable thread count).
  int desired_processors() const { return desired_processors_; }
  void set_desired_processors(int n) { desired_processors_ = n; }

  // Processors currently assigned by the explicit allocator, in grant
  // order.  Only ProcessorAllocator::Grant and Unassign change it.
  const std::vector<hw::Processor*>& assigned() const { return assigned_; }
  bool IsAssigned(const hw::Processor* p) const {
    for (auto* q : assigned_) {
      if (q == p) {
        return true;
      }
    }
    return false;
  }

  // Thread registry (owns the KThreads of this space).  A record holds one
  // thread at a time: an exited thread's record waits here until
  // Kernel::CreateThread reuses it, so the registry follows the peak number
  // of live threads, not every thread the space ever ran.
  KThread* AddThread(std::unique_ptr<KThread> kt) {
    threads_.push_back(std::move(kt));
    return threads_.back().get();
  }
  const std::vector<std::unique_ptr<KThread>>& threads() const { return threads_; }
  void ReturnExited(KThread* kt) { exited_.push_back(kt); }
  // An exited thread's record, or null if none waits.
  KThread* TakeExited() {
    if (exited_.empty()) {
      return nullptr;
    }
    KThread* kt = exited_.back();
    exited_.pop_back();
    return kt;
  }

  // Live-thread accounting used by the kernel-thread demand estimate.
  int runnable_threads = 0;  // ready + running (kKernelThreads spaces)

  // This space's kernel threads waiting for one of its processors: its own
  // Topaz scheduler under the explicit allocator (Kernel::ReadyQueueOf).
  // The native kernel keeps one global queue instead.
  ReadyQueue& ready_queue() { return ready_queue_; }

  // --- allocator-private bookkeeping (owned by kern::ProcessorAllocator) ---
  // Lives on the space so the allocator's hot paths are plain field loads
  // instead of hash-map lookups.  Mutable because stats accrue through
  // const pointers (stats_for / NoteSpaceMigration).
  struct AllocState {
    bool registered = false;  // between RegisterSpace and ReleaseSpace
    int pending_revokes = 0;  // revocations in flight
    int demand = 0;           // demand the allocator's tier aggregates reflect
    int target = 0;           // cached fair-share target (incremental policy)
    int heap_deficit = 0;     // deficit key under which this space sits in the heap
    bool in_heap = false;     // member of the deficit heap
    bool in_surplus = false;  // member of the surplus index
    bool needy = false;       // counted in the allocator's needy tally
    bool pending_refresh = false;  // queued in its tier's changed list
    // Slot in its tier's rank index of uncapped members: key (rank_key, id)
    // in the `extra` map (gets a leftover processor) or the `rest` map.
    bool ranked = false;
    bool extra = false;
    int rank_key = 0;  // 0, or -holdings under affinity
    SpaceAllocStats stats;
    std::vector<int> socket_held;  // processors held per socket (affinity)
  };
  AllocState& alloc_state() const { return alloc_state_; }

  // Cross-space lending state (DESIGN.md §16), owned by the allocator like
  // AllocState.  All zero unless Config::lending.
  struct LoanState {
    int loaned_out = 0;   // processors this space has lent to others
    int borrowed_in = 0;  // processors this space holds on loan
    // Dip hysteresis (kernel-thread lenders): armed when demand dips below
    // holdings, ripe once the window expires without the demand returning.
    // Whatever clears dip_armed first disarms the window's timer, which
    // the allocator adds with the space.
    bool dip_armed = false;
    bool dip_ripe = false;
    sim::TimerId dip_window = sim::kNoTimer;
    // Lifetime totals for per-space reporting.
    int64_t lends = 0;     // loans this space granted as lender
    int64_t borrows = 0;   // loans this space received as borrower
    int64_t reclaims = 0;  // loans recalled by this space's demand return
  };
  LoanState& loan_state() const { return loan_state_; }

  // Allocator-private: links the space into its tier's bucket of members
  // with the same clamped demand.
  common::ListNode alloc_demand_node;

 private:
  friend class ProcessorAllocator;  // the one writer of assigned_
  void AddAssigned(hw::Processor* p) { assigned_.push_back(p); }
  void RemoveAssigned(hw::Processor* p) {
    for (auto it = assigned_.begin(); it != assigned_.end(); ++it) {
      if (*it == p) {
        assigned_.erase(it);
        return;
      }
    }
    SA_CHECK_MSG(false, "processor not assigned to this address space");
  }

  mutable AllocState alloc_state_;
  mutable LoanState loan_state_;
  const int id_;
  const std::string name_;
  const AsMode mode_;
  const int priority_;
  bool heavyweight_ = false;
  VmSpace vm_;
  SaSpaceIface* sa_ = nullptr;
  AsLifecycle lifecycle_ = AsLifecycle::kAlive;
  TeardownCause teardown_cause_ = TeardownCause::kNone;
  bool hung_ = false;
  ReapState reap_state_;
  int desired_processors_ = 0;
  ReadyQueue ready_queue_;
  std::vector<hw::Processor*> assigned_;
  std::vector<std::unique_ptr<KThread>> threads_;
  std::vector<KThread*> exited_;  // records of exited threads, for reuse
};

}  // namespace sa::kern

#endif  // SA_KERN_ADDRESS_SPACE_H_
