// Space-sharing processor allocator (Section 4.1).
//
// Implements the paper's variant of the Zahorjan & McCann dynamic policy:
// processors are divided evenly among the address spaces that want them,
// higher-priority spaces are satisfied first, and no processor is left idle
// while some space wants one.  If a space does not need its full share, the
// surplus is divided evenly among the rest.  Address spaces using kernel
// threads and address spaces using scheduler activations compete identically;
// only the delivery differs (Topaz dispatch vs. add-processor upcall).
//
// Revocation is asynchronous: the allocator requests a preemption interrupt
// and the processor arrives in OnRevokeComplete once its user-level state has
// been saved and its space notified.
//
// Where each processor is lives here alone, in one slot per processor
// (DESIGN.md §14): its holder, last owner, free-pool link, open loan and
// landing note.  Grant and Unassign are the only writers of a holder and of
// AddressSpace::assigned(), and CheckConservation holds every processor to
// exactly one place: the pool, one holder, or detaching in between.
//
// Simplification vs. the paper: fractional shares are not time-sliced among
// same-priority spaces; leftover processors are granted whole (deterministic
// by space id).  The experiments reproduced here use exact divisions.
//
// Scaling (DESIGN.md §14): allocation decisions are incremental.  Each
// priority tier keeps Fenwick-tree aggregates over its members' demands, so
// the water-filling division is recomputed from aggregates in O(log P) per
// round instead of rescanning every space; cached per-space targets are
// re-derived only for the members whose target can have moved.  Grants pop a
// deficit heap keyed (priority, deficit, id); revocations walk a surplus
// index.  A revocation storm therefore costs O(log n) per processor instead
// of O(spaces x processors).  This is the only decision path: differential
// fuzzing (alloc_incremental_test) holds it to an independent model of the
// original full-rescan policy, targets and grant/revoke order alike.
//
// Affinity (DESIGN.md §13): with Config::affinity_allocation set, the
// allocator keeps the paper's *shares* but chooses *which* physical
// processors change hands with locality in mind: grants prefer a processor's
// last owning space (warm cache), revocation victims are chosen to keep each
// space's holdings socket-compact, and leftover shares break ties toward
// incumbents.  Each is a key on the same incremental structures — leftover
// rank (-holdings, id), a holdings change re-keying the space, a warm
// regrant checked against the deficit heap's top — so affinity composes with
// lending.  With the flag off (the default) every choice reduces to the
// original locality-blind policy, byte-identically on seeded traces.

#ifndef SA_KERN_PROC_ALLOC_H_
#define SA_KERN_PROC_ALLOC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/id_set.h"
#include "src/common/intrusive_list.h"
#include "src/common/rng.h"
#include "src/hw/processor.h"
#include "src/kern/address_space.h"
#include "src/sim/engine.h"
#include "src/trace/histogram.h"

namespace sa::kern {

class Kernel;

class ProcessorAllocator {
 public:
  explicit ProcessorAllocator(Kernel* kernel);

  void RegisterSpace(AddressSpace* as);

  // Demand change (Table-3 downcalls for SA spaces; runnable-thread count
  // for kernel-thread spaces).  Triggers a rebalance.
  void SetDesired(AddressSpace* as, int desired);

  // Recomputes targets; issues revocations and grants.
  void Rebalance();

  // A revoked processor has been fully stopped and detached.
  void OnRevokeComplete(AddressSpace* old_as, hw::Processor* proc);

  // Takes `proc` from its holder: the one way a processor leaves a space
  // (Kernel::DetachAndNotify is the caller).  The processor is then
  // detaching until it lands in the pool or with a new holder.
  void Unassign(hw::Processor* proc);

  // The space holding `proc`, or null while it is free or detaching.
  AddressSpace* HolderOf(const hw::Processor* proc) const {
    return slots_[static_cast<size_t>(proc->id())].holder;
  }

  // Every processor is in exactly one place — the free pool, listed by
  // exactly one holder, or detaching with its span or pending action in
  // flight — and the loan ledger agrees with each space's loaned_out and
  // borrowed_in.  Returns a description of every breach (empty = holds).
  std::string CheckConservation() const;

  // The reaper finished tearing `as` down: forget it entirely (demand,
  // in-flight revocation bookkeeping, registration) and rebalance so the
  // survivors divide the machine among themselves.  Revocations of the dead
  // space still in flight complete harmlessly (OnRevokeComplete tolerates an
  // unregistered space).
  void ReleaseSpace(AddressSpace* as);

  // Fault injection (DESIGN.md §11): revokes up to `burst` randomly chosen
  // *owned* processors and rebalances, churning allocations through the
  // normal revoke/grant protocol.  Lives here so the in-flight revocation
  // bookkeeping stays exact.  Returns the number of revocations issued.
  int InjectRevocations(int burst, common::Rng& rng);

  int num_free() const { return static_cast<int>(free_.size()); }

  // Fair-share targets of the registered spaces, in id order.  Exposed for
  // tests.  Synchronizes demand bookkeeping first, since tests poke demand
  // directly through AddressSpace::set_desired_processors.
  std::vector<int> ComputeTargets();

  // Is `as` currently registered with the allocator?  The registered spaces
  // are those of Kernel::spaces() between RegisterSpace and ReleaseSpace.
  bool IsRegistered(const AddressSpace* as) const { return as->alloc_state().registered; }

  // Per-space grant classification against the processor's previous owner,
  // plus the space's kernel-thread migrations (reported by the kernel's
  // dispatch paths on hierarchical machines).
  using SpaceStats = SpaceAllocStats;
  SpaceStats stats_for(const AddressSpace* as) const { return as->alloc_state().stats; }
  // One of `as`'s threads was dispatched on a different processor than its
  // last (Kernel::NoteMigration).
  void NoteSpaceMigration(const AddressSpace* as) { ++as->alloc_state().stats.migrations; }

  // Allocator entry points processed (decision-cost denominator for
  // bench_alloc_scale).
  int64_t decisions() const { return decisions_; }

  // ---- cross-space lending (DESIGN.md §16) ----
  // Every entry point below is inert unless Config::lending.

  // How long a kernel-thread space's demand must sit below its holdings
  // before its surplus becomes lendable (guards against demand flutter).
  static constexpr sim::Duration kDipHysteresis = sim::Msec(2);
  // Reclaim-deadline watchdog: virtual time a borrower may sit on a recall
  // before the first ping, doubled per ping.  After kMaxReclaimPings
  // unanswered pings (5 + 10 = 15ms after the recall) the borrower is
  // force-revoked and quarantined through the space reaper.
  static constexpr sim::Duration kReclaimDeadline = sim::Msec(5);
  static constexpr int kMaxReclaimPings = 2;

  // Is `proc` currently out on loan (ledger entry open)?
  bool IsOnLoan(const hw::Processor* proc) const {
    return slots_[static_cast<size_t>(proc->id())].loan.open();
  }
  int loans_outstanding() const;

  // Would some space take a processor from `lender` right now?  Cost-free
  // query the SA yield-hint downcall uses to decline without perturbation.
  bool WantsLoanFrom(AddressSpace* lender);

  // An SA space's idle vcpu offered its processor (yield-hint downcall,
  // accepted path): stop `caller`, detach `proc` from `lender`, and lend it
  // to the neediest space.  The lender keeps its entitlement — the loan is
  // recalled the instant its demand returns.
  void LendYieldedProcessor(AddressSpace* lender, hw::Processor* proc,
                            KThread* caller);

  // Recall loans if `lender`'s demand exceeds its physical holdings.  The
  // yield-hint downcall calls this after its post-lend demand update: a
  // lying hint (or a demand rise racing the downcall) leaves desired
  // unchanged, so SetDesired sees no edge and the edge-triggered recall in
  // UpdateLoanStateOnDesired never fires.
  void RecallExcessLoans(AddressSpace* lender);

  // A kLoanReclaim interrupt landed on `proc` (kernel HandleAction, before
  // the processor is detached): settle the ledger and record where the
  // processor must return.  Tolerates a loan already settled by teardown or
  // adoption while the interrupt was in flight.
  void OnLoanReclaimPreempted(hw::Processor* proc, uint64_t epoch);
  // The kLoanReclaim preemption's kernel span finished: hand the processor
  // straight back to its lender (no grant-loop renegotiation).  Unlike
  // OnRevokeComplete it leaves the borrower's pending revocations alone.
  void OnLoanReclaimComplete(hw::Processor* proc);

  // Teardown hook (space_reaper): settle every loan touching `as` before
  // its processors are revoked.  Lender death transfers ownership to the
  // borrower (adoption); borrower death routes the processor back to its
  // lender with conservation intact.
  void ResolveLoansForTeardown(AddressSpace* as);

  // Loan-recall latency (reclaim issue -> processor back with the lender),
  // one sample per loans_reclaimed.
  const trace::LatencyHistogram& reclaim_latency() const { return reclaim_latency_; }

 private:
  // One priority tier.  Demands are mirrored into Fenwick trees over
  // clamped demand values 1..P+1 (any demand above the machine size behaves
  // identically, so values are clamped to keep the tree small).  The cached
  // water-fill summary describes every member's target: a member with
  // demand d gets
  //   d <= 0         -> 0
  //   clamp(d) <= threshold -> d (capped at its own demand)
  //   otherwise      -> share, plus 1 if its rank among uncapped members
  //                     is below `leftover` (id order; under affinity,
  //                     (-holdings, id)).
  // The uncapped members are split at that cutoff: `extra` holds the first
  // `leftover` rank keys, `rest` the others.
  using RankKey = std::pair<int, int>;  // (0 or -holdings, id)
  using DemandBucket =
      common::IntrusiveList<AddressSpace, &AddressSpace::alloc_demand_node>;
  struct Tier {
    int members = 0;  // registered members (including zero-demand)
    int active = 0;   // members with demand > 0
    std::vector<AddressSpace*> changed;  // to re-rank at the next refresh
    std::vector<int> cnt;                // Fenwick: member count per demand
    std::vector<int64_t> sum;            // Fenwick: demand sum per demand
    std::vector<DemandBucket> by_demand;  // active members per clamped demand
    std::map<RankKey, AddressSpace*> extra;
    std::map<RankKey, AddressSpace*> rest;
    bool dirty = true;
    // Cached water-fill summary, valid for pool_in inbound processors.
    int pool_in = -1;
    int pool_out = 0;
    int threshold = 0;
    int share = 0;
    int leftover = 0;
  };

  // One open loan, kept in its processor's slot: at most one per processor
  // (no chains: a borrower never re-lends).  A loan opens one way
  // (OpenLoan) and closes in CloseLoan, which disarms its slot's timers.
  struct Loan {
    hw::Processor* proc = nullptr;
    AddressSpace* lender = nullptr;  // null: no loan open
    AddressSpace* borrower = nullptr;
    // Unique, monotone: names the loan in trace records and in a kLoanReclaim
    // interrupt, which cannot be cancelled once in flight.
    uint64_t epoch = 0;
    sim::Time reclaim_issued_at = 0;
    bool reclaiming = false;
    bool ipi_sent = false;  // the reclaim interrupt has actually been issued
                            // (false while an injected delay holds it back)
    int pings = 0;          // unanswered reclaim-deadline watchdog pings

    bool open() const { return lender != nullptr; }
  };

  // Where one processor is.  Indexed by processor id, never resized (the
  // free list links into it).  Free: `free_node` linked.  Held: `holder`
  // set, and the holder's assigned() lists it.  Detaching: neither.
  struct Slot {
    hw::Processor* proc = nullptr;
    AddressSpace* holder = nullptr;
    int last_owner = -1;  // id of the last space granted it (-1: never)
    common::ListNode free_node;
    Loan loan;
    // Landing note of a processor detaching from a settled loan: it goes
    // back to `land_with` (while that lender lives), and `land_issued_at
    // >= 0` is the recall's issue time, whose latency is recorded when it
    // lands.
    AddressSpace* land_with = nullptr;
    sim::Time land_issued_at = -1;
    // The open loan's timers, added only with Config::lending: the reclaim
    // interrupt an injected delay holds back, and the reclaim-deadline
    // watchdog.  CloseLoan disarms both, so a firing one finds the loan
    // open.
    sim::TimerId reclaim_issue = sim::kNoTimer;
    sim::TimerId reclaim_deadline = sim::kNoTimer;
  };

  Slot& SlotOf(const hw::Processor* proc) {
    return slots_[static_cast<size_t>(proc->id())];
  }
  // The space with id `id`, registered or not (Kernel::spaces()).
  AddressSpace* SpaceById(int id) const;
  // Puts a detached processor in the free pool.
  void Pool(hw::Processor* proc);
  // Grant's and Unassign's index upkeep: `proc` entered or left
  // as->assigned() (delta is +1 or -1).  Keeps the deficit/surplus indexes
  // and the per-socket holding counts exact.
  void OnAssignedChanged(AddressSpace* as, hw::Processor* proc, int delta);

  bool lending_enabled() const;
  // A space's entitlement: processors it owns outright.  Loaned-out
  // processors still count toward the lender; borrowed ones never count
  // toward the borrower.  Equals assigned().size() when lending is off.
  int Entitled(const AddressSpace* as) const;
  // Demand as the tier aggregates should see it: raw desired, floored at
  // the entitlement while a space has loans out or a dip window open (the
  // floor is what keeps §4.1 from revoking a dipped lender's surplus before
  // the hysteresis expires or the loan recall lands).
  int EffectiveDemand(const AddressSpace* as) const;
  // SetDesired pre-pass: recalls loans when demand returns, arms/disarms
  // the kt dip-hysteresis window.  No-op when lending is off.
  void UpdateLoanStateOnDesired(AddressSpace* as);
  void OnDipDeadline(AddressSpace* as);
  // Lends ripe kt dip surplus to the neediest spaces (rebalance tail pass).
  void LendSurplus();
  AddressSpace* PickBorrower(const AddressSpace* lender);
  // Opens a loan of `lender`'s processor `proc` to `borrower`: detaches it
  // (telling `stopped`, the activation a yield hint stopped, or nobody for
  // a dip lend) and grants it.  The one way a loan opens.
  void OpenLoan(hw::Processor* proc, AddressSpace* lender, AddressSpace* borrower,
                KThread* stopped);
  // `lender`'s newest loan not already being recalled, or null.
  Loan* NewestLoanOf(const AddressSpace* lender);
  // Recalls up to `k` of `lender`'s loans, newest first.  Idle borrower
  // processors come back synchronously (the instant-reclaim fast path);
  // busy ones get a kLoanReclaim preemption with a deadline watchdog.
  void ReclaimLoans(AddressSpace* lender, int k);
  // Sends the reclaim interrupt, or returns the loan on the spot when its
  // processor has gone idle in the kernel meanwhile; false in that case
  // (the loan is closed).
  bool IssueReclaimIpi(Loan& loan);
  void ArmLoanDeadline(Loan& loan);
  void OnLoanDeadline(Loan& loan);
  // The one synchronous return: closes `loan` as kReclaimFast, detaches its
  // processor (telling `stopped`, or nobody) and lands it.  No rebalance:
  // each caller rebalances where it always has.
  void ReturnLoanNow(Loan loan, KThread* stopped);
  // Converts a loan into an ownership transfer (no processor motion): the
  // pressured lender stops vouching for it and the borrower's entitlement
  // absorbs it.  Used when §4.1 wants the lender's capacity back for a
  // higher claim, and when a lender dies.
  void AdoptLoan(Loan loan);
  // Closes the ledger entry and both sides' counters and disarms the loan's
  // timers.  `reason` feeds the kLoanReturn trace record (-1: adoption, no
  // record); a recalled loan that returns its processor counts in
  // loans_reclaimed, and in loans_reclaimed_fast as kReclaimFast.
  void CloseLoan(Loan loan, int reason);
  // The one landing of a processor leaving a loan: back with `lender` while
  // it is registered and alive, else the free pool.  `issued_at >= 0` is
  // the recall's issue time, whose latency is recorded here.
  void Land(hw::Processor* proc, AddressSpace* lender, sim::Time issued_at);

  bool affinity() const;  // Config::affinity_allocation
  int Clamp(int demand) const;
  Tier& TierOf(const AddressSpace* as);
  void FenwickAdd(Tier& tier, int demand, int dcnt, int64_t dsum);
  void FenwickPrefix(const Tier& tier, int demand, int* cnt, int64_t* sum) const;

  // Syncs tier aggregates with as->desired_processors().
  void RecordDemand(AddressSpace* as);
  // Queues `as` for its tier's next refresh.
  void MarkChanged(Tier& tier, AddressSpace* as);
  // Catches demand poked directly through set_desired_processors (tests).
  void SyncDemands();
  // Recomputes cached targets for dirty tiers (incremental mode).
  void RefreshTargets();
  // Re-derives the tier's water-fill summary, then the targets of only the
  // members it can have moved.
  void RefreshTier(Tier& tier, int pool_in);
  // Moves `as` to the rank-index slot its demand, the tier's threshold and
  // its rank key call for.
  void Rerank(Tier& tier, AddressSpace* as);
  void Unrank(Tier& tier, AddressSpace* as);
  void ApplyTarget(AddressSpace* as, int target);
  // Re-derives heap/surplus/needy membership from the space's cached
  // target, assigned count, and pending revocations.
  void RefreshDerived(AddressSpace* as);
  void NotePendingDelta(AddressSpace* as, int delta);

  void RebalanceInternal();
  // Revokes down to `target` for one space (idle fast path or async
  // preemption).
  void RevokeSurplus(AddressSpace* as, int target);
  // Takes one owned processor from `as`: reclaimed on the spot when idle in
  // kernel, else a kRevoke preemption.  Returns false when the preemption
  // could not be requested (an action is already in flight).
  bool Revoke(AddressSpace* as, hw::Processor* proc);
  // Grants free processors to the deficit heap's top (or, under affinity, a
  // tied space the processor last belonged to) until the heap or pool empty.
  void GrantFreeProcessors();
  // The one way a processor enters a space: from the pool (already
  // unlinked) or from detaching, to `as`, which is told (add-processor
  // upcall or kernel dispatch).
  void Grant(hw::Processor* proc, AddressSpace* as);
  // Removes and returns the free processor to grant to `as`: the affinity
  // policy's pick when enabled, else the most recently freed.
  hw::Processor* PickFreeProcessor(const AddressSpace* as);
  // Revocation victims for `as`, best-first.  Default: most recently granted
  // first.  Affinity: least-held socket first so holdings stay compact.
  // Fills and returns revocation_order_.
  const std::vector<hw::Processor*>& RevocationOrder(const AddressSpace* as);

  Kernel* kernel_;
  int num_processors_ = 0;
  // Ids of the registered spaces currently holding >= 1 processor.  Bounds
  // storm-candidate collection by the machine size instead of the space
  // count; walking it in id order yields exactly the (space, processor)
  // pairs a walk of every registered space in id order would (empty
  // holdings contribute none), so seeded storm RNG streams are unchanged.
  common::IdSet holders_;
  std::map<int, Tier, std::greater<int>> tiers_;  // highest priority first
  std::vector<Slot> slots_;  // per processor id
  common::IntrusiveList<Slot, &Slot::free_node> free_;
  // Spaces owed processors, keyed (-priority, -deficit, id): begin() is the
  // full scan's pick (highest priority, largest deficit, lowest id).
  std::set<std::tuple<int, int, int>> deficit_heap_;
  common::IdSet surplus_;  // ids with assigned - pending > target
  int needy_ = 0;          // spaces with assigned - pending < target
  int64_t decisions_ = 0;
  bool rebalancing_ = false;
  bool rerun_ = false;

  // Scratch buffers, reused across decisions instead of rebuilt per call.
  // RebalanceInternal never re-enters (a nested call only sets rerun_), so
  // its surplus and lend snapshots and RevokeSurplus's victim order stay
  // intact while it walks them; no revocation reaches InjectRevocations.
  std::vector<int> surplus_snapshot_;
  std::vector<int> lend_snapshot_;
  std::vector<hw::Processor*> revocation_order_;
  std::vector<std::pair<AddressSpace*, hw::Processor*>> storm_candidates_;

  // ---- lending state (all empty/zero unless Config::lending) ----
  uint64_t loan_epoch_ = 0;
  common::IdSet lendable_;  // ids of spaces with a ripe dip window
  trace::LatencyHistogram reclaim_latency_;
};

}  // namespace sa::kern

#endif  // SA_KERN_PROC_ALLOC_H_
