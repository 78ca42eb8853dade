#include "src/kern/proc_alloc.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/hw/topology.h"
#include "src/inject/fault_injector.h"
#include "src/kern/kernel.h"
#include "src/kern/space_reaper.h"
#include "src/trace/trace.h"

namespace sa::kern {

ProcessorAllocator::ProcessorAllocator(Kernel* kernel)
    : kernel_(kernel),
      num_processors_(kernel->machine()->num_processors()),
      slots_(static_cast<size_t>(num_processors_)) {
  // Every processor boots in the pool, lowest id at the front.
  for (int i = 0; i < num_processors_; ++i) {
    Slot& slot = slots_[static_cast<size_t>(i)];
    slot.proc = kernel->machine()->processor(i);
    free_.PushBack(&slot);
    if (lending_enabled()) {
      Slot* s = &slot;
      sim::Engine& engine = kernel->engine();
      slot.reclaim_issue = engine.AddTimer([this, s] { IssueReclaimIpi(s->loan); });
      slot.reclaim_deadline = engine.AddTimer([this, s] { OnLoanDeadline(s->loan); });
    }
  }
}

bool ProcessorAllocator::affinity() const {
  return kernel_->config().affinity_allocation;
}

int ProcessorAllocator::Clamp(int demand) const {
  // Every water-fill comparison is against a share <= P, so demands above
  // the machine size are interchangeable; clamping to P+1 bounds the
  // Fenwick domain.
  return demand < num_processors_ + 1 ? demand : num_processors_ + 1;
}

ProcessorAllocator::Tier& ProcessorAllocator::TierOf(const AddressSpace* as) {
  auto it = tiers_.find(as->priority());
  SA_CHECK(it != tiers_.end());
  return it->second;
}

AddressSpace* ProcessorAllocator::SpaceById(int id) const {
  return kernel_->spaces()[static_cast<size_t>(id)].get();
}

void ProcessorAllocator::FenwickAdd(Tier& tier, int demand, int dcnt, int64_t dsum) {
  for (int i = demand; i <= num_processors_ + 1; i += i & -i) {
    tier.cnt[static_cast<size_t>(i)] += dcnt;
    tier.sum[static_cast<size_t>(i)] += dsum;
  }
}

void ProcessorAllocator::FenwickPrefix(const Tier& tier, int demand, int* cnt,
                                       int64_t* sum) const {
  int c = 0;
  int64_t s = 0;
  for (int i = demand; i > 0; i -= i & -i) {
    c += tier.cnt[static_cast<size_t>(i)];
    s += tier.sum[static_cast<size_t>(i)];
  }
  *cnt = c;
  *sum = s;
}

void ProcessorAllocator::RegisterSpace(AddressSpace* as) {
  AddressSpace::AllocState& st = as->alloc_state();
  SA_CHECK(!st.registered);
  st.registered = true;
  if (!as->assigned().empty()) {
    holders_.Insert(as->id());
  }
  Tier& tier = tiers_[as->priority()];
  if (tier.cnt.empty()) {
    tier.cnt.assign(static_cast<size_t>(num_processors_) + 2, 0);
    tier.sum.assign(static_cast<size_t>(num_processors_) + 2, 0);
    tier.by_demand = std::vector<DemandBucket>(static_cast<size_t>(num_processors_) + 2);
  }
  ++tier.members;
  st.demand = 0;
  if (as->desired_processors() != 0) {
    RecordDemand(as);
  }
  if (lending_enabled()) {
    as->loan_state().dip_window =
        kernel_->engine().AddTimer([this, as] { OnDipDeadline(as); });
  }
}

void ProcessorAllocator::RecordDemand(AddressSpace* as) {
  AddressSpace::AllocState& st = as->alloc_state();
  const int desired = EffectiveDemand(as);
  if (st.demand == desired) {
    return;
  }
  Tier& tier = TierOf(as);
  if (st.demand > 0) {
    FenwickAdd(tier, Clamp(st.demand), -1, -Clamp(st.demand));
    --tier.active;
    tier.by_demand[static_cast<size_t>(Clamp(st.demand))].Remove(as);
  }
  if (desired > 0) {
    FenwickAdd(tier, Clamp(desired), +1, +Clamp(desired));
    ++tier.active;
    tier.by_demand[static_cast<size_t>(Clamp(desired))].PushBack(as);
  }
  st.demand = desired;
  MarkChanged(tier, as);
}

void ProcessorAllocator::MarkChanged(Tier& tier, AddressSpace* as) {
  tier.dirty = true;
  AddressSpace::AllocState& st = as->alloc_state();
  if (!st.pending_refresh) {
    st.pending_refresh = true;
    tier.changed.push_back(as);
  }
}

void ProcessorAllocator::SyncDemands() {
  for (const auto& as : kernel_->spaces()) {
    if (IsRegistered(as.get()) && as->alloc_state().demand != EffectiveDemand(as.get())) {
      RecordDemand(as.get());
    }
  }
}

void ProcessorAllocator::SetDesired(AddressSpace* as, int desired) {
  SA_CHECK(desired >= 0);
  if (as->desired_processors() == desired) {
    return;
  }
  ++decisions_;
  as->set_desired_processors(desired);
  // Lending reacts to the demand edge before the tier aggregates see it:
  // a demand return recalls loans, a dip arms the hysteresis window (whose
  // entitlement floor RecordDemand then reads through EffectiveDemand).
  UpdateLoanStateOnDesired(as);
  if (IsRegistered(as)) {
    RecordDemand(as);
  }
  RebalanceInternal();
}

// ---------------------------------------------------------------------------
// Target computation.
// ---------------------------------------------------------------------------

std::vector<int> ProcessorAllocator::ComputeTargets() {
  SyncDemands();
  RefreshTargets();
  std::vector<int> target;
  for (const auto& as : kernel_->spaces()) {
    if (IsRegistered(as.get())) {
      target.push_back(as->alloc_state().target);
    }
  }
  return target;
}

void ProcessorAllocator::RefreshTargets() {
  int pool = num_processors_;
  for (auto& [prio, tier] : tiers_) {
    if (!tier.dirty && tier.pool_in == pool) {
      pool = tier.pool_out;
      continue;
    }
    RefreshTier(tier, pool);
    pool = tier.pool_out;
  }
}

void ProcessorAllocator::RefreshTier(Tier& tier, int pool_in) {
  // Replay the reference water-fill on aggregates.  Each round offers every
  // still-open member an even share of the pool and caps those content with
  // it.  Because the offered share never decreases between rounds, "capped"
  // is exactly "demand <= the final capping share" — one prefix query per
  // round gives the capped count and their total demand without touching
  // members.  The loop runs at most once per distinct capping share.
  int capped_cnt = 0;
  int threshold = 0;
  int pool = pool_in;
  for (;;) {
    const int open = tier.active - capped_cnt;
    if (open == 0 || pool == 0) {
      break;
    }
    const int share = pool / open;
    int cnt = 0;
    int64_t sum = 0;
    FenwickPrefix(tier, share, &cnt, &sum);
    if (cnt == capped_cnt) {
      break;  // nobody newly content: distribute the pool evenly
    }
    threshold = share;
    capped_cnt = cnt;
    pool = pool_in - static_cast<int>(sum);
  }
  const int uncapped = tier.active - capped_cnt;
  const int share = uncapped > 0 ? pool / uncapped : 0;
  const int leftover = uncapped > 0 ? pool - share * uncapped : 0;
  const int pool_out = uncapped > 0 ? 0 : pool;

  // Only members whose target can have moved are visited (DESIGN.md §14):
  // changed members, members whose class flips because the threshold moved,
  // members crossing the leftover cutoff, and — only when the share moves,
  // which moves every uncapped target — the uncapped members.
  const int old_threshold = tier.threshold;
  const bool share_moved = tier.share != share;
  tier.pool_in = pool_in;
  tier.pool_out = pool_out;
  tier.threshold = threshold;
  tier.share = share;
  tier.leftover = leftover;
  if (threshold != old_threshold) {
    // Capped <-> uncapped: clamped demand between the old and new threshold.
    // They join the changed members.  The Fenwick counts say how many there
    // are, so the bucket walk stops at the last one.
    const int lo = std::min(threshold, old_threshold);
    const int hi = std::max(threshold, old_threshold);
    int below_lo = 0;
    int below_hi = 0;
    int64_t unused = 0;
    FenwickPrefix(tier, lo, &below_lo, &unused);
    FenwickPrefix(tier, hi, &below_hi, &unused);
    for (int d = lo + 1, left = below_hi - below_lo; left > 0; ++d) {
      for (AddressSpace* as : tier.by_demand[static_cast<size_t>(d)]) {
        --left;
        MarkChanged(tier, as);
      }
    }
  }
  for (AddressSpace* as : tier.changed) {
    Rerank(tier, as);
  }
  // The leftover goes to the first `leftover` uncapped members in rank
  // order: id order, or under affinity (DESIGN.md §13) incumbents first,
  // keyed (-holdings, id), so a leftover that stays put forces no migration.
  // Move members across the cutoff until `extra` holds exactly those.
  SA_CHECK(static_cast<int>(tier.extra.size() + tier.rest.size()) == uncapped);
  while (static_cast<int>(tier.extra.size()) > leftover) {
    auto node = tier.extra.extract(std::prev(tier.extra.end()));
    AddressSpace* as = node.mapped();
    as->alloc_state().extra = false;
    tier.rest.insert(tier.rest.begin(), std::move(node));
    ApplyTarget(as, share);
  }
  while (static_cast<int>(tier.extra.size()) < leftover) {
    auto node = tier.rest.extract(tier.rest.begin());
    AddressSpace* as = node.mapped();
    as->alloc_state().extra = true;
    tier.extra.insert(tier.extra.end(), std::move(node));
    ApplyTarget(as, share + 1);
  }
  if (share_moved) {
    for (const auto& [key, as] : tier.extra) {
      ApplyTarget(as, share + 1);
    }
    for (const auto& [key, as] : tier.rest) {
      ApplyTarget(as, share);
    }
  }
  // Changed members last, once their slots are final.  A capped member
  // gets its demand; so does an idle one (0).
  for (AddressSpace* as : tier.changed) {
    AddressSpace::AllocState& st = as->alloc_state();
    st.pending_refresh = false;
    ApplyTarget(as, st.ranked ? share + (st.extra ? 1 : 0) : st.demand);
  }
  tier.changed.clear();
  tier.dirty = false;
}

void ProcessorAllocator::Rerank(Tier& tier, AddressSpace* as) {
  AddressSpace::AllocState& st = as->alloc_state();
  const bool uncapped = st.demand > 0 && Clamp(st.demand) > tier.threshold;
  const int key = affinity() ? -static_cast<int>(as->assigned().size()) : 0;
  if (st.ranked && uncapped && st.rank_key == key) {
    return;
  }
  Unrank(tier, as);
  if (uncapped) {
    // A key below `extra`'s last belongs there; the cutoff pass in
    // RefreshTier then restores `extra`'s size.
    const RankKey rank{key, as->id()};
    st.extra = !tier.extra.empty() && rank < tier.extra.rbegin()->first;
    (st.extra ? tier.extra : tier.rest).emplace(rank, as);
    st.ranked = true;
    st.rank_key = key;
  }
}

void ProcessorAllocator::Unrank(Tier& tier, AddressSpace* as) {
  AddressSpace::AllocState& st = as->alloc_state();
  if (st.ranked) {
    (st.extra ? tier.extra : tier.rest).erase({st.rank_key, as->id()});
    st.ranked = false;
  }
}

void ProcessorAllocator::ApplyTarget(AddressSpace* as, int target) {
  if (as->alloc_state().target != target) {
    as->alloc_state().target = target;
    RefreshDerived(as);
  }
}

void ProcessorAllocator::RefreshDerived(AddressSpace* as) {
  AddressSpace::AllocState& st = as->alloc_state();
  if (!st.registered) {
    return;
  }
  // Entitlement, not raw holdings: a lender's loaned-out processors still
  // count toward it (it must not look needy for capacity it chose to lend)
  // and a borrower's borrowed ones never do (it must not look satisfied by
  // capacity it can lose at any instant).  Identical to assigned().size()
  // with lending off.
  const int assigned = Entitled(as);
  const int deficit = st.target - assigned;
  if (st.in_heap && (deficit <= 0 || deficit != st.heap_deficit)) {
    deficit_heap_.erase({-as->priority(), -st.heap_deficit, as->id()});
    st.in_heap = false;
  }
  if (deficit > 0 && !st.in_heap) {
    deficit_heap_.insert({-as->priority(), -deficit, as->id()});
    st.in_heap = true;
    st.heap_deficit = deficit;
  }
  const int have = assigned - st.pending_revokes;
  const bool in_surplus = have > st.target;
  if (in_surplus != st.in_surplus) {
    if (in_surplus) {
      surplus_.Insert(as->id());
    } else {
      surplus_.Erase(as->id());
    }
    st.in_surplus = in_surplus;
  }
  const bool needy = have < st.target;
  if (needy != st.needy) {
    needy_ += needy ? 1 : -1;
    st.needy = needy;
  }
}

void ProcessorAllocator::NotePendingDelta(AddressSpace* as, int delta) {
  as->alloc_state().pending_revokes += delta;
  RefreshDerived(as);
}

void ProcessorAllocator::OnAssignedChanged(AddressSpace* as, hw::Processor* proc,
                                           int delta) {
  AddressSpace::AllocState& st = as->alloc_state();
  const hw::Topology& topo = kernel_->machine()->topology();
  if (st.socket_held.empty()) {
    st.socket_held.assign(static_cast<size_t>(topo.num_sockets()), 0);
  }
  st.socket_held[static_cast<size_t>(topo.SocketOf(proc->id()))] += delta;
  if (st.registered) {
    if (delta > 0 && as->assigned().size() == 1) {
      holders_.Insert(as->id());
    } else if (delta < 0 && as->assigned().empty()) {
      holders_.Erase(as->id());
    }
    if (st.ranked && affinity()) {
      MarkChanged(TierOf(as), as);  // its rank key (-holdings, id) moved
    }
  }
  RefreshDerived(as);
}

// ---------------------------------------------------------------------------
// Rebalancing.
// ---------------------------------------------------------------------------

void ProcessorAllocator::Rebalance() {
  SyncDemands();
  RebalanceInternal();
}

void ProcessorAllocator::RebalanceInternal() {
  if (rebalancing_) {
    rerun_ = true;
    return;
  }
  rebalancing_ = true;
  do {
    rerun_ = false;
    RefreshTargets();
    // Revocation pass: spaces above target give up processors, but only if
    // some other space will use them.  Targets stay fixed for the pass
    // (demand changes re-enter via rerun_), so walking a snapshot of the
    // surplus index in id order visits exactly the spaces a full scan
    // would revoke from.
    if (needy_ > 0 && !surplus_.empty()) {
      surplus_.CopyTo(&surplus_snapshot_);
      for (int id : surplus_snapshot_) {
        AddressSpace* as = SpaceById(id);
        if (IsRegistered(as)) {  // a teardown may finish under a revocation
          RevokeSurplus(as, as->alloc_state().target);
        }
      }
    }
    GrantFreeProcessors();
    if (lending_enabled()) {
      LendSurplus();
    }
  } while (rerun_);
  rebalancing_ = false;
}

void ProcessorAllocator::RevokeSurplus(AddressSpace* as, int target) {
  SA_DCHECK(rebalancing_);  // so revocation_order_ is not refilled under us
  int surplus = Entitled(as) - as->alloc_state().pending_revokes - target;
  if (surplus <= 0) {
    return;
  }
  // A lender above target sheds loans first: adoption transfers ownership
  // to the borrower with no processor motion, so Section 4.1 reclaims the
  // lender's paper capacity without a preemption.  Loans mid-reclaim are
  // skipped — their in-flight completion would strand an adopted processor.
  for (Loan* pick; surplus > 0 && (pick = NewestLoanOf(as)) != nullptr; --surplus) {
    AdoptLoan(*pick);
  }
  if (surplus <= 0) {
    return;
  }
  const std::vector<hw::Processor*>& candidates = RevocationOrder(as);
  // Pass 1: idle-in-kernel processors reclaim immediately and displace
  // nothing; take those first regardless of recency, so a surplus never
  // preempts a running thread while a sibling processor sits idle.  A
  // processor with anything in flight (pending action, latched interrupt)
  // is not quiescent and falls through to the preemption pass.  Borrowed
  // processors leave only through the loan protocol, never through here.
  for (hw::Processor* proc : candidates) {
    if (surplus == 0) {
      break;
    }
    if (!IsOnLoan(proc) && kernel_->IdleInKernel(proc)) {
      Revoke(as, proc);
      --surplus;
    }
  }
  // Pass 2: preempt busy processors in revocation order for what remains.
  for (hw::Processor* proc : candidates) {
    if (surplus == 0) {
      break;
    }
    if (IsOnLoan(proc) || kernel_->IdleInKernel(proc)) {
      continue;  // idle ones were reclaimed above (or already detached)
    }
    if (Revoke(as, proc)) {
      --surplus;
    }
  }
}

bool ProcessorAllocator::Revoke(AddressSpace* as, hw::Processor* proc) {
  if (kernel_->IdleInKernel(proc)) {
    kernel_->DetachAndNotify(proc, /*stopped=*/nullptr);
    Pool(proc);
    return true;
  }
  PendingAction action;
  action.kind = PendingAction::Kind::kRevoke;
  if (!kernel_->RequestPreemption(proc, action)) {
    return false;
  }
  NotePendingDelta(as, +1);
  return true;
}

void ProcessorAllocator::GrantFreeProcessors() {
  while (!free_.empty()) {
    // Demand may have changed synchronously under a grant's upcall (e.g. a
    // kernel-thread dispatch raising runnable count), and under affinity
    // every grant moves holdings; dirty tiers refresh here, per grant.
    RefreshTargets();
    if (deficit_heap_.empty()) {
      return;  // idle processors stay in the free pool
    }
    AddressSpace* best = SpaceById(std::get<2>(*deficit_heap_.begin()));
    // Affinity: a space tied with `best` on priority and deficit has an
    // equal claim, so if a pooled processor's last owner is among the tied
    // spaces, hand it straight back (most recently freed first) — the
    // common case after a revocation burst, where each robbed space is owed
    // exactly one processor and the id tie-break would shuffle them.
    const AddressSpace::AllocState& top = best->alloc_state();
    Slot* warm = nullptr;
    AddressSpace* to = best;
    for (Slot* p = affinity() ? free_.Back() : nullptr; p != nullptr; p = free_.Prev(p)) {
      if (p->last_owner < 0) {
        continue;
      }
      AddressSpace* owner = SpaceById(p->last_owner);
      const AddressSpace::AllocState& st = owner->alloc_state();
      if (st.in_heap && st.heap_deficit == top.heap_deficit &&
          owner->priority() == best->priority()) {
        warm = p;
        to = owner;
        break;
      }
    }
    if (warm != nullptr) {
      free_.Remove(warm);
    }
    Grant(warm != nullptr ? warm->proc : PickFreeProcessor(best), to);
  }
}

hw::Processor* ProcessorAllocator::PickFreeProcessor(const AddressSpace* as) {
  SA_CHECK(!free_.empty());
  Slot* pick = free_.Back();  // default policy: most recently freed
  if (affinity()) {
    const hw::Topology& topo = kernel_->machine()->topology();
    const auto& held = as->alloc_state().socket_held;
    // Warm (last owner is this space) dominates; then a socket the space
    // already occupies.  `>=` so ties go to the most recently freed,
    // matching the default policy's choice.
    int best_score = -1;
    for (Slot* p : free_) {
      int score = 0;
      if (p->last_owner == as->id()) {
        score += 2;
      }
      if (!held.empty() && held[static_cast<size_t>(topo.SocketOf(p->proc->id()))] > 0) {
        score += 1;
      }
      if (score >= best_score) {
        best_score = score;
        pick = p;
      }
    }
  }
  free_.Remove(pick);
  return pick->proc;
}

const std::vector<hw::Processor*>& ProcessorAllocator::RevocationOrder(
    const AddressSpace* as) {
  // Most recently granted first: long-held (warm) processors stay with
  // their space longest.
  std::vector<hw::Processor*>& order = revocation_order_;
  order.assign(as->assigned().rbegin(), as->assigned().rend());
  const hw::Topology& topo = kernel_->machine()->topology();
  if (!affinity() || !topo.hierarchical()) {
    return order;
  }
  // Give up stragglers first — processors in sockets where the space holds
  // the fewest — so what remains is socket-compact.  Stable, so recency
  // still decides within a socket-population class.
  const std::vector<int>& held = as->alloc_state().socket_held;
  std::stable_sort(order.begin(), order.end(),
                   [&](const hw::Processor* a, const hw::Processor* b) {
                     return held[static_cast<size_t>(topo.SocketOf(a->id()))] <
                            held[static_cast<size_t>(topo.SocketOf(b->id()))];
                   });
  return order;
}

void ProcessorAllocator::Grant(hw::Processor* proc, AddressSpace* as) {
  Slot& slot = SlotOf(proc);
  SA_CHECK_MSG(slot.holder == nullptr && !slot.free_node.linked(),
               "granting a processor that is held or still pooled");
  const int prev_owner = slot.last_owner;
  const bool warm = prev_owner == as->id();
  SpaceAllocStats& st = as->alloc_state().stats;
  if (warm) {
    ++st.warm_grants;
  } else {
    ++st.cold_grants;
  }
  const hw::Topology& topo = kernel_->machine()->topology();
  if (topo.hierarchical()) {
    const auto socket = static_cast<uint64_t>(topo.SocketOf(proc->id()));
    if (warm) {
      kernel_->engine().TraceEmit(trace::cat::kLocality, trace::Kind::kLocWarmGrant,
                                  proc->id(), as->id(), socket, 0);
    } else {
      const uint64_t prev_arg =
          prev_owner < 0 ? 0 : static_cast<uint64_t>(prev_owner) + 1;
      kernel_->engine().TraceEmit(trace::cat::kLocality, trace::Kind::kLocColdGrant,
                                  proc->id(), as->id(), socket, prev_arg);
    }
  }
  slot.last_owner = as->id();
  slot.holder = as;
  as->AddAssigned(proc);
  kernel_->engine().TraceEmit(trace::cat::kAlloc, trace::Kind::kProcGrant, proc->id(),
                              as->id(), static_cast<uint64_t>(as->assigned().size()));
  OnAssignedChanged(as, proc, +1);
  if (as->mode() == AsMode::kSchedulerActivations) {
    as->sa()->OnProcessorGranted(proc);
  } else {
    kernel_->DispatchOn(proc);
  }
}

void ProcessorAllocator::Unassign(hw::Processor* proc) {
  Slot& slot = SlotOf(proc);
  AddressSpace* as = slot.holder;
  SA_CHECK_MSG(as != nullptr, "unassigning a processor nobody holds");
  as->RemoveAssigned(proc);
  slot.holder = nullptr;
  kernel_->engine().TraceEmit(trace::cat::kAlloc, trace::Kind::kProcRevoke, proc->id(),
                              as->id(), static_cast<uint64_t>(as->assigned().size()));
  OnAssignedChanged(as, proc, -1);
}

void ProcessorAllocator::Pool(hw::Processor* proc) {
  Slot& slot = SlotOf(proc);
  SA_CHECK_MSG(slot.holder == nullptr, "pooling a processor that is held");
  free_.PushBack(&slot);
}

std::string ProcessorAllocator::CheckConservation() const {
  std::string err;
  auto flag = [&err](const hw::Processor* proc, const std::string& what) {
    err += "processor " + std::to_string(proc->id()) + " " + what + "; ";
  };
  const auto& spaces = kernel_->spaces();
  std::vector<int> lent(spaces.size(), 0);
  std::vector<int> borrowed(spaces.size(), 0);
  size_t held = 0;
  for (const Slot& slot : slots_) {
    const hw::Processor* proc = slot.proc;
    const bool pooled = slot.free_node.linked();
    if (slot.holder != nullptr) {
      ++held;
      const std::vector<hw::Processor*>& list = slot.holder->assigned();
      if (pooled || std::count(list.begin(), list.end(), proc) != 1) {
        flag(proc, "held by as " + std::to_string(slot.holder->id()) +
                       " but pooled or not listed once by it");
      }
    } else if (!pooled && !proc->has_span() && !kernel_->HasPendingAction(proc)) {
      flag(proc, "is neither pooled, held, nor detaching");
    }
    if (slot.loan.open()) {
      ++lent[static_cast<size_t>(slot.loan.lender->id())];
      ++borrowed[static_cast<size_t>(slot.loan.borrower->id())];
      if (slot.holder != slot.loan.borrower) {
        flag(proc, "is on loan but not held by its borrower");
      }
    }
  }
  // Each held processor is listed by its holder; no space lists another.
  size_t listed = 0;
  for (const auto& as : spaces) {
    listed += as->assigned().size();
    const AddressSpace::LoanState& ls = as->loan_state();
    const auto i = static_cast<size_t>(as->id());
    if (ls.loaned_out != lent[i] || ls.borrowed_in != borrowed[i]) {
      err += "as " + std::to_string(as->id()) + " counts " +
             std::to_string(ls.loaned_out) + " lent and " +
             std::to_string(ls.borrowed_in) + " borrowed, the ledger " +
             std::to_string(lent[i]) + " and " + std::to_string(borrowed[i]) + "; ";
    }
  }
  if (listed != held) {
    err += "spaces list " + std::to_string(listed) + " processors but " +
           std::to_string(held) + " are held; ";
  }
  return err;
}

int ProcessorAllocator::InjectRevocations(int burst, common::Rng& rng) {
  ++decisions_;
  // Candidates are owned processors only: a free-pool processor has no
  // revocation protocol to exercise (and pushing it to free_ again would
  // corrupt the pool).  Holder spaces iterate in id order — the registration
  // order the original implementation walked, minus spaces whose empty
  // holdings contributed nothing — so seeded storms are reproducible and a
  // storm costs O(processors), not O(spaces).
  std::vector<std::pair<AddressSpace*, hw::Processor*>>& owned = storm_candidates_;
  owned.clear();
  holders_.ForEach([&](int id) {
    AddressSpace* as = SpaceById(id);
    for (hw::Processor* proc : as->assigned()) {
      if (IsOnLoan(proc)) {
        continue;  // loans churn only through the loan protocol
      }
      owned.emplace_back(as, proc);
    }
  });
  int revoked = 0;
  for (int i = 0; i < burst && !owned.empty(); ++i) {
    const size_t pick = static_cast<size_t>(rng.Below(owned.size()));
    auto [as, proc] = owned[pick];
    owned.erase(owned.begin() + static_cast<ptrdiff_t>(pick));
    if (Revoke(as, proc)) {
      ++revoked;
    }
  }
  if (revoked > 0) {
    // The freed/soon-free processors re-enter allocation through the normal
    // path — the churn the storm is meant to exercise.
    RebalanceInternal();
  }
  return revoked;
}

void ProcessorAllocator::ReleaseSpace(AddressSpace* as) {
  ++decisions_;
  AddressSpace::AllocState& st = as->alloc_state();
  SA_CHECK(st.registered);
  as->set_desired_processors(0);
  RecordDemand(as);  // zero demand leaves the tier aggregates
  // Drop out of the decision structures.
  if (st.in_heap) {
    deficit_heap_.erase({-as->priority(), -st.heap_deficit, as->id()});
    st.in_heap = false;
  }
  if (st.in_surplus) {
    surplus_.Erase(as->id());
    st.in_surplus = false;
  }
  if (st.needy) {
    --needy_;
    st.needy = false;
  }
  st.pending_revokes = 0;
  st.target = 0;
  st.heap_deficit = 0;
  st.stats = SpaceAllocStats{};
  // Loans touching the space were settled by ResolveLoansForTeardown (the
  // conservation report checks loaned_out/borrowed_in are zero); wipe the
  // dip machinery and disarm a pending dip window.  Lifetime lend/borrow
  // totals survive for reporting.
  lendable_.Erase(as->id());
  as->loan_state().dip_armed = false;
  as->loan_state().dip_ripe = false;
  kernel_->engine().DisarmTimer(as->loan_state().dip_window);
  // Leave the tier.
  Tier& tier = TierOf(as);
  if (st.pending_refresh) {
    tier.changed.erase(std::find(tier.changed.begin(), tier.changed.end(), as));
    st.pending_refresh = false;
  }
  Unrank(tier, as);  // the next refresh moves the cutoff past the gap
  --tier.members;
  const bool tier_empty = tier.members == 0;
  st.registered = false;
  holders_.Erase(as->id());
  if (tier_empty) {
    tiers_.erase(as->priority());
  }
  RebalanceInternal();
}

void ProcessorAllocator::OnRevokeComplete(AddressSpace* old_as, hw::Processor* proc) {
  if (old_as != nullptr && IsRegistered(old_as) &&
      old_as->alloc_state().pending_revokes > 0) {
    NotePendingDelta(old_as, -1);
  }
  // The rest is a loan reclaim's landing: a processor detaching from a
  // settled loan (borrower-death teardown revocation) goes straight home to
  // its lender, any other to the free pool.
  OnLoanReclaimComplete(proc);
}

// ---------------------------------------------------------------------------
// Cross-space lending (DESIGN.md §16).
//
// All lending state is empty and every hook below is inert unless
// Config::lending: Entitled() collapses to assigned().size(),
// EffectiveDemand() to desired_processors(), and no events, trace records,
// or RNG draws are produced — seeded traces stay byte-identical.
// ---------------------------------------------------------------------------

bool ProcessorAllocator::lending_enabled() const {
  return kernel_->config().lending;
}

int ProcessorAllocator::Entitled(const AddressSpace* as) const {
  const AddressSpace::LoanState& ls = as->loan_state();
  return static_cast<int>(as->assigned().size()) - ls.borrowed_in + ls.loaned_out;
}

int ProcessorAllocator::EffectiveDemand(const AddressSpace* as) const {
  const int desired = as->desired_processors();
  if (!lending_enabled()) {
    return desired;
  }
  const AddressSpace::LoanState& ls = as->loan_state();
  if (ls.loaned_out > 0 || ls.dip_armed || ls.dip_ripe) {
    // The floor keeps Section 4.1 from revoking a dipped lender's surplus
    // out from under the hysteresis window, and keeps a lender's claim to
    // its loaned-out processors alive until the recall lands.
    return std::max(desired, Entitled(as));
  }
  return desired;
}

void ProcessorAllocator::UpdateLoanStateOnDesired(AddressSpace* as) {
  if (!lending_enabled() || !IsRegistered(as) || as->reaped()) {
    return;
  }
  AddressSpace::LoanState& ls = as->loan_state();
  const int desired = as->desired_processors();
  const int assigned = static_cast<int>(as->assigned().size());
  // Demand returned above physical holdings: recall loans first — the
  // instant-reclaim guarantee — before Section 4.1 considers fresh grants.
  if (ls.loaned_out > 0 && desired > assigned) {
    ReclaimLoans(as, std::min(ls.loaned_out, desired - assigned));
  }
  // Dip hysteresis is a kernel-thread-lender device: an SA space parks its
  // idle processors spinning at user level (never idle-in-kernel), so it
  // lends only through the explicit yield-hint downcall.
  if (as->mode() != AsMode::kKernelThreads) {
    return;
  }
  if (desired >= Entitled(as)) {
    ls.dip_armed = false;
    ls.dip_ripe = false;
    kernel_->engine().DisarmTimer(ls.dip_window);
    lendable_.Erase(as->id());
    return;
  }
  if (!ls.dip_armed && !ls.dip_ripe) {
    ls.dip_armed = true;
    kernel_->engine().ArmTimer(ls.dip_window, kernel_->engine().now() + kDipHysteresis);
  }
}

void ProcessorAllocator::OnDipDeadline(AddressSpace* as) {
  if (!lending_enabled() || !IsRegistered(as) || as->reaped()) {
    return;
  }
  AddressSpace::LoanState& ls = as->loan_state();
  SA_DCHECK(ls.dip_armed);  // clearing the flag disarms the window
  ls.dip_armed = false;
  ls.dip_ripe = true;
  lendable_.Insert(as->id());
  RebalanceInternal();  // the lend pass runs in the rebalance tail
}

void ProcessorAllocator::LendSurplus() {
  if (lendable_.empty()) {
    return;
  }
  lendable_.CopyTo(&lend_snapshot_);
  for (int id : lend_snapshot_) {
    AddressSpace* lender = SpaceById(id);
    if (!IsRegistered(lender) || !lender->loan_state().dip_ripe || lender->reaped()) {
      continue;
    }
    int surplus = Entitled(lender) - lender->desired_processors();
    // Most recently granted first, mirroring the revocation order.  Only
    // quiescent, owned processors travel: the borrower must get a grant it
    // can use immediately, and the loan must displace nothing.
    const std::vector<hw::Processor*> order(lender->assigned().rbegin(),
                                            lender->assigned().rend());
    for (hw::Processor* proc : order) {
      if (surplus <= 0) {
        break;
      }
      if (IsOnLoan(proc) || !kernel_->IdleInKernel(proc)) {
        continue;
      }
      AddressSpace* borrower = PickBorrower(lender);
      if (borrower == nullptr) {
        break;
      }
      ++decisions_;
      OpenLoan(proc, lender, borrower, /*stopped=*/nullptr);
      --surplus;
    }
  }
}

AddressSpace* ProcessorAllocator::PickBorrower(const AddressSpace* lender) {
  AddressSpace* best = nullptr;
  int best_unmet = 0;
  for (const auto& owned : kernel_->spaces()) {
    AddressSpace* as = owned.get();
    if (!IsRegistered(as) || as == lender || as->reaped()) {
      continue;
    }
    const AddressSpace::LoanState& ls = as->loan_state();
    if (ls.loaned_out > 0 || ls.dip_armed || ls.dip_ripe) {
      continue;  // lenders don't borrow; a loan never chains
    }
    const int unmet =
        as->desired_processors() - static_cast<int>(as->assigned().size());
    if (unmet <= 0) {
      continue;
    }
    if (best == nullptr || as->priority() > best->priority() ||
        (as->priority() == best->priority() && unmet > best_unmet)) {
      best = as;
      best_unmet = unmet;
    }
  }
  return best;
}

void ProcessorAllocator::OpenLoan(hw::Processor* proc, AddressSpace* lender,
                                  AddressSpace* borrower, KThread* stopped) {
  Loan& loan = SlotOf(proc).loan;
  SA_CHECK(!loan.open());  // at most one loan per processor
  loan.proc = proc;
  loan.lender = lender;
  loan.borrower = borrower;
  loan.epoch = ++loan_epoch_;
  lender->loan_state().loaned_out += 1;
  borrower->loan_state().borrowed_in += 1;
  ++lender->loan_state().lends;
  ++borrower->loan_state().borrows;
  ++kernel_->counters().loans_granted;
  kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanGrant,
                              proc->id(), lender->id(), loan.epoch,
                              static_cast<uint64_t>(borrower->id()));
  // With the ledger open first, Entitled() on both sides is invariant
  // across the two physical transitions below (loaned_out/borrowed_in
  // offset the assigned() moves), so the deficit/surplus indexes see no
  // transient spike.
  kernel_->DetachAndNotify(proc, stopped);
  Grant(proc, borrower);
  RecordDemand(lender);  // the effective-demand floor may have engaged
  RefreshDerived(lender);
}

bool ProcessorAllocator::WantsLoanFrom(AddressSpace* lender) {
  return lending_enabled() && PickBorrower(lender) != nullptr;
}

void ProcessorAllocator::LendYieldedProcessor(AddressSpace* lender,
                                              hw::Processor* proc, KThread* caller) {
  SA_CHECK(lending_enabled());
  ++decisions_;
  caller->set_state(KThreadState::kStopped);
  kernel_->ClearRunning(proc);
  if (const Loan& loan = SlotOf(proc).loan; loan.open()) {
    // The space hinting here is the *borrower* of an existing loan: loans
    // never chain, so the hint closes the loan instead — a zero-cost return
    // for the original lender (counted as a fast reclaim when one was in
    // flight).
    SA_CHECK(loan.borrower == lender);
    ReturnLoanNow(loan, caller);
  } else if (AddressSpace* borrower = PickBorrower(lender); borrower != nullptr) {
    OpenLoan(proc, lender, borrower, caller);
  } else {
    // The taker vanished between the hint and the downcall charge: detach
    // and pool the processor; the rebalance re-grants it if anyone wants it.
    kernel_->DetachAndNotify(proc, caller);
    Pool(proc);
  }
  RebalanceInternal();
}

void ProcessorAllocator::RecallExcessLoans(AddressSpace* lender) {
  if (!lending_enabled() || !IsRegistered(lender) || lender->reaped()) {
    return;
  }
  const int assigned = static_cast<int>(lender->assigned().size());
  if (lender->desired_processors() > assigned &&
      lender->loan_state().loaned_out > 0) {
    ReclaimLoans(lender, std::min(lender->loan_state().loaned_out,
                                  lender->desired_processors() - assigned));
  }
}

int ProcessorAllocator::loans_outstanding() const {
  return static_cast<int>(std::count_if(slots_.begin(), slots_.end(),
                                        [](const Slot& slot) { return slot.loan.open(); }));
}

ProcessorAllocator::Loan* ProcessorAllocator::NewestLoanOf(const AddressSpace* lender) {
  // RevokeSurplus asks on every surplus revocation, lending on or off: a
  // space with nothing lent skips the walk over every slot.
  if (lender->loan_state().loaned_out == 0) {
    return nullptr;
  }
  Loan* pick = nullptr;
  for (Slot& slot : slots_) {
    Loan& loan = slot.loan;
    if (loan.lender == lender && !loan.reclaiming &&
        (pick == nullptr || loan.epoch > pick->epoch)) {
      pick = &loan;
    }
  }
  return pick;
}

void ProcessorAllocator::ReclaimLoans(AddressSpace* lender, int k) {
  for (int i = 0; i < k; ++i) {
    Loan* loan = NewestLoanOf(lender);
    if (loan == nullptr) {
      return;
    }
    ++decisions_;
    loan->reclaiming = true;
    loan->reclaim_issued_at = kernel_->engine().now();
    ++lender->loan_state().reclaims;
    kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanReclaimIssue,
                                loan->proc->id(), lender->id(), loan->epoch, 0);
    // Instant-reclaim fast path: an idle borrower processor comes back
    // synchronously, with zero recall latency and no preemption at all.
    if (kernel_->IdleInKernel(loan->proc)) {
      ReturnLoanNow(*loan, /*stopped=*/nullptr);
      continue;
    }
    // Busy borrower: a single bounded-latency preemption (no grant-loop
    // renegotiation), optionally held back by the fault injector to
    // exercise the deadline watchdog.
    inject::FaultInjector* injector = kernel_->injector();
    const sim::Duration delay =
        injector != nullptr ? injector->LoanReclaimDelay() : 0;
    if (delay > 0) {
      kernel_->engine().ArmTimer(SlotOf(loan->proc).reclaim_issue,
                                 kernel_->engine().now() + delay);
    } else if (!IssueReclaimIpi(*loan)) {
      continue;
    }
    ArmLoanDeadline(*loan);
  }
}

bool ProcessorAllocator::IssueReclaimIpi(Loan& loan) {
  SA_CHECK(loan.open());
  loan.ipi_sent = true;
  if (kernel_->IdleInKernel(loan.proc)) {
    // The borrower went idle while the issue (or an injected delay) was
    // pending: synchronous completion, no preemption needed.
    ReturnLoanNow(loan, /*stopped=*/nullptr);
    RebalanceInternal();
    return false;
  }
  PendingAction action;
  action.kind = PendingAction::Kind::kLoanReclaim;
  action.loan_epoch = loan.epoch;
  // A false return (slot already latched) is tolerated: the deadline
  // watchdog retries until the loan settles or the borrower is quarantined.
  kernel_->RequestPreemption(loan.proc, action);
  return true;
}

void ProcessorAllocator::OnLoanReclaimPreempted(hw::Processor* proc, uint64_t epoch) {
  Slot& slot = SlotOf(proc);
  if (!slot.loan.open() || slot.loan.epoch != epoch) {
    return;  // settled by adoption/teardown while the interrupt was in flight
  }
  // Settle the ledger at preempt time — before the processor detaches — so
  // the borrower's entitlement never transiently dips below its holdings.
  slot.land_with = slot.loan.lender;
  slot.land_issued_at = slot.loan.reclaim_issued_at;
  CloseLoan(slot.loan, static_cast<int>(trace::LoanReturnReason::kReclaimPreempt));
}

void ProcessorAllocator::OnLoanReclaimComplete(hw::Processor* proc) {
  ++decisions_;
  Slot& slot = SlotOf(proc);
  AddressSpace* lender = std::exchange(slot.land_with, nullptr);
  Land(proc, lender, std::exchange(slot.land_issued_at, -1));
  RebalanceInternal();
}

void ProcessorAllocator::ArmLoanDeadline(Loan& loan) {
  // The deadline doubles per unanswered ping (space_reaper's ladder shape).
  kernel_->engine().ArmTimer(SlotOf(loan.proc).reclaim_deadline,
                             kernel_->engine().now() + (kReclaimDeadline << loan.pings));
}

void ProcessorAllocator::OnLoanDeadline(Loan& loan) {
  SA_CHECK(loan.open());
  ++loan.pings;
  ++kernel_->counters().loan_deadline_pings;
  kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanDeadlinePing,
                              loan.proc->id(), loan.lender->id(), loan.epoch,
                              static_cast<uint64_t>(loan.pings));
  if (loan.pings >= kMaxReclaimPings) {
    // The borrower sat on the reclaim deadline: force-revoke.  Quarantining
    // it through the reaper settles every loan it touches
    // (ResolveLoansForTeardown) and routes this processor home by its
    // landing note when the teardown revocation lands.
    ++kernel_->counters().loans_force_revoked;
    kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanForceRevoke,
                                loan.proc->id(), loan.lender->id(), loan.epoch,
                                static_cast<uint64_t>(loan.borrower->id()));
    kernel_->reaper()->BeginTeardown(loan.borrower, TeardownCause::kHoarded);
    return;
  }
  // The interrupt was actually issued but the preemption slot was taken;
  // retry.  (While an injected delay still holds the issue back, pings
  // escalate without re-issuing — that is what makes force-revocation
  // reachable under a reclaim-delay fault.)
  if (loan.ipi_sent && !IssueReclaimIpi(loan)) {
    return;
  }
  ArmLoanDeadline(loan);
}

void ProcessorAllocator::ReturnLoanNow(Loan loan, KThread* stopped) {
  CloseLoan(loan, static_cast<int>(trace::LoanReturnReason::kReclaimFast));
  kernel_->DetachAndNotify(loan.proc, stopped);
  Land(loan.proc, loan.lender, loan.reclaiming ? loan.reclaim_issued_at : -1);
}

void ProcessorAllocator::AdoptLoan(Loan loan) {
  ++decisions_;
  ++kernel_->counters().loans_adopted;
  kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanAdopt,
                              loan.proc->id(), loan.lender->id(), loan.epoch,
                              static_cast<uint64_t>(loan.borrower->id()));
  // Adoption is an ownership transfer, not a return: no kLoanReturn record,
  // no processor motion — the borrower's entitlement absorbs the processor
  // it already holds.
  CloseLoan(loan, /*reason=*/-1);
  rerun_ = true;  // entitlements moved; re-derive targets if mid-rebalance
}

void ProcessorAllocator::CloseLoan(Loan loan, int reason) {
  Slot& slot = SlotOf(loan.proc);
  SA_CHECK(slot.loan.open() && slot.loan.epoch == loan.epoch);
  slot.loan = Loan{};
  kernel_->engine().DisarmTimer(slot.reclaim_issue);
  kernel_->engine().DisarmTimer(slot.reclaim_deadline);
  AddressSpace* lender = loan.lender;
  AddressSpace* borrower = loan.borrower;
  SA_CHECK(lender->loan_state().loaned_out > 0);
  SA_CHECK(borrower->loan_state().borrowed_in > 0);
  --lender->loan_state().loaned_out;
  --borrower->loan_state().borrowed_in;
  if (reason >= 0) {
    kernel_->engine().TraceEmit(trace::cat::kLending, trace::Kind::kLoanReturn,
                                loan.proc->id(), lender->id(), loan.epoch,
                                static_cast<uint64_t>(reason));
    if (loan.reclaiming) {
      ++kernel_->counters().loans_reclaimed;
      if (reason == static_cast<int>(trace::LoanReturnReason::kReclaimFast)) {
        ++kernel_->counters().loans_reclaimed_fast;
      }
    }
  }
  if (IsRegistered(lender)) {
    RecordDemand(lender);
    RefreshDerived(lender);
  }
  if (IsRegistered(borrower)) {
    RecordDemand(borrower);
    RefreshDerived(borrower);
  }
}

void ProcessorAllocator::Land(hw::Processor* proc, AddressSpace* lender,
                              sim::Time issued_at) {
  if (issued_at >= 0) {
    reclaim_latency_.Add(kernel_->engine().now() - issued_at);
  }
  if (lender != nullptr && IsRegistered(lender) && !lender->reaped()) {
    Grant(proc, lender);
  } else {
    Pool(proc);
  }
}

void ProcessorAllocator::ResolveLoansForTeardown(AddressSpace* as) {
  if (loans_outstanding() == 0) {
    return;
  }
  ++decisions_;
  std::vector<Loan> lender_side;
  std::vector<Loan> borrower_side;
  for (const Slot& slot : slots_) {
    if (slot.loan.lender == as) {
      lender_side.push_back(slot.loan);
    } else if (slot.loan.open() && slot.loan.borrower == as) {
      borrower_side.push_back(slot.loan);
    }
  }
  // Lender death: each loan becomes the borrower's outright — adoption, no
  // processor motion, machine-wide conservation intact.
  for (const Loan& loan : lender_side) {
    AdoptLoan(loan);
  }
  // Borrower death: the processor comes home.  The reaper's teardown sweep
  // revokes every assigned processor; the landing note reroutes these from
  // the free pool back to their lenders when those revocations land.
  for (const Loan& loan : borrower_side) {
    CloseLoan(loan, static_cast<int>(trace::LoanReturnReason::kBorrowerDeath));
    Slot& slot = SlotOf(loan.proc);
    slot.land_with = loan.lender;
    slot.land_issued_at = loan.reclaiming ? loan.reclaim_issued_at : -1;
  }
}

}  // namespace sa::kern
