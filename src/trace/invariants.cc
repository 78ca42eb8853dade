#include "src/trace/invariants.h"

#include <cinttypes>
#include <cstdio>
#include <map>

namespace sa::trace {
namespace {

// Per-address-space vessel state.
struct VesselState {
  bool has_candidate = false;
  Record candidate;        // last kVessel seen at candidate.ts
  bool candidate_exempt = false;
  int fault_depth = 0;     // nested §3.1 upcall-fault windows
  int64_t fault_ts = -1;   // last ts a fault record touched
  bool quarantined = false;  // teardown began; vessel checks suspended
};

// Address-space lifecycle records (DESIGN.md §12) live in their own kind
// range; anything else attributed to a space after its teardown completed is
// a conservation violation (a kernel reference outlived the reap).
bool IsLifecycleKind(Kind kind) {
  const uint16_t k = static_cast<uint16_t>(kind);
  return k >= static_cast<uint16_t>(Kind::kLifeSpawn) &&
         k <= static_cast<uint16_t>(Kind::kLifeSpawn) + 15;
}

// Records only a live space makes: its user level's (the thread package,
// lazy forks, downcalls, an accepted yield hint) and those a kernel service
// makes for one of its threads (syscalls, ready/block/wake, dispatch, page
// faults, upcall queue and delivery).  From its quarantine on, the kernel
// stops every continuation of the space where its span ends, so none of
// these may follow.
bool IsLiveSpaceKind(Kind kind) {
  const auto in = [kind](Kind lo, Kind hi) { return kind >= lo && kind <= hi; };
  return in(Kind::kSyscall, Kind::kDispatch) || kind == Kind::kPageFault ||
         in(Kind::kUpcallQueued, Kind::kDowncallIdle) ||
         in(Kind::kUltDispatch, Kind::kUltUnbind) || in(Kind::kHbLazyFork, Kind::kHbInline) ||
         kind == Kind::kLoanYieldHint;
}

// When a space's teardown began and completed (-1: not yet).
struct Teardown {
  int64_t began = -1;
  int64_t done = -1;
};

// Per-(space, vcpu) idle interval.
struct IdleState {
  bool idle = false;
  int64_t since = 0;
};

struct SpaceUltState {
  uint64_t runnable = 0;
  int64_t runnable_since = 0;  // when runnable last became > 0
  std::map<uint64_t, IdleState> vcpus;
};

// Open cross-space loan interval, keyed by processor (the ledger key: a
// processor carries at most one open loan).
struct LoanInterval {
  uint64_t epoch = 0;
  int32_t lender = -1;
  int64_t reclaim_ts = -1;  // kLoanReclaimIssue ts; -1 = no recall pending
};

void FlagLoanOverdue(int32_t cpu, const LoanInterval& loan, int64_t end,
                     const char* how, CheckResult* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "loan outlived reclaim deadline: cpu %d lent by as %d "
                "(epoch %" PRIu64 ") reclaimed at t=%" PRId64 " but %s %" PRId64
                "ns later",
                cpu, loan.lender, loan.epoch, loan.reclaim_ts, how,
                end - loan.reclaim_ts);
  out->violations.push_back(buf);
}

void FinalizeVessel(int as_id, VesselState* vs, CheckResult* out) {
  if (!vs->has_candidate) {
    return;
  }
  vs->has_candidate = false;
  ++out->vessel_checks;
  if (vs->candidate_exempt) {
    return;
  }
  if (vs->candidate.arg0 != vs->candidate.arg1) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "vessel invariant violated: as %d at t=%" PRId64
                  ": %" PRIu64 " running activations vs %" PRIu64
                  " assigned processors",
                  as_id, vs->candidate.ts, vs->candidate.arg0, vs->candidate.arg1);
    out->violations.push_back(buf);
  }
}

void FlagIdleWhileReady(int as_id, uint64_t vcpu, int64_t start, int64_t end,
                        const CheckOptions& options, CheckResult* out) {
  const int64_t overlap = end - start;
  if (overlap <= options.idle_ready_threshold) {
    return;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "idle processor while ready work: as %d vcpu %" PRIu64
                " idle-spun %" PRId64 "ns (t=%" PRId64 "..%" PRId64
                ") with runnable threads pending",
                as_id, vcpu, overlap, start, end);
  out->violations.push_back(buf);
}

}  // namespace

std::string CheckResult::Summary() const {
  std::string s;
  for (const auto& v : violations) {
    s += v;
    s += "\n";
  }
  return s;
}

CheckResult CheckInvariants(const std::vector<Record>& records,
                            const CheckOptions& options) {
  CheckResult out;
  std::map<int32_t, VesselState> vessel;
  std::map<int32_t, SpaceUltState> ult;
  std::map<int32_t, Teardown> teardown;
  std::map<int32_t, LoanInterval> loans;  // cpu -> open loan
  std::map<int32_t, int32_t> holder;      // cpu -> space holding it
  std::map<int32_t, uint64_t> holding;    // as_id -> processors it holds

  auto idle_overlap_start = [](const SpaceUltState& s, const IdleState& v) {
    return v.since > s.runnable_since ? v.since : s.runnable_since;
  };

  for (const Record& r : records) {
    const Kind kind = static_cast<Kind>(r.kind);
    if (auto it = teardown.find(r.as_id); it != teardown.end()) {
      const Teardown& td = it->second;
      const bool dead = td.done >= 0;
      if (dead ? !IsLifecycleKind(kind) : IsLiveSpaceKind(kind)) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s-space activity: as %d emitted %s at t=%" PRId64
                      " after its teardown %s at t=%" PRId64,
                      dead ? "dead" : "quarantined", r.as_id, KindName(kind), r.ts,
                      dead ? "completed" : "began", dead ? td.done : td.began);
        out.violations.push_back(buf);
      }
    }
    switch (kind) {
      case Kind::kLifeQuarantine: {
        // Teardown interleaves with every protocol the vessel and idle
        // checks assume; suspend both for this space from here on.
        VesselState& vs = vessel[r.as_id];
        vs.has_candidate = false;
        vs.quarantined = true;
        ult.erase(r.as_id);
        teardown[r.as_id].began = r.ts;
        break;
      }
      case Kind::kLifeTeardownDone: {
        teardown[r.as_id].done = r.ts;
        break;
      }
      case Kind::kLoanGrant: {
        auto [it, inserted] = loans.try_emplace(r.cpu);
        if (!inserted) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "loan double-grant: cpu %d lent by as %d at t=%" PRId64
                        " (epoch %" PRIu64 ") while epoch %" PRIu64
                        " from as %d is still open",
                        r.cpu, r.as_id, r.ts, r.arg0, it->second.epoch,
                        it->second.lender);
          out.violations.push_back(buf);
        }
        it->second = LoanInterval{r.arg0, r.as_id, -1};
        break;
      }
      case Kind::kLoanReclaimIssue: {
        auto it = loans.find(r.cpu);
        if (it == loans.end() || it->second.epoch != r.arg0) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "reclaim of unknown loan: cpu %d as %d epoch %" PRIu64
                        " at t=%" PRId64,
                        r.cpu, r.as_id, r.arg0, r.ts);
          out.violations.push_back(buf);
          break;
        }
        if (it->second.reclaim_ts < 0) {  // retries keep the first deadline
          it->second.reclaim_ts = r.ts;
        }
        break;
      }
      case Kind::kLoanReturn:
      case Kind::kLoanAdopt: {
        auto it = loans.find(r.cpu);
        if (it == loans.end() || it->second.epoch != r.arg0) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "%s of unknown loan: cpu %d as %d epoch %" PRIu64
                        " at t=%" PRId64,
                        kind == Kind::kLoanAdopt ? "adoption" : "return", r.cpu,
                        r.as_id, r.arg0, r.ts);
          out.violations.push_back(buf);
          break;
        }
        ++out.loan_checks;
        if (it->second.reclaim_ts >= 0 &&
            r.ts - it->second.reclaim_ts > options.loan_reclaim_bound) {
          FlagLoanOverdue(r.cpu, it->second, r.ts, "only closed", &out);
        }
        loans.erase(it);
        break;
      }
      case Kind::kProcGrant:
      case Kind::kProcRevoke: {
        ++out.alloc_checks;
        const bool grant = kind == Kind::kProcGrant;
        auto it = holder.find(r.cpu);
        const int32_t held_by = it == holder.end() ? -1 : it->second;
        if (grant ? held_by >= 0 : held_by != r.as_id) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "ownership violated: cpu %d %s as %d at t=%" PRId64
                        " while held by as %d",
                        r.cpu, grant ? "granted to" : "given up by", r.as_id, r.ts,
                        held_by);
          out.violations.push_back(buf);
        }
        uint64_t& count = holding[r.as_id];
        if (grant) {
          holder[r.cpu] = r.as_id;
          ++count;
        } else {
          holder.erase(r.cpu);
          count -= count > 0 ? 1 : 0;
        }
        if (r.arg0 != count) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "holding count violated: as %d records %" PRIu64
                        " processors at t=%" PRId64 " (cpu %d %s) but holds %" PRIu64,
                        r.as_id, r.arg0, r.ts, r.cpu, grant ? "granted" : "revoked",
                        count);
          out.violations.push_back(buf);
          count = r.arg0;  // resynchronise: report each slip once
        }
        break;
      }
      case Kind::kVessel: {
        VesselState& vs = vessel[r.as_id];
        if (vs.quarantined) {
          break;
        }
        if (vs.has_candidate && r.ts > vs.candidate.ts) {
          FinalizeVessel(r.as_id, &vs, &out);
        }
        vs.has_candidate = true;
        vs.candidate = r;
        vs.candidate_exempt = vs.fault_depth > 0 || vs.fault_ts == r.ts;
        break;
      }
      case Kind::kUpcallFaultBegin: {
        VesselState& vs = vessel[r.as_id];
        ++vs.fault_depth;
        vs.fault_ts = r.ts;
        if (vs.has_candidate && vs.candidate.ts == r.ts) {
          vs.candidate_exempt = true;
        }
        break;
      }
      case Kind::kUpcallFaultEnd: {
        VesselState& vs = vessel[r.as_id];
        if (vs.fault_depth > 0) {
          --vs.fault_depth;
        }
        vs.fault_ts = r.ts;
        break;
      }
      case Kind::kUltRunnable:
      case Kind::kUltReady: {
        SpaceUltState& s = ult[r.as_id];
        const uint64_t prev = s.runnable;
        s.runnable = r.arg1;
        if (prev == 0 && s.runnable > 0) {
          s.runnable_since = r.ts;
        } else if (prev > 0 && s.runnable == 0) {
          // Ready work drained: close every open idle-while-ready overlap.
          for (auto& [vcpu, v] : s.vcpus) {
            if (v.idle) {
              FlagIdleWhileReady(r.as_id, vcpu, idle_overlap_start(s, v), r.ts,
                                 options, &out);
            }
          }
        }
        break;
      }
      case Kind::kUltIdle: {
        SpaceUltState& s = ult[r.as_id];
        IdleState& v = s.vcpus[r.arg0];
        v.idle = true;
        v.since = r.ts;
        break;
      }
      // kUltUnbind ends the idle interval too: a vcpu without a processor
      // cannot run work, so time past the unbind is queueing delay for the
      // space's remaining processors, not a lost wakeup.  Overlap *before*
      // the unbind still counts.  kUltCsRecover likewise: an upcall delivery
      // preempts the idle spin (clearing idle_spinning without any trace
      // record) and the vcpu then executes critical-section recovery, so it
      // is running, not idle, from this point on.
      case Kind::kUltIdleWake:
      case Kind::kUltDispatch:
      case Kind::kUltSteal:
      case Kind::kUltCsRecover:
      case Kind::kUltUnbind: {
        SpaceUltState& s = ult[r.as_id];
        const uint64_t vcpu = r.arg0;
        auto it = s.vcpus.find(vcpu);
        if (it != s.vcpus.end() && it->second.idle) {
          if (s.runnable > 0) {
            FlagIdleWhileReady(r.as_id, vcpu,
                               idle_overlap_start(s, it->second), r.ts, options,
                               &out);
          }
          it->second.idle = false;
        }
        break;
      }
      default:
        break;
    }
  }

  // End of trace: finalize pending vessel snapshots and open idle windows.
  for (auto& [as_id, vs] : vessel) {
    FinalizeVessel(as_id, &vs, &out);
  }
  int64_t end_ts = records.empty() ? 0 : records.back().ts;
  // Loans with no recall pending may stay open past the end of the trace;
  // a reclaim-issued loan still open past the bound is a containment breach.
  for (const auto& [cpu, loan] : loans) {
    if (loan.reclaim_ts >= 0 && end_ts - loan.reclaim_ts > options.loan_reclaim_bound) {
      FlagLoanOverdue(cpu, loan, end_ts, "still open at trace end", &out);
    }
  }
  for (auto& [as_id, s] : ult) {
    if (s.runnable == 0) {
      continue;
    }
    for (auto& [vcpu, v] : s.vcpus) {
      if (v.idle) {
        FlagIdleWhileReady(as_id, vcpu, idle_overlap_start(s, v), end_ts,
                           options, &out);
      }
    }
  }
  return out;
}

}  // namespace sa::trace
