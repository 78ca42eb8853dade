// Run reports: processor-time breakdown and kernel/user-level activity for
// a finished harness run, rendered as an ASCII table (examples) or consumed
// programmatically (tests, benches).

#ifndef SA_RT_REPORT_H_
#define SA_RT_REPORT_H_

#include <string>
#include <vector>

#include "src/kern/space_reaper.h"
#include "src/rt/harness.h"
#include "src/trace/histogram.h"

namespace sa::rt {

// Per-tenant SLO accounting for traffic-driven runs (src/traffic/): request
// sojourn latency (arrival → completion, queueing included) against the
// tenant's latency objective at a target quantile.
struct TenantSloRow {
  std::string name;
  int tier = 0;  // priority tier (higher = more important)
  int64_t arrivals = 0;
  int64_t completions = 0;
  int64_t unserved = 0;  // arrived, never finished (censored at run end)
  // Sojourn-latency summary (ns).  Quantiles are interpolated from the
  // tenant's log-2 histogram; mean_saturated marks a mean computed from a
  // saturated sum (a lower bound, not an average).
  int64_t p50 = 0;
  int64_t p99 = 0;
  int64_t p999 = 0;
  int64_t mean = 0;
  int64_t max = 0;
  bool mean_saturated = false;
  // The objective and the verdict.  violation_fraction counts completions
  // over the latency bound plus censored requests already past the bound at
  // run end, over all arrivals.
  sim::Duration slo_latency = 0;
  double slo_quantile = 0.999;
  double violation_fraction = 0.0;
  bool slo_met = true;
};

struct RunReport {
  sim::Time elapsed = 0;
  // Machine-wide time per processor mode (ns).
  sim::Duration user = 0;
  sim::Duration mgmt = 0;
  sim::Duration kernel = 0;
  sim::Duration spin = 0;       // lock spin-waiting
  sim::Duration idle_spin = 0;  // user-level scheduler idle loops
  sim::Duration idle = 0;       // kernel idle (no context at all)
  kern::KernelCounters counters;
  // Virtual-time latency from a scheduling event entering an address
  // space's upcall queue to its delivery in a fresh activation (ns).
  trace::LatencyHistogram upcall_latency;
  // Robustness counters (DESIGN.md §11); populated when the harness ran
  // with fault injection enabled.
  bool inject_active = false;
  inject::InjectStats inject;
  // Cross-space lending (DESIGN.md §16); populated when the run was
  // configured with Config::lending (counter totals live in `counters`;
  // these add the recall-latency distribution and the per-space breakdown).
  bool lending_active = false;
  // Reclaim-issue -> processor-home latency (ns); 0 entries are fast-path
  // recalls of idle borrower processors.
  trace::LatencyHistogram reclaim_latency;
  struct LendingSpaceRow {
    std::string name;
    int as_id = 0;
    int64_t lends = 0;     // loans granted as lender
    int64_t borrows = 0;   // loans received as borrower
    int64_t reclaims = 0;  // recalls issued when demand returned
  };
  // Spaces that touched the loan ledger, in creation order.
  std::vector<LendingSpaceRow> lending_spaces;
  // Address-space teardown totals and per-space post-mortems (DESIGN.md
  // §12); empty unless lifecycle faults fired.
  kern::ReaperStats reaper;
  std::vector<kern::TeardownRecord> teardowns;
  // Machine topology (DESIGN.md §13).  Migration/steal-distance counters
  // live in `counters`; these identify the shape they were measured on.
  bool hierarchical = false;
  int sockets = 1;
  // Per-tenant SLO breakdown, filled by a traffic generator's report hook
  // (empty when no generator drove the run).
  bool traffic_active = false;
  std::vector<TenantSloRow> tenants;

  // ASCII breakdown table of `tenants` plus a per-tier rollup; empty string
  // when traffic was not active.
  std::string TenantTable() const;

  // Fraction of machine time spent running application code.
  double UserUtilization() const;
  // Fraction wasted (lock spin + idle spin + kernel idle).
  double WastedFraction() const;

  std::string ToString() const;
};

// Snapshot of `harness` (flushes processor accounting).
RunReport MakeReport(Harness& harness);

}  // namespace sa::rt

#endif  // SA_RT_REPORT_H_
