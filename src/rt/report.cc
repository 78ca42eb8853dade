#include "src/rt/report.h"

#include <algorithm>

#include "src/common/table.h"
#include "src/kern/proc_alloc.h"

namespace sa::rt {

namespace {

double Fraction(sim::Duration part, sim::Duration whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

}  // namespace

double RunReport::UserUtilization() const {
  const sim::Duration total = user + mgmt + kernel + spin + idle_spin + idle;
  return Fraction(user, total);
}

double RunReport::WastedFraction() const {
  const sim::Duration total = user + mgmt + kernel + spin + idle_spin + idle;
  return Fraction(spin + idle_spin + idle, total);
}

RunReport MakeReport(Harness& harness) {
  RunReport report;
  report.elapsed = harness.engine().now();
  hw::Machine& m = harness.machine();
  report.user = m.TotalTimeIn(hw::SpanMode::kUser);
  report.mgmt = m.TotalTimeIn(hw::SpanMode::kMgmt);
  report.kernel = m.TotalTimeIn(hw::SpanMode::kKernel);
  report.spin = m.TotalTimeIn(hw::SpanMode::kSpin);
  report.idle_spin = m.TotalTimeIn(hw::SpanMode::kIdleSpin);
  report.idle = m.TotalTimeIn(hw::SpanMode::kIdle);
  report.counters = harness.kernel().counters();
  report.upcall_latency = harness.kernel().upcall_latency();
  if (harness.injector() != nullptr) {
    report.inject_active = true;
    report.inject = harness.injector()->stats();
  }
  if (harness.kernel().config().lending) {
    report.lending_active = true;
    report.reclaim_latency = harness.kernel().allocator()->reclaim_latency();
    for (const auto& as : harness.kernel().spaces()) {
      const kern::AddressSpace::LoanState& ls = as->loan_state();
      if (ls.lends == 0 && ls.borrows == 0) {
        continue;
      }
      report.lending_spaces.push_back(
          {as->name(), as->id(), ls.lends, ls.borrows, ls.reclaims});
    }
  }
  report.reaper = harness.kernel().reaper()->stats();
  report.teardowns = harness.kernel().reaper()->teardowns();
  report.hierarchical = m.topology().hierarchical();
  report.sockets = m.topology().num_sockets();
  for (const auto& hook : harness.report_hooks()) {
    hook(report);
  }
  return report;
}

std::string RunReport::TenantTable() const {
  if (!traffic_active) {
    return "";
  }
  common::Table table({"tenant", "tier", "arrived", "done", "unserved", "p50",
                       "p99", "p999", "mean", "slo", "viol%", "met"});
  // Rollups keyed by tier, in first-seen order (tenants arrive tier-sorted
  // from the generator, so this is descending priority).
  struct TierAgg {
    int tier;
    int64_t arrivals = 0, completions = 0, unserved = 0;
    int64_t worst_p999 = 0;
    int met = 0, total = 0;
  };
  std::vector<TierAgg> tiers;
  for (const TenantSloRow& t : tenants) {
    table.AddRow({t.name, std::to_string(t.tier), std::to_string(t.arrivals),
                  std::to_string(t.completions), std::to_string(t.unserved),
                  sim::FormatDuration(t.p50), sim::FormatDuration(t.p99),
                  sim::FormatDuration(t.p999),
                  sim::FormatDuration(t.mean) +
                      (t.mean_saturated ? " (saturated)" : ""),
                  sim::FormatDuration(t.slo_latency),
                  common::Table::Num(100.0 * t.violation_fraction, 1),
                  t.slo_met ? "yes" : "NO"});
    TierAgg* agg = nullptr;
    for (TierAgg& a : tiers) {
      if (a.tier == t.tier) {
        agg = &a;
        break;
      }
    }
    if (agg == nullptr) {
      tiers.push_back(TierAgg{t.tier});
      agg = &tiers.back();
    }
    agg->arrivals += t.arrivals;
    agg->completions += t.completions;
    agg->unserved += t.unserved;
    agg->worst_p999 = std::max(agg->worst_p999, t.p999);
    agg->met += t.slo_met ? 1 : 0;
    ++agg->total;
  }
  std::string out = table.ToString();
  char buf[256];
  for (const TierAgg& a : tiers) {
    std::snprintf(buf, sizeof(buf),
                  "tier %d: %d/%d tenants met SLO | %lld arrivals, "
                  "%lld completed, %lld unserved | worst p999 %s\n",
                  a.tier, a.met, a.total, static_cast<long long>(a.arrivals),
                  static_cast<long long>(a.completions),
                  static_cast<long long>(a.unserved),
                  sim::FormatDuration(a.worst_p999).c_str());
    out += buf;
  }
  return out;
}

std::string RunReport::ToString() const {
  const sim::Duration total = user + mgmt + kernel + spin + idle_spin + idle;
  common::Table table({"where the processors' time went", "time", "share"});
  auto row = [&](const char* label, sim::Duration d) {
    table.AddRow({label, sim::FormatDuration(d),
                  common::Table::Num(100.0 * Fraction(d, total), 1) + "%"});
  };
  row("application computation", user);
  row("thread management (user level)", mgmt);
  row("kernel (traps, dispatch, upcalls)", kernel);
  row("spinning on locks", spin);
  row("user-level idle loops", idle_spin);
  row("kernel idle", idle);

  std::string out = table.ToString();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\nelapsed %s | kernel events: %lld upcalls (%lld events), "
                "%lld timeslices, %lld preempt irqs, %lld page faults\n",
                sim::FormatDuration(elapsed).c_str(),
                static_cast<long long>(counters.upcalls),
                static_cast<long long>(counters.upcall_events),
                static_cast<long long>(counters.timeslices),
                static_cast<long long>(counters.preempt_interrupts),
                static_cast<long long>(counters.page_faults));
  out += buf;
  if (upcall_latency.count() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "upcall latency (event -> delivery): n=%llu mean %s%s, "
                  "p50 %s, p99 %s, max %s\n",
                  static_cast<unsigned long long>(upcall_latency.count()),
                  sim::FormatDuration(upcall_latency.mean()).c_str(),
                  upcall_latency.saturated() ? " (saturated: lower bound)" : "",
                  sim::FormatDuration(upcall_latency.Quantile(0.5)).c_str(),
                  sim::FormatDuration(upcall_latency.Quantile(0.99)).c_str(),
                  sim::FormatDuration(upcall_latency.max()).c_str());
    out += buf;
  }
  if (inject_active) {
    std::snprintf(buf, sizeof(buf),
                  "faults injected: %lld (%lld io retries, %s backoff, "
                  "%lld failed ops, %lld latency spikes, %lld upcall delays, "
                  "%lld alloc denials, %lld storm revocations, "
                  "%lld degraded-mode transitions)\n",
                  static_cast<long long>(inject.faults_injected),
                  static_cast<long long>(inject.io_retries),
                  sim::FormatDuration(inject.backoff_time).c_str(),
                  static_cast<long long>(inject.failed_ops),
                  static_cast<long long>(inject.latency_spikes),
                  static_cast<long long>(inject.upcall_delays),
                  static_cast<long long>(inject.alloc_denials),
                  static_cast<long long>(inject.storm_revocations),
                  static_cast<long long>(inject.degraded_transitions));
    out += buf;
  }
  if (lending_active) {
    std::snprintf(buf, sizeof(buf),
                  "loans: %lld granted, %lld reclaimed (%lld fast), "
                  "%lld adopted, %lld force-revoked, %lld deadline pings | "
                  "yield hints: %lld taken, %lld declined\n",
                  static_cast<long long>(counters.loans_granted),
                  static_cast<long long>(counters.loans_reclaimed),
                  static_cast<long long>(counters.loans_reclaimed_fast),
                  static_cast<long long>(counters.loans_adopted),
                  static_cast<long long>(counters.loans_force_revoked),
                  static_cast<long long>(counters.loan_deadline_pings),
                  static_cast<long long>(counters.downcalls_yield_hint),
                  static_cast<long long>(counters.yield_hints_declined));
    out += buf;
    if (reclaim_latency.count() > 0) {
      std::snprintf(buf, sizeof(buf),
                    "loan reclaim latency (recall -> home): n=%llu p50 %s, "
                    "p99 %s, p999 %s, max %s\n",
                    static_cast<unsigned long long>(reclaim_latency.count()),
                    sim::FormatDuration(reclaim_latency.Quantile(0.5)).c_str(),
                    sim::FormatDuration(reclaim_latency.Quantile(0.99)).c_str(),
                    sim::FormatDuration(reclaim_latency.Quantile(0.999)).c_str(),
                    sim::FormatDuration(reclaim_latency.max()).c_str());
      out += buf;
    }
    for (const LendingSpaceRow& row : lending_spaces) {
      std::snprintf(buf, sizeof(buf),
                    "  space %d (%s): lent %lld, borrowed %lld, recalled %lld\n",
                    row.as_id, row.name.c_str(),
                    static_cast<long long>(row.lends),
                    static_cast<long long>(row.borrows),
                    static_cast<long long>(row.reclaims));
      out += buf;
    }
  }
  if (hierarchical) {
    std::snprintf(buf, sizeof(buf),
                  "topology: %d sockets | migrations: %lld same-socket, "
                  "%lld cross-socket (%s charged) | ult steals: %lld local, "
                  "%lld remote\n",
                  sockets, static_cast<long long>(counters.migrations_core),
                  static_cast<long long>(counters.migrations_socket),
                  sim::FormatDuration(counters.migration_penalty_time).c_str(),
                  static_cast<long long>(counters.ult_steals_local),
                  static_cast<long long>(counters.ult_steals_remote));
    out += buf;
  }
  if (traffic_active) {
    out += "\n";
    out += TenantTable();
  }
  if (reaper.spaces_reaped > 0) {
    std::snprintf(buf, sizeof(buf),
                  "spaces reaped: %lld (%lld crashed, %lld hung, %lld exited); "
                  "%lld threads and %lld upcalls reclaimed, "
                  "%lld processors returned\n",
                  static_cast<long long>(reaper.spaces_reaped),
                  static_cast<long long>(reaper.crashes),
                  static_cast<long long>(reaper.hangs),
                  static_cast<long long>(reaper.exits),
                  static_cast<long long>(reaper.threads_reclaimed),
                  static_cast<long long>(reaper.upcalls_discarded),
                  static_cast<long long>(reaper.procs_returned));
    out += buf;
    for (const kern::TeardownRecord& td : teardowns) {
      std::snprintf(buf, sizeof(buf), "  space %d (%s): reclaimed in %s\n",
                    td.as_id, kern::TeardownCauseName(td.cause),
                    sim::FormatDuration(td.latency()).c_str());
      out += buf;
    }
  }
  return out;
}

}  // namespace sa::rt
