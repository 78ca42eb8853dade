// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload <tenants|firefly|storms|fibers> --seed <n>
//             --seconds <s> --trace <0|1> [--small] [--out <record.json>]
//
// Untraced (--trace 0): prepares, runs and checks the workload's unit
// repeatedly for the measuring window and reports the end-to-end metrics as
// medians over the units.  Every unit runs in a child process of its own, so
// its peak RSS is measured alone and a crash fails only that unit.  A unit's
// host times are calibrated against the host's speed while it ran
// (calibration.cc).  Traced (--trace 1): alternates untraced and
// traced units and reports the per-layer metrics from the traced ones (host
// rates from the untraced ones), plus direct drives of single layers.  The
// last stdout line is the result object; --out also writes a record with
// host metadata and the runner's spans.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "perfbench/bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: reported by every workload's untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},
    {"wall_s", "s"},
};

// Per-layer metrics: reported by every workload's traced run; 0 where the
// workload does not exercise the layer.
constexpr MetricDef kPerLayer[] = {
    // Workload headline numbers.
    {"hi_p99_ms", "ms"},
    {"served_frac", "frac"},
    {"sa_speedup", "x"},
    {"virt_elapsed_s", "s"},
    {"spawn_join_mops", "Mop/s"},
    {"signal_wait_mops", "Mop/s"},
    {"external_fork_kops", "kop/s"},
    // sim
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.engine_ns_per_event", "ns"},
    // hw
    {"hw.user_frac", "frac"},
    {"hw.mgmt_frac", "frac"},
    {"hw.kernel_frac", "frac"},
    {"hw.spin_frac", "frac"},
    {"hw.idle_frac", "frac"},
    {"hw.migrations_socket", "count"},
    {"hw.migration_penalty_ms", "ms"},
    // kern
    {"kern.dispatches", "count"},
    {"kern.timeslices", "count"},
    {"kern.io_blocks", "count"},
    {"kern.preempt_interrupts", "count"},
    // kern.proc_alloc
    {"alloc.decisions", "count"},
    {"alloc.grants", "count"},
    {"alloc.revokes", "count"},
    {"alloc.ns_per_decision", "ns"},
    {"alloc.warm_grant_frac", "frac"},
    // core
    {"core.upcalls", "count"},
    {"core.upcall_events", "count"},
    {"core.activation_reuse_frac", "frac"},
    {"core.upcall_latency_p50_us", "us"},
    {"core.upcall_latency_p99_us", "us"},
    {"core.cs_recoveries", "count"},
    // ult
    {"ult.forks", "count"},
    {"ult.steals", "count"},
    {"ult.spin_contended_frac", "frac"},
    {"ult.mgmt_ms", "ms"},
    // traffic
    {"traffic.arrivals", "count"},
    {"traffic.completions", "count"},
    {"traffic.hi_p50_ms", "ms"},
    {"traffic.hi_p99_ms", "ms"},
    {"traffic.hi_p999_ms", "ms"},
    {"traffic.mid_p50_ms", "ms"},
    {"traffic.mid_p99_ms", "ms"},
    {"traffic.mid_p999_ms", "ms"},
    {"traffic.low_p50_ms", "ms"},
    {"traffic.low_p99_ms", "ms"},
    {"traffic.low_p999_ms", "ms"},
    // apps
    {"apps.cache_misses", "count"},
    {"apps.tree_build_us", "us"},
    // inject, kern.space_reaper
    {"inject.storm_revocations", "count"},
    {"reaper.spaces_reaped", "count"},
    // fibers
    {"fibers.spawn_ns", "ns"},
    {"fibers.join_ns", "ns"},
    {"fibers.wake_to_run_us_p50", "us"},
    {"fibers.wake_to_run_us_p99", "us"},
    {"fibers.steal_hit_frac", "frac"},
    {"fibers.parks", "count"},
    {"fibers.wakeups", "count"},
    {"fibers.overflow_pops", "count"},
    {"fibers.timeout_rescues", "count"},
    // trace
    {"trace.records", "count"},
    {"trace.dropped", "count"},
    {"trace.overhead_frac", "frac"},
};

// Host-timed headline rates: a traced run reports them from its untraced
// units, where the tracing does not slow them down.
constexpr const char* kHostRates[] = {"spawn_join_mops", "signal_wait_mops",
                                      "external_fork_kops"};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool small = false;
  std::string out;
};

// A span of the runner's own work around a call into the workload.
struct Span {
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the span list, -1 for a unit span
};

// A unit process that has not reported back by then is killed and failed.
constexpr int kUnitTimeoutMs = 100'000;

// What a unit process reports back: the unit, its phase boundaries (host ns:
// prepare, run and finish, start and end each), the set-up and run times it
// measured (calibrated), the calibration factor and its memory high-water
// mark.
struct UnitReport {
  Unit unit;
  int64_t phase_ns[6] = {0, 0, 0, 0, 0, 0};
  double setup_s = 0;
  double wall_s = 0;
  double speed = 1;
  double rss_mb = 0;
};

std::string Serialize(const Unit& u, const UnitReport& r) {
  std::ostringstream out;
  out.precision(17);
  out << "t";
  for (int64_t t : r.phase_ns) {
    out << ' ' << t;
  }
  out << "\ns " << r.setup_s << ' ' << r.wall_s << ' ' << r.speed;
  std::string error = u.error;
  std::replace(error.begin(), error.end(), '\n', ' ');
  out << "\nok " << (u.ok ? 1 : 0) << "\nerror " << error << "\nfp " << u.fingerprint.size();
  for (int64_t v : u.fingerprint) {
    out << ' ' << v;
  }
  for (const auto& [name, value] : u.layer) {
    out << "\nv " << name << ' ' << value;
  }
  out << '\n';
  return out.str();
}

bool Deserialize(const std::string& text, UnitReport* r) {
  std::istringstream in(text);
  std::string line;
  bool complete = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "t") {
      for (int64_t& t : r->phase_ns) {
        fields >> t;
      }
      complete = !fields.fail();
    } else if (tag == "s") {
      fields >> r->setup_s >> r->wall_s >> r->speed;
    } else if (tag == "ok") {
      int ok = 0;
      fields >> ok;
      r->unit.ok = ok == 1;
    } else if (tag == "error") {
      r->unit.error = line.size() > 6 ? line.substr(6) : "";
    } else if (tag == "fp") {
      size_t n = 0;
      fields >> n;
      r->unit.fingerprint.resize(n);
      for (int64_t& v : r->unit.fingerprint) {
        fields >> v;
      }
    } else if (tag == "v") {
      std::string name;
      double value = 0;
      fields >> name >> value;
      r->unit.layer[name] = value;
    }
  }
  return complete;
}

// Runs one unit in a child process, so that its memory high-water mark is
// its own and a unit that crashes or hangs fails instead of ending the run.
UnitReport ForkUnit(Workload* workload, bool traced) {
  UnitReport r;
  int fds[2];
  if (pipe(fds) != 0) {
    r.unit.Fail("pipe failed");
    return r;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(1);
    }
    StartCalibration(workload->deterministic());
    int64_t* t = r.phase_ns;
    int64_t bursts[3];
    t[0] = HostNs();
    bursts[0] = CalibrationNs();
    workload->Prepare(traced);
    t[1] = t[2] = HostNs();
    bursts[1] = CalibrationNs();
    workload->Run();
    t[3] = t[4] = HostNs();
    bursts[2] = CalibrationNs();
    const Unit u = workload->Finish();
    t[5] = HostNs();
    // After Finish, which stops the fiber pool's workers: its bursts must not
    // share a CPU with them.
    r.speed = StopCalibration();
    r.setup_s = static_cast<double>(t[1] - t[0] - (bursts[1] - bursts[0])) * r.speed / 1e9;
    r.wall_s = static_cast<double>(t[3] - t[2] - (bursts[2] - bursts[1])) * r.speed / 1e9;
    const std::string msg = Serialize(u, r);
    for (size_t off = 0; off < msg.size();) {
      const ssize_t n = write(fds[1], msg.data() + off, msg.size() - off);
      if (n <= 0) {
        _exit(1);
      }
      off += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    r.unit.Fail("fork failed");
    return r;
  }
  std::string data;
  bool timed_out = false;
  const int64_t deadline = HostNs() + int64_t{kUnitTimeoutMs} * 1'000'000;
  for (;;) {
    pollfd p{fds[0], POLLIN, 0};
    const int wait_ms = static_cast<int>(std::max<int64_t>(0, (deadline - HostNs()) / 1'000'000));
    if (poll(&p, 1, wait_ms) <= 0) {
      timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    char buf[4096];
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    data.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  r.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (timed_out) {
    r.unit.Fail("unit did not finish within " + std::to_string(kUnitTimeoutMs / 1000) + " s");
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !Deserialize(data, &r)) {
    r.unit.Fail(WIFSIGNALED(status) ? "unit process died of signal " +
                                          std::to_string(WTERMSIG(status))
                                    : "unit process failed to report");
  }
  return r;
}

class Runner {
 public:
  Runner(const Options& options, std::unique_ptr<Workload> workload)
      : options_(options), workload_(std::move(workload)) {}

  // Prepares, runs and checks one unit in its own process.
  UnitReport RunUnit(bool traced) {
    const int64_t start = HostNs();
    UnitReport r = ForkUnit(workload_.get(), traced);
    const int unit = static_cast<int>(spans_.size());
    spans_.push_back(Span{traced ? "unit.traced" : "unit", start, HostNs(), -1});
    const char* phases[3] = {"prepare", "run", "finish"};
    for (int i = 0; i < 3; ++i) {
      spans_.push_back(Span{phases[i], r.phase_ns[2 * i], r.phase_ns[2 * i + 1], unit});
    }
    ++attempted_;
    if (!r.unit.ok) {
      Failed(r.unit.error);
    } else if (!have_fingerprint_) {
      fingerprint_ = r.unit.fingerprint;
      have_fingerprint_ = true;
    } else if (r.unit.fingerprint != fingerprint_) {
      r.unit.ok = false;
      Failed("two runs of the same seed disagree on a virtual result");
    }
    units_.push_back(UnitSummary{traced, r.unit.ok, r.setup_s, r.wall_s, r.speed, r.rss_mb});
    return r;
  }

  // Untraced: the end-to-end metrics.
  Values MeasureEndToEnd() {
    const int64_t deadline = HostNs() + static_cast<int64_t>(options_.seconds * 1e9);
    while (attempted_ < 2 || HostNs() < deadline) {
      RunUnit(false);
    }
    // A failed unit's timings say nothing about the code's cost: use the
    // units that passed, or all of them if none did.
    const bool any_ok = failed_ < attempted_;
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> rss;
    for (const UnitSummary& u : units_) {
      if (u.ok || !any_ok) {
        setups.push_back(u.setup_s);
        walls.push_back(u.wall_s);
        rss.push_back(u.rss_mb);
      }
    }
    Values v;
    v["setup_s"] = Median(setups);
    v["wall_s"] = Median(walls);
    v["peak_rss_mb"] = Median(rss);
    v["ok_frac"] = 1.0 - Ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
    return v;
  }

  // Traced: the per-layer metrics.
  Values MeasureLayers() {
    std::vector<double> plain_walls;
    std::vector<double> traced_walls;
    std::vector<Values> plain_units;
    Values layer;
    const int64_t deadline = HostNs() + static_cast<int64_t>(options_.seconds * 1e9);
    while (traced_walls.empty() || HostNs() < deadline) {
      const UnitReport plain = RunUnit(false);
      plain_units.push_back(plain.unit.layer);
      plain_walls.push_back(plain.wall_s);
      const UnitReport traced = RunUnit(true);
      traced_walls.push_back(traced.wall_s);
      if (traced_walls.size() == 1) {
        layer = traced.unit.layer;
      }
    }
    for (const char* name : kHostRates) {
      std::vector<double> rates;
      for (const Values& u : plain_units) {
        if (u.count(name) != 0) {
          rates.push_back(u.at(name));
        }
      }
      if (!rates.empty()) {
        layer[name] = Median(rates);
      }
    }
    const int64_t probe_start = HostNs();
    workload_->Probe(&layer);
    spans_.push_back(Span{"probe", probe_start, HostNs(), -1});
    const double plain = Median(plain_walls);
    if (layer["sim.events"] > 0) {
      layer["sim.host_ns_per_event"] = plain * 1e9 / layer["sim.events"];
    }
    layer["trace.overhead_frac"] = Ratio(Median(traced_walls), plain) - 1.0;
    return layer;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<Span>& spans() const { return spans_; }

  // One line of the record per unit.
  struct UnitSummary {
    bool traced;
    bool ok;
    double setup_s;
    double wall_s;
    double speed;
    double rss_mb;
  };
  const std::vector<UnitSummary>& units() const { return units_; }

 private:
  void Failed(const std::string& why) {
    ++failed_;
    if (errors_.size() < 8) {
      errors_.push_back(why);
    }
  }

  Options options_;
  std::unique_ptr<Workload> workload_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool have_fingerprint_ = false;
  std::vector<int64_t> fingerprint_;
  std::vector<std::string> errors_;
  std::vector<Span> spans_;
  std::vector<UnitSummary> units_;
};

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "0";  // JSON has no NaN; the run is reported incorrect instead
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The result object: every metric of the table, by name, with its unit.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const Values& values, bool trace) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto add = [&](const MetricDef& m) {
    const auto it = values.find(m.name);
    out += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
           Number(it != values.end() ? it->second : 0.0) + ", \"unit\": \"" + m.unit +
           "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) {
      add(m);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      add(m);
    }
  }
  return out + "}}";
}

double LoadAverage() {
  double load = 0;
  return getloadavg(&load, 1) == 1 ? load : 0.0;
}

std::string HostJson(const Options& o) {
  return std::string("{\"nproc\": ") + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"loadavg_1m\": " + Number(LoadAverage()) + ", \"build_type\": \"" +
         sa::bench::kBuildType + "\", \"compiler\": \"" + Escape(__VERSION__) +
         "\", \"workload\": \"" + o.workload + "\", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + Number(o.seconds) + ", \"trace\": " + std::to_string(o.trace) +
         "}";
}

void WriteRecord(const Options& o, const std::string& result, const Runner& d) {
  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::perror("perfbench: record");
    return;
  }
  std::fprintf(f, "{\n  \"host\": %s,\n  \"result\": %s,\n  \"errors\": [",
               HostJson(o).c_str(), result.c_str());
  for (size_t i = 0; i < d.errors().size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", Escape(d.errors()[i]).c_str());
  }
  std::fprintf(f, "],\n  \"units\": [\n");
  const auto& units = d.units();
  for (size_t i = 0; i < units.size(); ++i) {
    const Runner::UnitSummary& u = units[i];
    std::fprintf(f,
                 "    {\"traced\": %s, \"ok\": %s, \"setup_s\": %s, \"wall_s\": %s, "
                 "\"speed\": %s, \"rss_mb\": %s}%s\n",
                 u.traced ? "true" : "false", u.ok ? "true" : "false",
                 Number(u.setup_s).c_str(), Number(u.wall_s).c_str(), Number(u.speed).c_str(),
                 Number(u.rss_mb).c_str(),
                 i + 1 < units.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"spans\": [\n");
  const std::vector<Span>& spans = d.spans();
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d}%s\n",
                 spans[i].name.c_str(), static_cast<long long>(spans[i].start_ns - t0),
                 static_cast<long long>(spans[i].end_ns - t0), spans[i].parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

bool Parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      o->small = true;
    } else if (arg == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o->trace = std::atoi(argv[++i]);
    } else if (arg == "--out" && has_value) {
      o->out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0 && (o->trace == 0 || o->trace == 1);
}

std::unique_ptr<Workload> Make(const Options& o) {
  if (o.workload == "tenants") {
    return MakeTenants(o.seed, o.small);
  }
  if (o.workload == "firefly") {
    return MakeFirefly(o.seed, o.small);
  }
  if (o.workload == "storms") {
    return MakeStorms(o.seed, o.small);
  }
  if (o.workload == "fibers") {
    return MakeFibers(o.seed, o.small);
  }
  return nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (sa::bench::RefuseDebugRecord("perfbench", argc, argv)) {
    return 2;
  }
  Options options;
  if (!Parse(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <tenants|firefly|storms|fibers> --seed <n> "
                 "--seconds <s> --trace <0|1> [--small] [--out <record.json>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = Make(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::printf("# host %s\n", HostJson(options).c_str());
  Runner runner(options, std::move(workload));
  const Values values =
      options.trace == 1 ? runner.MeasureLayers() : runner.MeasureEndToEnd();
  bool finite = true;
  for (const auto& [name, value] : values) {
    finite = finite && std::isfinite(value);
  }
  for (const std::string& e : runner.errors()) {
    std::printf("# failed: %s\n", e.c_str());
  }
  const bool correct = runner.failed() == 0 && finite;
  const std::string result =
      ResultJson(correct, runner.attempted(), runner.failed(), values, options.trace == 1);
  if (!options.out.empty()) {
    WriteRecord(options, result, runner);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
