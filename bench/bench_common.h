// Shared helpers for bench mains: the debug-build guards, and bench::Record,
// the one writer through which every simulator bench prints its tables and
// records them as JSON.
//
// Benchmarks measured in *virtual* time are insensitive to the build type,
// but anything reporting wall-clock numbers (bench_fibers_native,
// bench_alloc_scale) is meaningless from an unoptimized build — the
// BENCH_fibers_native.json debacle was a debug-build baseline checked in as
// if it were real.  So a debug run is loud on stderr, every record is tagged
// with kBuildType, and a debug build refuses to write a record at all.
//
// perfbench/main.cc includes this header but links no bench/ source, so
// everything here stays inline.

#ifndef SA_BENCH_BENCH_COMMON_H_
#define SA_BENCH_BENCH_COMMON_H_

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/assert.h"
#include "src/common/table.h"

namespace sa::bench {

#ifdef NDEBUG
inline constexpr bool kDebugBuild = false;
inline constexpr const char* kBuildType = "release";
#else
inline constexpr bool kDebugBuild = true;
inline constexpr const char* kBuildType = "debug";
#endif

// Prints a loud stderr warning when the binary was compiled without NDEBUG.
// Returns true iff this is a debug build, so callers can also tag output.
inline bool WarnIfDebugBuild(const char* bench_name) {
  if (kDebugBuild) {
    std::fprintf(stderr,
                 "%s: WARNING: this is a DEBUG build (assertions on, no "
                 "optimization); wall-clock timings are not comparable and "
                 "must not be checked in as a baseline\n",
                 bench_name);
  }
  return kDebugBuild;
}

// The record guard for binaries with their own flags (perfbench,
// bench_fibers_native): a warning is ignorable, a checked-in debug baseline
// is not.  Returns true — and the caller must exit nonzero — when a debug
// build was asked to *record* results: any flag that writes a
// machine-readable file (--benchmark_out=..., or a bespoke --out/--json
// flag).  Plain console runs of a debug build stay allowed; they only warn.
inline bool RefuseDebugRecord(const char* bench_name, int argc,
                              char** argv) {
  if (!kDebugBuild) {
    return false;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--benchmark_out", 15) == 0 ||
        std::strncmp(arg, "--out", 5) == 0 ||
        std::strncmp(arg, "--json", 6) == 0) {
      std::fprintf(stderr,
                   "%s: ERROR: refusing to record results from a DEBUG "
                   "build (%s); rebuild with -DCMAKE_BUILD_TYPE=Release "
                   "before writing a baseline\n",
                   bench_name, arg);
      return true;
    }
  }
  return false;
}

// One column of a bench table.  The name is both the console header and the
// record's key.  Numbers print to the console with `precision` decimals; the
// record keeps them exact (the shortest text that reads back as the same
// double), so a record tells apart runs whose printed tables agree.
struct Column {
  std::string name;
  int precision = 0;
};

// One table cell: a number or a string.
class Value {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  Value(T number) : number_(static_cast<double>(number)), is_number_(true) {}
  Value(const char* text) : text_(text) {}
  Value(std::string text) : text_(std::move(text)) {}

  std::string Console(int precision) const {
    return is_number_ ? common::Table::Num(number_, precision) : text_;
  }
  std::string Json() const {
    if (is_number_) {
      if (!std::isfinite(number_)) {
        return "null";
      }
      char buf[32];
      return std::string(buf, std::to_chars(buf, buf + sizeof(buf), number_).ptr);
    }
    std::string out = "\"";
    for (const char c : text_) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    return out + "\"";
  }

 private:
  double number_ = 0;
  std::string text_;
  bool is_number_ = false;
};

// Whether a bench has a reduced size behind --smoke.
enum class Sizes { kFullOnly, kWithSmoke };

// The bench-record writer.  A bench declares each table once; every row it
// adds is rendered twice from the same values — to the console through
// common::Table, and into the JSON record, where numbers stay JSON numbers.
// The Record also owns the command line (`[out.json]`, plus `--smoke` for a
// bench with a smoke size), the debug guards, the gate checks and the exit
// code.  A record is written only to a path given on the command line,
// under a header naming the bench, build type, size and host (CPU count,
// 1-minute load, compiler — perfbench's field names), the bench's host wall
// time (`wall_s`, construction to Finish) and whether every gate passed.
class Record {
 public:
  class Table {
   public:
    Table(std::string name, std::vector<Column> columns)
        : name_(std::move(name)), columns_(std::move(columns)) {}

    // Adds one row: a value per column.
    void Row(std::vector<Value> values) {
      SA_CHECK_MSG(values.size() == columns_.size(), name_.c_str());
      rows_.push_back(std::move(values));
    }

    // Writes the table to stdout.
    void Print() const {
      std::vector<std::string> header;
      for (const Column& c : columns_) {
        header.push_back(c.name);
      }
      common::Table table(std::move(header));
      for (const std::vector<Value>& row : rows_) {
        std::vector<std::string> cells;
        for (size_t i = 0; i < row.size(); ++i) {
          cells.push_back(row[i].Console(columns_[i].precision));
        }
        table.AddRow(std::move(cells));
      }
      table.Print();
    }

   private:
    friend class Record;
    std::string name_;
    std::vector<Column> columns_;
    std::vector<std::vector<Value>> rows_;
  };

  // Parses the command line.  A debug build given a record path exits 2
  // here, before the bench runs anything; a malformed command line too,
  // including --smoke to a bench without a smoke size.
  Record(const char* bench, int argc, char** argv,
         Sizes sizes = Sizes::kFullOnly)
      : bench_(bench), start_(std::chrono::steady_clock::now()) {
    const std::string binary = "bench_" + bench_;
    const bool has_smoke = sizes == Sizes::kWithSmoke;
    WarnIfDebugBuild(binary.c_str());
    for (int i = 1; i < argc; ++i) {
      if (has_smoke && std::strcmp(argv[i], "--smoke") == 0) {
        smoke_ = true;
      } else if (argv[i][0] != '-' && path_.empty()) {
        path_ = argv[i];
      } else {
        std::fprintf(stderr, "usage: %s %s[out.json]\n", binary.c_str(),
                     has_smoke ? "[--smoke] " : "");
        std::exit(2);
      }
    }
    if (kDebugBuild && !path_.empty()) {
      std::fprintf(stderr,
                   "%s: ERROR: refusing to record results from a DEBUG build "
                   "(%s); rebuild with -DCMAKE_BUILD_TYPE=Release before "
                   "writing a record\n",
                   binary.c_str(), path_.c_str());
      std::exit(2);
    }
  }

  bool smoke() const { return smoke_; }

  // Declares a table; its name is the record's key for the list of rows.
  // The reference stays valid for the Record's lifetime.
  Table& AddTable(std::string name, std::vector<Column> columns) {
    return tables_.emplace_back(std::move(name), std::move(columns));
  }

  // Checks one gate and prints its outcome.
  void Gate(bool pass, const std::string& what) {
    std::printf("%s: %s\n", pass ? "pass" : "FAIL", what.c_str());
    gates_passed_ = gates_passed_ && pass;
  }

  // Writes the record if a path was given.  Returns the exit code: 0 iff
  // every gate passed and the record (if any) was written.
  int Finish() const {
    if (path_.empty()) {
      return gates_passed_ ? 0 : 1;
    }
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::perror(path_.c_str());
      return 1;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    double load = 0;
    if (getloadavg(&load, 1) != 1) {
      load = 0;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"build_type\": \"%s\",\n"
                 "  \"smoke\": %s,\n  \"host\": {\"nproc\": %ld, "
                 "\"loadavg_1m\": %.2f, \"compiler\": %s},\n"
                 "  \"wall_s\": %s,\n  \"gates_passed\": %s",
                 bench_.c_str(), kBuildType, smoke_ ? "true" : "false",
                 sysconf(_SC_NPROCESSORS_ONLN), load,
                 Value(__VERSION__).Json().c_str(), Value(wall_s).Json().c_str(),
                 gates_passed_ ? "true" : "false");
    for (const Table& t : tables_) {
      std::fprintf(f, ",\n  %s: [", Value(t.name_).Json().c_str());
      for (size_t r = 0; r < t.rows_.size(); ++r) {
        std::string row;
        for (size_t i = 0; i < t.columns_.size(); ++i) {
          row += (i == 0 ? "" : ", ") + Value(t.columns_[i].name).Json() + ": " +
                 t.rows_[r][i].Json();
        }
        std::fprintf(f, "%s\n    {%s}", r == 0 ? "" : ",", row.c_str());
      }
      std::fprintf(f, "%s]", t.rows_.empty() ? "" : "\n  ");
    }
    std::fprintf(f, "\n}\n");
    if (std::fclose(f) != 0) {
      std::perror(path_.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path_.c_str());
    return gates_passed_ ? 0 : 1;
  }

 private:
  std::string bench_;
  std::chrono::steady_clock::time_point start_;
  std::string path_;
  bool smoke_ = false;
  bool gates_passed_ = true;
  std::deque<Table> tables_;
};

}  // namespace sa::bench

#endif  // SA_BENCH_BENCH_COMMON_H_
