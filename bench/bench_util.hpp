// Shared helpers for the table-reproduction benchmark binaries.
//
// Each bench regenerates one table of the paper's evaluation (Sect. 7) and
// prints it in the paper's layout: ROB sizes as rows, issue/retire widths
// as columns. Default parameters finish in minutes on a laptop; set
// REPRO_FULL=1 in the environment for the paper-scale sweep (ROB sizes up
// to 1,500 and widths up to 128 — hours of runtime and tens of GB, exactly
// as the paper's 4 GB Sun4 needed hours).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/grid_runner.hpp"
#include "core/report_json.hpp"
#include "support/json.hpp"
#include "support/mem.hpp"
#include "support/parse_number.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace velev::bench {

inline bool fullScale() {
  const char* v = std::getenv("REPRO_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// REPRO_NO_INPROCESS=1 disables the SAT stage's inprocessing front end —
/// the pre-simplification baseline. Benches that honor it also suffix
/// their JSON name with "_no_inprocess", so CI can upload both variants of
/// the same table side by side.
inline bool noInprocess() {
  const char* v = std::getenv("REPRO_NO_INPROCESS");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Worker threads for the grid benches: `--jobs N` on the command line, or
/// the REPRO_JOBS environment variable, else `fallback`. N must be an
/// integer in 1..kMaxWorkers; anything else exits 2.
inline unsigned parseJobs(int argc, char** argv, unsigned fallback = 1) {
  unsigned jobs = fallback;
  if (const char* env = std::getenv("REPRO_JOBS"); env && env[0] != '\0')
    jobs = parseNumberOrExit("REPRO_JOBS", env, 1u, kMaxWorkers);
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--jobs")
      jobs = parseNumberOrExit("--jobs", i + 1 < argc ? argv[i + 1] : "", 1u,
                               kMaxWorkers);
  return jobs;
}

inline double envDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? std::atof(v) : fallback;
}

/// Per-cell resource budget for the benches, from the environment:
///   REPRO_TIMEOUT_SECS   wall-clock seconds per cell (<= 0: unlimited)
///   REPRO_MEM_BUDGET_MB  logical-arena MiB per cell (<= 0: unlimited)
///   REPRO_SAT_BUDGET     SAT conflicts per cell (< 0: unlimited)
/// Over-budget cells record a timeout/memout verdict in the table and the
/// JSON instead of hanging the sweep or getting the process OOM-killed —
/// the bench analogue of the paper's "out of memory" table entries.
inline ResourceBudget parseBudget(double timeoutSecs, double memBudgetMb,
                                  std::int64_t satConflicts) {
  ResourceBudget b;
  b.wallSeconds = envDouble("REPRO_TIMEOUT_SECS", timeoutSecs);
  const double mb = envDouble("REPRO_MEM_BUDGET_MB", memBudgetMb);
  b.memoryBytes = mb > 0 ? static_cast<std::size_t>(mb * 1024 * 1024) : 0;
  if (const char* env = std::getenv("REPRO_SAT_BUDGET"); env && env[0] != '\0')
    b.satConflicts = std::atoll(env);
  else
    b.satConflicts = satConflicts;
  return b;
}

/// Stamp a parseBudget() result onto a request's budget fields.
inline void applyBudget(core::VerifyRequest& req, const ResourceBudget& b) {
  req.timeoutSeconds = b.wallSeconds;
  req.memoryBudgetBytes = b.memoryBytes;
  req.satConflictBudget = b.satConflicts;
}

// ---- machine-readable bench output ----------------------------------------
// Every bench writes BENCH_<name>.json next to its table so the perf
// trajectory is trackable across PRs. Schema (documented in EXPERIMENTS.md):
//   { "bench": str, "jobs": uint, "cells": [ <core::ReportCell> ... ],
//     "notes": { str: num ... }, "total_wall_seconds": num }
// The per-cell object is the shared core::writeReportCell() schema (see
// core/report_json.hpp) — the same record velev_verify --json and the
// velev_serve replay bench emit: rob_size, width, label?, verdict, reason?,
// wall_seconds, sat_conflicts, peak_arena_bytes, mem_high_water_kb,
// fell_back?/first_verdict?, counters?, stage_seconds?. "verdict" includes
// the budget verdicts "timeout" and "memout"; "counters" is the canonical
// paper-aligned block (core::reportCounters — the same names the --trace
// manifests record; see docs/TRACE_FORMAT.md).

/// The benches populate core::ReportCell directly; the old bench-local
/// JsonCell spelling is kept as an alias.
using JsonCell = core::ReportCell;

class JsonReport {
 public:
  explicit JsonReport(std::string name, unsigned jobs = 1)
      : name_(std::move(name)), jobs_(jobs) {}

  void add(JsonCell cell) { cells_.push_back(std::move(cell)); }

  void add(const core::GridCellResult& r, std::string label = {}) {
    cells_.push_back(core::makeReportCell(r, std::move(label)));
  }

  /// Scalar extras (speedups, budgets, ...) under the "notes" object.
  void note(std::string key, double value) {
    notes_.emplace_back(std::move(key), value);
  }

  /// Writes BENCH_<name>.json in the current directory.
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path);
    JsonWriter w(os);
    w.beginObject();
    w.kv("bench", name_);
    w.kv("jobs", jobs_);
    w.key("cells");
    w.beginArray();
    for (const JsonCell& c : cells_) core::writeReportCell(w, c);
    w.endArray();
    if (!notes_.empty()) {
      w.key("notes");
      w.beginObject();
      for (const auto& [k, v] : notes_) w.kv(k, v);
      w.endObject();
    }
    w.kv("total_wall_seconds", total_.seconds());
    w.endObject();
    std::printf("\nwrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  unsigned jobs_ = 1;
  std::vector<JsonCell> cells_;
  std::vector<std::pair<std::string, double>> notes_;
  Timer total_;  // started at construction
};

/// Append the standard cell for a finished VerifyReport: verdict, reason,
/// resource accounting and the canonical counter block
/// (core::reportCounters — which appends the bdd.* counters whenever the
/// run used the BDD engine). Every bench that judges cells through
/// core::verify()/verifyWith() emits its JSON cells through here so the
/// BENCH_*.json schema stays uniform across benches; benches that go
/// through the grid runner get the same block via JsonReport::add(
/// GridCellResult).
inline void writeStandardBench(JsonReport& json, const models::OoOConfig& cfg,
                               std::string label,
                               const core::VerifyReport& rep,
                               double wallSeconds) {
  json.add(core::makeReportCell(cfg, std::move(label), rep, wallSeconds,
                                rssHighWaterKb()));
}

/// Default / full-scale ROB sizes (paper: 4..1500).
inline std::vector<unsigned> robSizes() {
  std::vector<unsigned> s = {4, 8, 16, 32, 64, 128, 250};
  if (fullScale()) {
    s.push_back(500);
    s.push_back(1000);
    s.push_back(1500);
  }
  return s;
}

/// Default / full-scale issue widths (paper: 1..128).
inline std::vector<unsigned> issueWidths() {
  std::vector<unsigned> w = {1, 2, 4, 8, 16};
  if (fullScale()) {
    w.push_back(32);
    w.push_back(64);
    w.push_back(128);
  }
  return w;
}

inline void printHeader(const char* title, const char* corner,
                        const std::vector<unsigned>& widths) {
  std::printf("%s\n", title);
  std::printf("%10s", corner);
  for (unsigned w : widths) std::printf(" | %9u", w);
  std::printf("\n");
  std::printf("----------");
  for (std::size_t i = 0; i < widths.size(); ++i) std::printf("-+----------");
  std::printf("\n");
}

inline void printRowLabel(unsigned size) { std::printf("%10u", size); }

inline void printCell(double seconds) { std::printf(" | %9.3f", seconds); }

inline void printCellCount(std::size_t n) {
  std::printf(" | %9zu", n);
}

/// The paper prints a dash for impossible configurations (width > size).
inline void printDash() { std::printf(" | %9s", "-"); }

inline void printCellText(const std::string& s) {
  std::printf(" | %9s", s.c_str());
}

inline void endRow() { std::printf("\n"); }

}  // namespace velev::bench
