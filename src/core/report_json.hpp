// The one JSON cell schema shared by every machine-readable report.
//
// velev_verify --json, the benches' BENCH_<name>.json and the velev_serve
// replay bench all emit per-cell records; before this writer existed each
// of them hand-rolled the same key sequence and they drifted (velev_verify
// lacked the counter block, the benches lacked fell_back). core::ReportCell
// is the superset record and writeReportCell() the single emitter:
//
//   { "rob_size": uint, "width": uint, "label"?: str, "verdict": str,
//     "reason"?: str, "failed_slice"?: uint, "wall_seconds": num,
//     "sat_conflicts": uint, "peak_arena_bytes": uint,
//     "mem_high_water_kb": uint, "fell_back"?: true, "first_verdict"?: str,
//     "counters"?: { str: uint ... }, "stage_seconds"?: { str: num ... } }
//
// Optional keys are emitted only when meaningful (empty label/reason, a
// zero failed_slice and fell_back=false are omitted), so existing consumers
// keep parsing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/grid_runner.hpp"
#include "support/json.hpp"

namespace velev::core {

struct ReportCell {
  unsigned robSize = 0;
  unsigned issueWidth = 0;
  std::string label;        // e.g. strategy or phase; may be empty
  std::string verdict;      // core::verdictName() or bench-specific
  std::string reason;       // budget-trip / mismatch text; may be empty
  unsigned failedSlice = 0; // rewrite-mismatch only: the 1-based slice
  double wallSeconds = 0;
  std::uint64_t satConflicts = 0;
  std::uint64_t peakArenaBytes = 0;
  std::uint64_t memHighWaterKb = 0;
  bool fellBack = false;
  std::string firstVerdict;  // pre-fallback verdict when fellBack
  /// Canonical paper-aligned counter block (core::reportCounters).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Per-stage wall seconds ("sim"/"rewrite"/"translate"/"sat"/"bdd").
  std::vector<std::pair<std::string, double>> stageSeconds;
};

/// Flatten one finished cell from its VerifyResponse: a grid cell, a
/// single run, or an answer from a velev_serve daemon (counters and stage
/// seconds included; mem_high_water_kb is the response's RSS snapshot).
ReportCell makeReportCell(const GridCellResult& res, std::string label = {});

/// Flatten one free-standing VerifyReport (the benches' non-grid path).
/// `memHighWaterKb` is the caller's RSS snapshot (support/mem.hpp).
ReportCell makeReportCell(const models::OoOConfig& cfg, std::string label,
                          const VerifyReport& rep, double wallSeconds,
                          std::uint64_t memHighWaterKb);

/// Emit one cell object on an open writer (the caller brackets the array).
void writeReportCell(JsonWriter& w, const ReportCell& c);

}  // namespace velev::core
