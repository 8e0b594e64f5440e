// velev_verify — command-line front end for the verification flow.
//
//   $ velev_verify --size 128 --width 4
//   $ velev_verify --size 128 --width 4 --bug fwd:72
//   $ velev_verify --size 4 --width 2 --strategy pe --dump-cnf out.cnf
//   $ velev_verify --size 2 --width 1 --strategy pe --proof out.drat
//   $ velev_verify --size 16 --width 4 --strategy pe --mem-budget 1024
//   $ velev_verify --grid "sizes=16,32,64;widths=1,2,4" --jobs 8 --json g.json
//   $ velev_verify --size 8 --width 2 --trace out/ --stats
//
// Options:
//   --size N          ROB size, 1..4096 (default 8)
//   --width K         issue/retire width (default 2)
//   --grid SPEC       verify a whole grid instead of one configuration.
//                     SPEC is either "sizes=A,B,..;widths=X,Y,.." (cross
//                     product, cells with width > size dropped) or an
//                     explicit cell list "NxK,NxK,...". The cells share
//                     one SAT solve memo: cells with a bit-identical CNF
//                     (after rewriting, any ROB size at one width) replay
//                     one solve with unchanged verdicts and counters
//                     (off under --mem-budget)
//   --jobs N          grid mode: threads over the cells, 1..256 (default
//                     1). A single run is one cell: --jobs N > 1 without
//                     --grid is a usage error; --cell-jobs parallelises
//                     one cell
//   --cell-jobs N     intra-cell parallelism, 1..256 (default 1): fan the
//                     rewrite slice checks and the CNF build (Tseitin
//                     shards, transitivity components) out on N threads
//                     *inside* each verification. Verdicts and counters are
//                     identical to --cell-jobs 1 — this only buys wall
//                     clock on big-N cells (docs/SCALING.md). Applies to
//                     single mode and grid mode alike; orthogonal to --jobs
//   --cache-dir DIR   grid mode: keep the result store in DIR (the store
//                     `velev_serve --cache-dir` uses; docs/SERVICE.md).
//                     Cells already in it are restored instead of verified
//                     ("restored from cache"); every other finished cell is
//                     appended, so a killed sweep loses at most the cells in
//                     flight. `timeout` cells are not stored and run again
//   --strategy S      rewrite (default) | pe
//   --engine E        sat (default) | bdd | both. `bdd` evaluates the
//                     negated correctness formula with shared ROBDDs built
//                     straight from the AIG (no Tseitin CNF) plus the
//                     transitivity constraints; `both` runs the two engines
//                     under sibling budgets and exits 2 on any conclusive
//                     verdict disagreement (the cross-check CI job).
//                     --proof requires the sat engine
//   --bug KIND:SLICE  inject a defect: fwd | stale | retire | alu |
//                     completion, at the given 1-based slice
//   --budget N        SAT conflict budget, N >= 0 (default unlimited)
//   --timeout SECS    wall-clock budget per cell; exhaustion degrades into
//                     verdict `timeout` instead of running forever
//   --mem-budget MB   logical-arena memory budget per cell; exhaustion
//                     degrades into verdict `memout` instead of an OOM kill
//                     (how Table 2's "out of memory" entries reproduce)
//   --fallback P      grid mode: none (default) | rewrite (alias:
//                     retry-with-rewriting) — retry a cell whose PE-only
//                     attempt exhausted its budget with the rewriting
//                     strategy (the paper's headline comparison)
//   --no-inprocess    disable the CNF inprocessing front end of the SAT
//                     stage (variable elimination, subsumption,
//                     vivification, probing, equivalent-literal
//                     substitution) — the pre-simplification baseline, used
//                     by the benches' before/after comparison
//   --no-coi          disable the cone-of-influence simulator optimization
//   --dump-cnf FILE   write the correctness CNF in DIMACS format (Tseitin
//                     then runs under --engine bdd too)
//   --proof FILE      log a DRAT proof and self-check it on UNSAT
//   --json FILE       write a machine-readable report (same schema as the
//                     benches' BENCH_<name>.json)
//   --connect ADDR    ship the request(s) to a running velev_serve daemon
//                     (docs/SERVICE.md) instead of verifying in-process.
//                     ADDR: "unix:PATH", a bare socket path, "HOST:PORT"
//                     or ":PORT". Verdicts, counters and exit codes match
//                     the local run; answers served from the daemon's
//                     result cache print a [cached] marker. Local-run
//                     features (--dump-cnf, --proof, --trace, --stats,
//                     --fallback, --cache-dir, --cell-jobs) do not apply
//   --trace DIR       write observability artifacts into DIR (created if
//                     missing): a Chrome-trace/Perfetto event stream
//                     (trace.json) and a versioned run manifest
//                     (manifest.json). Grid mode writes per-cell
//                     cell_<i>_<N>x<K>.{trace,manifest}.json plus one
//                     merged manifest.json. Schema: docs/TRACE_FORMAT.md
//   --stats           print the hierarchical stage-time tree and the final
//                     counters to stderr (single mode; grid cells record
//                     their statistics in the --trace manifests instead)
//   --quiet           print only the verdict line(s)
//
// Single mode and every grid cell run one pipeline, core::verify (the one
// velev_serve runs too), so a single run answers exactly what the same cell
// answers under --grid: verdict, reason and the full counter block. Each
// request is checked by VerifyRequest::validate() first; an invalid cell
// (a size past 4096, width > size, a bug slice out of range) is a usage
// error.
//
// Exit code (core::verdictExitCode — one mapping shared with the benches
// and cli_test): 0 correct, 1 bug found / mismatch, 2 usage error (also a
// failed --proof self-check or an engine disagreement under --engine
// both), 3 inconclusive/skipped, 4 timeout/memout. Grid mode aggregates by
// severity: any bug -> 1, else any timeout/memout -> 4, else any
// inconclusive/skipped -> 3, else 0.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "velev.hpp"

using namespace velev;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\nsee the header of tools/velev_verify.cpp "
                       "for usage\n",
               msg);
  std::exit(2);
}

models::BugKind parseBugKind(const std::string& s) {
  const auto k = models::bugKindFromName(s);
  if (!k.has_value() || *k == models::BugKind::None)
    usage(("unknown bug kind: " + s).c_str());
  return *k;
}

/// A ROB size, issue width or bug slice: any unsigned; the cell's
/// VerifyRequest::validate() names the ones out of range.
unsigned cellNumber(std::string_view name, std::string_view text) {
  return parseNumberOrExit<unsigned>(name, text, 0,
                                     std::numeric_limits<unsigned>::max());
}

std::vector<unsigned> parseUnsignedList(const std::string& s) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    out.push_back(
        cellNumber("--grid", std::string_view(s).substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

std::vector<core::GridCell> parseGridSpec(const std::string& spec) {
  if (spec.find('=') != std::string::npos) {
    // "sizes=A,B,..;widths=X,Y,.."
    std::vector<unsigned> sizes, widths;
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const std::size_t semi = spec.find(';', pos);
      const std::string part =
          spec.substr(pos, semi == std::string::npos ? semi : semi - pos);
      const std::size_t eq = part.find('=');
      if (eq == std::string::npos) usage("--grid expects key=value parts");
      const std::string key = part.substr(0, eq);
      if (key == "sizes") sizes = parseUnsignedList(part.substr(eq + 1));
      else if (key == "widths") widths = parseUnsignedList(part.substr(eq + 1));
      else usage(("unknown --grid key: " + key).c_str());
      if (semi == std::string::npos) break;
      pos = semi + 1;
    }
    if (sizes.empty() || widths.empty())
      usage("--grid needs both sizes= and widths=");
    return core::makeGrid(sizes, widths);
  }
  // "NxK,NxK,..."
  std::vector<core::GridCell> cells;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const std::size_t x = part.find('x');
    if (x == std::string::npos) usage("--grid cells must look like NxK");
    core::GridCell c;
    c.robSize = cellNumber("--grid", std::string_view(part).substr(0, x));
    c.issueWidth = cellNumber("--grid", std::string_view(part).substr(x + 1));
    cells.push_back(c);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (cells.empty()) usage("--grid spec is empty");
  return cells;
}

/// --json report: the shared core::ReportCell schema (report_json.hpp)
/// inside the tool envelope. One writer serves the local paths and the
/// --connect client mode.
void writeJsonReport(const char* path, const char* mode, unsigned jobs,
                     const std::vector<core::ReportCell>& cells,
                     double totalSeconds) {
  std::ofstream os(path);
  JsonWriter w(os);
  w.beginObject();
  w.kv("tool", "velev_verify");
  w.kv("mode", mode);
  w.kv("jobs", jobs);
  w.key("cells");
  w.beginArray();
  for (const core::ReportCell& c : cells) core::writeReportCell(w, c);
  w.endArray();
  w.kv("total_wall_seconds", totalSeconds);
  w.endObject();
}

std::vector<core::ReportCell> toReportCells(
    const std::vector<core::GridCellResult>& results) {
  std::vector<core::ReportCell> cells;
  cells.reserve(results.size());
  for (const auto& r : results) cells.push_back(core::makeReportCell(r));
  return cells;
}

void printCellLine(const core::GridCellResult& r) {
  const unsigned n = r.cell.robSize, k = r.cell.issueWidth;
  switch (r.response.verdict) {
    case core::Verdict::Correct:
      std::printf("cell %ux%u: CORRECT (%.3f s)\n", n, k, r.wallSeconds);
      break;
    case core::Verdict::CounterexampleFound:
      std::printf("cell %ux%u: COUNTEREXAMPLE FOUND (%.3f s)\n", n, k,
                  r.wallSeconds);
      break;
    case core::Verdict::RewriteMismatch:
      std::printf("cell %ux%u: NON-CONFORMING SLICE %u (%s)\n", n, k,
                  r.response.failedSlice, r.response.reason.c_str());
      break;
    case core::Verdict::Inconclusive:
      std::printf("cell %ux%u: INCONCLUSIVE (%.3f s)\n", n, k, r.wallSeconds);
      break;
    case core::Verdict::Timeout:
      std::printf("cell %ux%u: TIMEOUT (%.3f s)\n", n, k, r.wallSeconds);
      break;
    case core::Verdict::MemOut:
      std::printf("cell %ux%u: OUT OF MEMORY (%.3f s)\n", n, k,
                  r.wallSeconds);
      break;
    case core::Verdict::Skipped:
      std::printf("cell %ux%u: SKIPPED\n", n, k);
      break;
  }
  if (r.fellBack)
    std::printf("cell %ux%u: retried with rewriting after PE-only %s\n", n, k,
                verdictName(r.firstVerdict));
  if (r.restored) std::printf("cell %ux%u: restored from cache\n", n, k);
}

int aggregateExitCode(const std::vector<core::GridCellResult>& results) {
  // Severity order across cells: refuted > budget-exceeded > inconclusive.
  auto severity = [](int code) {
    return code == 1 ? 3 : code == 4 ? 2 : code == 3 ? 1 : 0;
  };
  int worst = 0;
  for (const auto& r : results) {
    const int code = core::verdictExitCode(r.response.verdict);
    if (severity(code) > severity(worst)) worst = code;
  }
  return worst;
}

int runGridMode(const std::vector<core::VerifyRequest>& requests,
                const core::GridRunOptions& gopts, const char* jsonPath,
                bool quiet) {
  Timer total;
  const std::vector<core::GridCellResult> results =
      core::runGrid(requests, gopts);
  const double totalSec = total.seconds();
  for (const auto& r : results) printCellLine(r);
  if (!quiet)
    std::printf("grid: %zu cells in %.3f s with %u jobs\n", results.size(),
                totalSec, gopts.jobs);
  if (jsonPath)
    writeJsonReport(jsonPath, "grid", gopts.jobs, toReportCells(results),
                    totalSec);
  return aggregateExitCode(results);
}

/// --connect: ship the request(s) to a running velev_serve instead of
/// verifying in-process. The response carries the same verdict, counters
/// and exit-code mapping, so scripts behave identically either way.
int runConnectMode(const char* endpoint,
                   std::vector<core::VerifyRequest> requests,
                   const char* mode, const char* jsonPath, bool quiet) {
  std::string err;
  std::optional<serve::Client> client = serve::Client::connect(endpoint, &err);
  if (!client.has_value()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  Timer total;
  std::vector<core::ReportCell> cells;
  auto severity = [](int code) {
    return code == 1 ? 3 : code == 4 ? 2 : code == 3 ? 1 : 0;
  };
  int worst = 0;
  std::uint64_t id = 1;
  for (core::VerifyRequest& r : requests) {
    r.id = id++;
    const std::optional<core::VerifyResponse> resp =
        client->roundTrip(r, &err);
    if (!resp.has_value()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
    if (!resp->error.empty()) {
      std::fprintf(stderr, "error: server rejected cell %ux%u: %s\n",
                   r.robSize, r.issueWidth, resp->error.c_str());
      return 2;
    }
    std::printf("cell %ux%u: %s%s (%.3f s)\n", r.robSize, r.issueWidth,
                core::verdictName(resp->verdict),
                resp->cached ? " [cached]" : "", resp->wallSeconds);
    if (severity(resp->exitCode) > severity(worst)) worst = resp->exitCode;
    core::GridCellResult cell;
    cell.cell = core::GridCell{r.robSize, r.issueWidth, r.bug};
    cell.response = *resp;
    cell.wallSeconds = resp->wallSeconds;
    cells.push_back(core::makeReportCell(cell, resp->cached ? "cached" : ""));
  }
  if (!quiet)
    std::printf("connect: %zu cell(s) via %s in %.3f s\n", cells.size(),
                endpoint, total.seconds());
  if (jsonPath)
    writeJsonReport(jsonPath, mode, 1, cells, total.seconds());
  return worst;
}

/// verifyWith() fills a stage's statistics only when the stage returns, so
/// a budget trip or a rewrite mismatch leaves the later stages' at zero.
bool translated(const core::VerifyReport& rep) {
  return rep.evcStats.cnfVars > 0;
}

/// Single-run progress lines, printed from the finished report: one per
/// stage that completed.
void printStageLines(const core::VerifyReport& rep, bool emittedCnf) {
  const core::StageSeconds& s = rep.outcome.seconds;
  if (rep.simStats.cycles > 0)
    std::printf("simulated commutative diagram in %.3f s (%llu signal "
                "evaluations)\n",
                s.sim,
                static_cast<unsigned long long>(rep.simStats.signalEvals));
  if (rep.rewriteStats.slicesChecked > 0 &&
      rep.verdict() != core::Verdict::RewriteMismatch)
    std::printf("rewriting rules removed %u updates in %.3f s\n",
                rep.updatesRemoved, s.rewrite);
  if (!translated(rep)) return;
  const evc::TranslationStats& ev = rep.evcStats;
  if (emittedCnf)
    std::printf("translated to CNF in %.3f s: %zu vars, %zu clauses, "
                "%u e_ij variables\n",
                s.translate, ev.cnfVars, ev.cnfClauses, ev.eijVars);
  else
    std::printf("translated in %.3f s: %u propositional inputs, "
                "%u transitivity clauses, %u e_ij variables\n",
                s.translate, ev.totalPrimaryVars(), ev.transitivity.clauses,
                ev.eijVars);
  if (rep.engine != core::Engine::Sat)
    std::printf("bdd: %llu peak nodes, %llu reorderings, %llu/%llu cache "
                "hits\n",
                static_cast<unsigned long long>(rep.bddStats.nodesPeak),
                static_cast<unsigned long long>(rep.bddStats.reorderings),
                static_cast<unsigned long long>(rep.bddStats.cacheHits),
                static_cast<unsigned long long>(rep.bddStats.cacheLookups));
}

void printVerdictLine(const core::VerifyReport& rep, double wallSeconds) {
  const core::StageSeconds& s = rep.outcome.seconds;
  const core::Verdict v = rep.verdict();
  const std::string& reason = rep.outcome.reason;
  // Under `both` the engines' verdicts were cross-checked by verifyWith(),
  // which throws on a conclusive disagreement.
  if (rep.engine == core::Engine::Both && translated(rep)) {
    std::printf("verdict: %s (cross-checked)\n", core::verdictName(v));
    return;
  }
  const bool bdd = rep.engine == core::Engine::Bdd;
  switch (v) {
    case core::Verdict::Correct:
      std::printf("verdict: CORRECT (%s in %.3f s)\n",
                  bdd ? "BDD reduced to false" : "UNSAT", bdd ? s.bdd : s.sat);
      break;
    case core::Verdict::CounterexampleFound:
      std::printf("verdict: COUNTEREXAMPLE FOUND (%s in %.3f s)\n",
                  bdd ? "satisfying path" : "SAT", bdd ? s.bdd : s.sat);
      break;
    case core::Verdict::RewriteMismatch:
      std::printf("verdict: NON-CONFORMING SLICE %u (%s) after %.3f s\n",
                  rep.outcome.failedSlice, reason.c_str(), s.rewrite);
      break;
    case core::Verdict::Inconclusive:
      std::printf("verdict: INCONCLUSIVE (%s after %.3f s)\n", reason.c_str(),
                  s.sat);
      break;
    case core::Verdict::Timeout:
    case core::Verdict::MemOut:
      std::printf("verdict: %s (%s after %.3f s)\n",
                  v == core::Verdict::MemOut ? "OUT OF MEMORY" : "TIMEOUT",
                  reason.c_str(), wallSeconds);
      break;
    case core::Verdict::Skipped:
      std::printf("verdict: SKIPPED\n");
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  unsigned size = 8, width = 2, jobs = 1, cellJobs = 1;
  bool peOnly = false, quiet = false, coi = true;
  bool noInprocess = false;
  const char* cacheDir = nullptr;
  core::Engine engine = core::Engine::Sat;
  ResourceBudget budget;
  core::FallbackPolicy fallback = core::FallbackPolicy::None;
  models::BugSpec bug;
  const char* dumpCnf = nullptr;
  const char* proofPath = nullptr;
  const char* jsonPath = nullptr;
  const char* gridSpec = nullptr;
  const char* traceDir = nullptr;
  const char* connectEndpoint = nullptr;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--size") size = cellNumber(a, next());
    else if (a == "--width") width = cellNumber(a, next());
    else if (a == "--jobs") jobs = parseNumberOrExit(a, next(), 1u, kMaxWorkers);
    else if (a == "--cell-jobs")
      cellJobs = parseNumberOrExit(a, next(), 1u, kMaxWorkers);
    else if (a == "--cache-dir") cacheDir = next();
    else if (a == "--grid") gridSpec = next();
    else if (a == "--strategy") {
      const std::string s = next();
      if (s == "pe") peOnly = true;
      else if (s == "rewrite") peOnly = false;
      else usage(("unknown strategy: " + s).c_str());
    } else if (a == "--engine") {
      const std::string s = next();
      const auto e = core::engineFromName(s);
      if (!e.has_value()) usage(("unknown engine: " + s).c_str());
      engine = *e;
    } else if (a == "--bug") {
      const std::string s = next();
      const auto colon = s.find(':');
      if (colon == std::string::npos) usage("--bug expects KIND:SLICE");
      bug.kind = parseBugKind(s.substr(0, colon));
      bug.index = cellNumber(a, std::string_view(s).substr(colon + 1));
    } else if (a == "--budget") {
      budget.satConflicts = parseNumberOrExit<std::int64_t>(
          a, next(), 0, std::numeric_limits<std::int64_t>::max());
    } else if (a == "--timeout") {
      budget.wallSeconds = parseNumberOrExit(a, next(), 1e-9, 1e9);
    } else if (a == "--mem-budget") {
      const std::size_t mb =
          parseNumberOrExit<std::size_t>(a, next(), 1, SIZE_MAX >> 20);
      budget.memoryBytes = mb * 1024u * 1024u;
    } else if (a == "--fallback") {
      const std::string s = next();
      if (s == "rewrite" || s == "retry-with-rewriting")
        fallback = core::FallbackPolicy::RetryWithRewriting;
      else if (s == "none") fallback = core::FallbackPolicy::None;
      else usage(("unknown fallback policy: " + s).c_str());
    } else if (a == "--no-inprocess") noInprocess = true;
    else if (a == "--no-coi") coi = false;
    else if (a == "--dump-cnf") dumpCnf = next();
    else if (a == "--proof") proofPath = next();
    else if (a == "--json") jsonPath = next();
    else if (a == "--connect") connectEndpoint = next();
    else if (a == "--trace") traceDir = next();
    else if (a == "--stats") stats = true;
    else if (a == "--quiet") quiet = true;
    else usage(("unknown option: " + a).c_str());
  }

  if (proofPath && engine != core::Engine::Sat)
    usage("--proof requires --engine sat (DRAT proofs come from the CDCL "
          "solver)");
  if (cacheDir && !gridSpec)
    usage("--cache-dir applies to grid mode only (a single run has no "
          "cells to record)");
  if (jobs > 1 && !gridSpec)
    usage("--jobs applies to grid mode; --cell-jobs parallelises one cell");
  if (gridSpec && (dumpCnf || proofPath))
    usage("--dump-cnf/--proof apply to single-configuration runs only");
  if (connectEndpoint &&
      (dumpCnf || proofPath || traceDir || stats || cacheDir ||
       cellJobs > 1 || fallback != core::FallbackPolicy::None))
    usage("--connect ships requests to a velev_serve daemon; "
          "--dump-cnf/--proof/--trace/--stats/--fallback/"
          "--cache-dir/--cell-jobs are local-run features");

  // The one serializable request the whole flag set folds into; grid mode
  // stamps sizes × widths onto copies of it, --connect ships them as-is.
  core::VerifyRequest base;
  base.robSize = size;
  base.issueWidth = width;
  base.bug = bug;
  base.strategy = peOnly ? core::Strategy::PositiveEqualityOnly
                         : core::Strategy::RewritingPlusPositiveEquality;
  base.engine = engine;
  base.coneOfInfluence = coi;
  base.inprocess = !noInprocess;
  base.timeoutSeconds = budget.wallSeconds;
  base.memoryBudgetBytes = budget.memoryBytes;
  base.satConflictBudget = budget.satConflicts;

  std::vector<core::VerifyRequest> requests;
  if (gridSpec) {
    for (const core::GridCell& c : parseGridSpec(gridSpec)) {
      core::VerifyRequest r = base;
      r.robSize = c.robSize;
      r.issueWidth = c.issueWidth;
      requests.push_back(r);
    }
  } else {
    requests.push_back(base);
  }
  for (const core::VerifyRequest& r : requests)
    if (const std::optional<std::string> err = r.validate())
      usage(("cell " + std::to_string(r.robSize) + "x" +
             std::to_string(r.issueWidth) + ": " + *err)
                .c_str());

  try {
    if (connectEndpoint)
      return runConnectMode(connectEndpoint, std::move(requests),
                            gridSpec ? "grid" : "single", jsonPath, quiet);

    if (gridSpec) {
      core::GridRunOptions gopts;
      gopts.jobs = jobs;
      gopts.cellJobs = cellJobs;
      gopts.fallback = fallback;
      if (traceDir) gopts.traceDir = traceDir;
      if (cacheDir) gopts.cacheDir = cacheDir;
      if (stats)
        std::fprintf(stderr, "note: --stats is a single-run view; grid cells "
                             "record their statistics in the --trace "
                             "manifests\n");
      return runGridMode(requests, gopts, jsonPath, quiet);
    }

    // Single mode: the cell's own options plus the run-local outputs.
    core::VerifyOptions vopts = base.options();
    vopts.jobs = cellJobs;
    prop::Cnf cnf;
    sat::Proof proof;
    if (dumpCnf || proofPath) vopts.cnfOut = &cnf;
    if (proofPath) vopts.proof = &proof;

    // One Collector for the whole run when --trace or --stats asked for
    // it; verifyWith() publishes the counter block on it.
    trace::Collector collector;
    const bool collecting = traceDir != nullptr || stats;
    trace::Use tracing(collecting ? &collector : nullptr);

    Timer total;
    const core::VerifyReport rep = core::verify(base, vopts);
    const double wall = total.seconds();

    if (!quiet)
      printStageLines(rep,
                      engine != core::Engine::Bdd || vopts.cnfOut != nullptr);
    if (dumpCnf && translated(rep)) {
      std::ofstream out(dumpCnf);
      prop::writeDimacs(cnf, out);
      if (!quiet) std::printf("wrote DIMACS to %s\n", dumpCnf);
    }
    if (proofPath && rep.outcome.satResult == sat::Result::Unsat) {
      const bool certified = sat::checkRup(cnf, proof);
      std::ofstream out(proofPath);
      sat::writeDrat(proof, out);
      std::printf("proof: %zu steps, self-check %s, written to %s\n",
                  proof.size(), certified ? "PASSED" : "FAILED", proofPath);
      if (!certified) return 2;
    }
    printVerdictLine(rep, wall);

    core::GridCellResult cell;
    cell.cell = core::GridCell{size, width, bug};
    cell.wallSeconds = wall;
    cell.response = core::VerifyResponse::fromReport(base, rep, wall);
    if (jsonPath)
      writeJsonReport(jsonPath, "single", jobs, {core::makeReportCell(cell)},
                      wall);
    if (stats) collector.writeStageTree(std::cerr);
    if (traceDir) {
      std::filesystem::create_directories(traceDir);
      const std::string dir = traceDir;
      if (std::ofstream os(dir + "/trace.json"); os)
        collector.writeChromeTrace(os);
      if (std::ofstream os(dir + "/manifest.json"); os)
        trace::writeManifest(os, core::cellManifestData(cell, base),
                             &collector);
      if (!quiet)
        std::printf("trace: wrote %s/trace.json and %s/manifest.json\n",
                    traceDir, traceDir);
    }
    return core::verdictExitCode(rep.verdict());
  } catch (const InternalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
