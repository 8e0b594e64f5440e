// Parallel grid runner: fan the Burch–Dill verification of independent
// (ROB size, issue width) configurations out across cores.
//
// The paper's evaluation (Tables 1-5) is a grid of configurations that are
// completely independent of each other — embarrassingly parallel. Each grid
// cell is one parallelFor index whose body builds its OWN `eufm::Context`,
// its own processor models, and runs the full verify() pipeline.
//
// THREAD-OWNERSHIP RULE: one ExprContext per verification cell. The EUFM
// context (hash-consing table, string interner) and the prop/CNF contexts
// derived from it are unsynchronized by design — sharing or cross-thread
// interning is a data race. The grid runner never passes expressions
// between cells; the only shared state is the results vector, written at
// disjoint indices and read after every thread has joined, one
// mutex-guarded sat::SolveMemo per runGrid() call, through which cells with
// a bit-identical CNF (a Table 5 column) replay one finished SAT solve, and
// the optional core::ResultStore (read-only after open, appends locked).
// Results are returned in input order, and jobs = 1 runs the same loop
// inline, so a parallel run is observationally identical to the sequential
// one (up to wall-clock fields and the SAT time and arena peak of replayed
// cells).
//
// The one sanctioned exception lives *inside* a cell: with cellJobs > 1 a
// cell's own workers read the cell's (frozen) context through per-worker
// eufm::ShadowContext overlays — reads of an unmutated context are safe,
// and each overlay's scratch nodes are thread-private. See
// docs/SCALING.md.
//
// RESOURCE ISOLATION: each cell gets its own BudgetGovernor (armed inside
// verify()), and the memory budget governs the cell's *logical* arena
// bytes, not process RSS — so one cell tripping MemOut cannot perturb a
// sibling's verdict, no matter how the cells are scheduled.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "core/verifier.hpp"
#include "support/trace.hpp"

namespace velev::core {

struct GridCell {
  unsigned robSize = 8;
  unsigned issueWidth = 2;
  models::BugSpec bug;  // default: no injected defect
};

struct GridCellResult {
  GridCell cell;
  /// The cell's answer — for a fallback cell, the retry's. Verdict, stage
  /// seconds and the canonical reportCounters() block; the same record the
  /// result store persists and velev_serve sends.
  VerifyResponse response;
  double wallSeconds = 0;       // summed over the cell's attempts
  bool fellBack = false;        // FallbackPolicy retried this cell
  /// When fellBack: the verdict of the original (pre-retry) attempt.
  Verdict firstVerdict = Verdict::Inconclusive;
  /// Every attempt was read from the result store (GridRunOptions::cacheDir)
  /// instead of verified.
  bool restored = false;
};

/// What to do with a cell whose first attempt exhausted its budget.
enum class FallbackPolicy {
  None,
  /// PE-only cell hit Timeout/MemOut => retry it once with
  /// RewritingPlusPositiveEquality — the paper's headline comparison: the
  /// configurations that exhaust 4 GB under Positive Equality alone verify
  /// in seconds once the rewriting rules delete the ROB updates.
  RetryWithRewriting,
};

/// Scheduling knobs of a grid run. Everything about WHAT to verify lives in
/// the per-cell VerifyRequests (so a grid may mix strategies, engines and
/// budgets); this struct only says HOW to run them.
struct GridRunOptions {
  unsigned jobs = 1;  // threads over cells; 1 = run in the calling thread
  FallbackPolicy fallback = FallbackPolicy::None;
  /// When non-empty: each cell attaches its own trace::Collector (the
  /// one-Collector-per-cell analogue of the one-Context-per-cell rule) and
  /// the runner writes `cell_<index>_<N>x<K>.trace.json` plus
  /// `cell_<index>_<N>x<K>.manifest.json` into this directory, then one
  /// merged `manifest.json` summing stage times and counters over the grid.
  /// The directory is created if missing.
  std::string traceDir;
  /// When non-empty: the core::ResultStore directory (result_store.hpp),
  /// the same store `velev_serve --cache-dir` keeps. Each attempt of a cell
  /// is looked up under its own request's cacheKey() and, when missing,
  /// verified and stored — so a sweep killed mid-run loses at most the
  /// cells in flight, and re-running it restores the finished ones
  /// (GridCellResult::restored). A store written by a different build
  /// matches nothing. `timeout` cells are never stored, so they run again.
  std::string cacheDir;
  /// Worker threads *inside* each cell (VerifyOptions::jobs): parallel
  /// rewrite slice checks and CNF build. Orthogonal to `jobs`, which fans
  /// out across cells — the paper-scale sweep runs few huge cells, so it
  /// wants jobs = 1 and cellJobs = cores.
  unsigned cellJobs = 1;
};

/// Verify every request of `requests`; results come back in input order.
/// Each request carries its own strategy/engine/budget, so heterogeneous
/// grids (the velev_serve replay mix) run through the same scheduler as the
/// paper's homogeneous tables. With jobs > 1, one parallelFor runs the cells
/// on that many threads; a cell that throws stops the cells not yet started
/// and the exception reaches the caller.
std::vector<GridCellResult> runGrid(std::span<const VerifyRequest> requests,
                                    const GridRunOptions& opts);

/// Cross product of sizes × widths, dropping the impossible cells
/// (width > size) exactly as the paper's tables print a dash for them.
std::vector<GridCell> makeGrid(std::span<const unsigned> sizes,
                               std::span<const unsigned> widths);

/// Request-valued makeGrid(): the sizes × widths cross product stamped
/// onto copies of `base` (which supplies strategy, engine, budget, bug and
/// the pipeline toggles).
std::vector<VerifyRequest> makeGridRequests(std::span<const unsigned> sizes,
                                            std::span<const unsigned> widths,
                                            const VerifyRequest& base = {});

/// Flatten one finished cell into the manifest fields: tool name, config
/// block (rob_size, issue_width, strategy, …) and budget from `req`,
/// verdict/reason, stage seconds and the canonical counter block from the
/// response. Shared by the grid runner's per-cell manifests and
/// velev_verify's single-run one.
trace::ManifestData cellManifestData(const GridCellResult& res,
                                     const VerifyRequest& req,
                                     std::string_view tool = "velev_verify");

}  // namespace velev::core
