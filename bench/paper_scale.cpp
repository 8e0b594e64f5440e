// paper_scale — the paper-scale push: sweep the Table 1 curve toward the
// paper's largest configuration, ROB size 1,500 at issue width 128.
//
// Unlike the table benches (many small cells fanned out across cores), the
// paper-scale sweep is a few HUGE cells, so the parallelism goes *inside*
// each verification: sequential cells (grid jobs = 1) with cellJobs worker
// threads sharding the rewrite slice checks and the CNF build. Verdicts
// and counters are identical to a single-threaded run (docs/SCALING.md).
//
// Every cell runs under a per-cell resource budget; an exhausted budget
// records a graceful `timeout` / `memout` verdict in the table and the
// JSON — the bench analogue of the paper's "out of memory" entries — and
// the sweep continues with the next cell.
//
// The sweep keeps a result store in paper_scale.cache/ (core::ResultStore,
// the store `velev_serve --cache-dir` uses): every finished cell is
// appended as it completes, and the next invocation restores the finished
// cells and re-verifies only the rest. Kill it, re-run it, and it picks up
// where it stopped; `timeout` cells are not stored and run again.
//
// Defaults finish in minutes; the environment scales it up:
//   REPRO_FULL=1          add the 500/1000/1500 x 128 cells (hours)
//   REPRO_JOBS=N          worker threads per cell (also: --jobs N)
//   REPRO_TIMEOUT_SECS=S  per-cell wall-clock budget (default 60)
//   REPRO_MEM_BUDGET_MB=M per-cell logical-arena budget (default 2048)
//
// Output: the per-cell table on stdout plus BENCH_paper_scale.json
// (schema: EXPERIMENTS.md).
#include <cinttypes>

#include "bench_util.hpp"

using namespace velev;

int main(int argc, char** argv) {
  const unsigned jobs = bench::parseJobs(argc, argv, 1);
  const ResourceBudget budget = bench::parseBudget(60, 2048, -1);

  // The Table 1 curve: width tracks size at roughly a quarter until the
  // paper's width ceiling of 128, then size keeps growing toward 1,500.
  std::vector<std::pair<unsigned, unsigned>> curve = {
      {16, 4}, {32, 8}, {64, 16}, {128, 32}, {250, 64}};
  if (bench::fullScale()) {
    curve.push_back({500, 128});
    curve.push_back({1000, 128});
    curve.push_back({1500, 128});
  }

  std::vector<core::VerifyRequest> requests;
  requests.reserve(curve.size());
  for (const auto& [n, k] : curve) {
    core::VerifyRequest r;
    r.robSize = n;
    r.issueWidth = k;
    r.strategy = core::Strategy::RewritingPlusPositiveEquality;
    bench::applyBudget(r, budget);
    requests.push_back(r);
  }

  core::GridRunOptions gopts;
  gopts.jobs = 1;  // few huge cells: parallelize inside them, not across
  gopts.cellJobs = jobs;
  gopts.cacheDir = "paper_scale.cache";  // a re-run restores finished cells

  std::printf("paper_scale: %zu cells toward ROB 1500 x width 128 "
              "(%u worker(s) per cell, timeout %.0f s, mem budget %" PRIu64
              " MiB per cell)\n\n",
              requests.size(), jobs, budget.wallSeconds,
              static_cast<std::uint64_t>(budget.memoryBytes) / (1024 * 1024));

  bench::JsonReport json("paper_scale", jobs);
  const std::vector<core::GridCellResult> results =
      core::runGrid(requests, gopts);

  std::printf("%6s | %6s | %12s | %10s | %10s | %s\n", "ROB", "width",
              "verdict", "seconds", "peak MiB", "note");
  bool refuted = false;
  for (const core::GridCellResult& r : results) {
    const core::Verdict v = r.response.verdict;
    std::printf("%6u | %6u | %12s | %10.3f | %10.1f | %s\n", r.cell.robSize,
                r.cell.issueWidth, core::verdictName(v), r.wallSeconds,
                static_cast<double>(r.response.peakArenaBytes) /
                    (1024.0 * 1024.0),
                r.restored ? "restored from cache" : "");
    if (v == core::Verdict::CounterexampleFound ||
        v == core::Verdict::RewriteMismatch)
      refuted = true;
    json.add(r, r.restored ? "restored" : "");
  }

  json.note("timeout_seconds", budget.wallSeconds);
  json.note("mem_budget_mb",
            static_cast<double>(budget.memoryBytes) / (1024.0 * 1024.0));
  json.note("cell_jobs", jobs);
  json.note("full_scale", bench::fullScale() ? 1 : 0);
  json.write();

  // Budget verdicts are graceful by design; only an actual refutation of
  // the (bug-free) design is a failure.
  return refuted ? 1 : 0;
}
