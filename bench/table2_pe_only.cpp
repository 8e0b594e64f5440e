// Table 2 — CPU time for checking the unsatisfiability of the CNF formula
// (i.e. the correctness of the implementation processor) when ONLY Positive
// Equality is used — no rewriting rules.
//
// The paper's finding reproduces as a shape: the time explodes with the ROB
// size (their 336 MHz machine: 3 orders of magnitude from 4 to 8 entries;
// 16 entries ran out of the 4 GB of memory after >18,000 s). Every cell
// runs under a per-cell ResourceBudget, so the sweep now includes N=16 by
// default: the blowup cells degrade into "mem-out"/"t/o" table entries —
// the literal analogue of the paper's ">18,000 (Out of Memory)" — instead
// of hanging the sweep or OOM-killing the process. ">T" still marks a cell
// that merely exhausted its SAT conflict budget.
//
// The grid cells are independent; `--jobs N` (or REPRO_JOBS) fans them out
// on the parallel grid runner. Budgets come from REPRO_TIMEOUT_SECS /
// REPRO_MEM_BUDGET_MB / REPRO_SAT_BUDGET. Machine-readable results land in
// BENCH_table2_pe_only.json.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/grid_runner.hpp"

using namespace velev;

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  const unsigned jobs = bench::parseJobs(argc, argv);
  // N=16 is the paper's out-of-memory row and runs in the DEFAULT sweep —
  // the budget makes that safe. N=8 completes but is slow, so it stays
  // behind REPRO_FULL.
  std::vector<unsigned> sizes = {2, 3, 4, 16};
  std::vector<unsigned> widths = {1, 2, 4};
  if (bench::fullScale()) {
    sizes.insert(sizes.begin() + 3, 8);
    widths.push_back(8);
  }
  const ResourceBudget budget =
      bench::parseBudget(/*timeoutSecs=*/300, /*memBudgetMb=*/1024,
                         /*satConflicts=*/1500000);

  const bool noInp = bench::noInprocess();
  bench::JsonReport json(
      noInp ? "table2_pe_only_no_inprocess" : "table2_pe_only", jobs);
  core::VerifyRequest base;
  base.strategy = core::Strategy::PositiveEqualityOnly;
  base.inprocess = !noInp;
  bench::applyBudget(base, budget);
  const std::vector<core::VerifyRequest> cells =
      core::makeGridRequests(sizes, widths, base);
  core::GridRunOptions gopts;
  gopts.jobs = jobs;
  const std::vector<core::GridCellResult> results =
      core::runGrid(cells, gopts);

  bench::printHeader(
      "Table 2: SAT-checking time [s] for correctness, Positive Equality "
      "ONLY\n(rows: ROB size; columns: issue/retire width; 'mem-out'/'t/o' "
      "= memory/wall\nbudget exhausted — the paper's 'Out of Memory' "
      "entries; '>' = SAT conflict\nbudget exhausted)",
      "size\\width", widths);
  std::size_t idx = 0;  // results follow makeGridRequests' (sizes × widths)
                        // order
  for (unsigned n : sizes) {
    bench::printRowLabel(n);
    for (unsigned k : widths) {
      if (k > n) {
        bench::printDash();
        continue;
      }
      const core::GridCellResult& r = results[idx++];
      json.add(r, "pe-only");
      const double satSeconds = r.response.seconds.sat;
      switch (r.response.verdict) {
        case core::Verdict::Correct:
          bench::printCell(satSeconds);
          break;
        case core::Verdict::Inconclusive: {
          char buf[32];
          std::snprintf(buf, sizeof buf, ">%.0f", satSeconds);
          bench::printCellText(buf);
          break;
        }
        case core::Verdict::MemOut:
          bench::printCellText("mem-out");
          break;
        case core::Verdict::Timeout:
          bench::printCellText("t/o");
          break;
        default:
          bench::printCellText("BUG?");
          break;
      }
    }
    bench::endRow();
  }
  std::printf(
      "\n(per-cell budget: %.0f s wall, %zu MiB arena, %lld SAT conflicts; "
      "override with\nREPRO_TIMEOUT_SECS / REPRO_MEM_BUDGET_MB / "
      "REPRO_SAT_BUDGET; %u jobs)\n",
      budget.wallSeconds, budget.memoryBytes / (1024 * 1024),
      static_cast<long long>(budget.satConflicts), jobs);
  json.note("inprocess", noInp ? 0 : 1);
  json.note("conflict_budget", static_cast<double>(budget.satConflicts));
  json.note("timeout_seconds", budget.wallSeconds);
  json.note("mem_budget_mb",
            static_cast<double>(budget.memoryBytes) / (1024 * 1024));
  json.write();
  return 0;
}
