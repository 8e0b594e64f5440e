// Table 4 — CPU time for translating the EUFM correctness formula to an
// equivalent Boolean formula when BOTH rewriting rules and Positive
// Equality are used (the paper's contribution). The reported time covers
// the rewriting rules plus the EVC translation with the conservative memory
// model — the stage the paper times in Table 4.
//
// Cells are independent; `--jobs N` (or REPRO_JOBS) runs them on the
// parallel grid runner. Machine-readable results land in
// BENCH_table4_rewrite_time.json.
#include <cstdio>

#include "bench_util.hpp"
#include "core/grid_runner.hpp"

using namespace velev;

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  const unsigned jobs = bench::parseJobs(argc, argv);
  const auto sizes = bench::robSizes();
  const auto widths = bench::issueWidths();

  const bool noInp = bench::noInprocess();
  bench::JsonReport json(
      noInp ? "table4_rewrite_time_no_inprocess" : "table4_rewrite_time",
      jobs);
  core::VerifyRequest base;
  base.strategy = core::Strategy::RewritingPlusPositiveEquality;
  base.skipSat = true;  // translation timing only; Table 5 runs SAT
  // skipSat still runs the inprocessing pipeline (stats only), so the
  // sat.inprocess.clauses_before/after counters record the before/after
  // CNF sizes of the rewriting+PE encoding.
  base.inprocess = !noInp;
  const std::vector<core::VerifyRequest> cells =
      core::makeGridRequests(sizes, widths, base);
  core::GridRunOptions gopts;
  gopts.jobs = jobs;
  const std::vector<core::GridCellResult> results =
      core::runGrid(cells, gopts);

  bench::printHeader(
      "Table 4: EUFM -> Boolean translation time [s] with rewriting rules + "
      "Positive Equality\n(rows: ROB size, columns: issue/retire width)",
      "size\\width", widths);
  std::size_t idx = 0;
  for (unsigned n : sizes) {
    bench::printRowLabel(n);
    for (unsigned k : widths) {
      if (k > n) {
        bench::printDash();
        continue;
      }
      const core::GridCellResult& r = results[idx++];
      json.add(r, "rewrite+translate");
      if (r.response.verdict == core::Verdict::RewriteMismatch) {
        bench::printCellText("BUG?");
      } else {
        bench::printCell(r.response.seconds.rewrite +
                         r.response.seconds.translate);
      }
    }
    bench::endRow();
  }
  std::printf(
      "\n(simulation time is Table 1; SAT time and CNF statistics are "
      "Table 5; %u jobs)\n",
      jobs);
  json.note("inprocess", noInp ? 0 : 1);
  json.write();
  return 0;
}
