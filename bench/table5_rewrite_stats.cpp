// Table 5 — statistics of the CNF formulas for correctness when BOTH
// rewriting rules and Positive Equality are used.
//
// The paper's headline structural results reproduce exactly:
//   * the formulas contain NO e_ij variables (newly fetched instructions
//     execute strictly in program order on both sides of the diagram, so
//     read/write are abstracted with general uninterpreted functions);
//   * the statistics are INDEPENDENT of the ROB size — the instructions
//     initially in the ROB were removed by the rewriting rules. We verify
//     this by running every width at two different ROB sizes and checking
//     the resulting CNFs have identical statistics.
// Each width column is independent (two verify() calls, each with its own
// eufm::Context); `--jobs N` (or REPRO_JOBS) runs the columns in one
// parallelFor on N threads. Machine-readable results:
// BENCH_table5_rewrite_stats.json.
#include <cstdio>

#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "support/thread_pool.hpp"

using namespace velev;

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  const unsigned jobs = bench::parseJobs(argc, argv);
  std::vector<unsigned> widths = {1, 2, 4, 8, 16, 32};
  if (bench::fullScale()) {
    widths.push_back(64);
    widths.push_back(128);
  }

  struct Col {
    core::VerifyReport rep;
    bool sizeIndependent;
    double wallSeconds;
  };
  std::vector<Col> cols(widths.size());
  const ThreadPool pool(jobs);
  parallelFor(&pool, widths.size(), [&](std::size_t i) {
    const unsigned k = widths[i];
    core::VerifyRequest req;
    req.issueWidth = k;
    Col& col = cols[i];
    Timer t;
    req.robSize = std::max(4 * k, 64u);
    col.rep = core::verify(req);
    req.robSize = std::max(k, 2u);
    const core::VerifyReport small = core::verify(req);
    col.wallSeconds = t.seconds();
    col.sizeIndependent =
        small.evcStats.cnfVars == col.rep.evcStats.cnfVars &&
        small.evcStats.cnfClauses == col.rep.evcStats.cnfClauses &&
        small.evcStats.eijVars == col.rep.evcStats.eijVars;
  });

  bench::JsonReport json("table5_rewrite_stats", jobs);
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const models::OoOConfig cfg{std::max(4 * widths[i], 64u), widths[i]};
    bench::writeStandardBench(
        json, cfg,
        cols[i].sizeIndependent ? "size-independent" : "SIZE-DEPENDENT",
        cols[i].rep, cols[i].wallSeconds);
  }

  std::printf(
      "Table 5: CNF statistics with rewriting rules + Positive Equality\n"
      "(columns: issue/retire width; independent of ROB size — checked "
      "against two sizes per column)\n");
  std::printf("%-24s", "width");
  for (unsigned k : widths) std::printf(" | %9u", k);
  std::printf("\n------------------------");
  for (std::size_t i = 0; i < widths.size(); ++i) std::printf("-+----------");
  std::printf("\n");

  auto row = [&](const char* label, auto proj) {
    std::printf("%-24s", label);
    for (const Col& c : cols) std::printf(" | %9s", proj(c).c_str());
    std::printf("\n");
  };
  auto num = [](auto v) {
    return std::to_string(static_cast<unsigned long long>(v));
  };
  row("e_ij primary vars",
      [&](const Col& c) { return num(c.rep.evcStats.eijVars); });
  row("other primary vars",
      [&](const Col& c) { return num(c.rep.evcStats.otherPrimaryVars); });
  row("total primary vars",
      [&](const Col& c) { return num(c.rep.evcStats.totalPrimaryVars()); });
  row("CNF variables",
      [&](const Col& c) { return num(c.rep.evcStats.cnfVars); });
  row("CNF clauses",
      [&](const Col& c) { return num(c.rep.evcStats.cnfClauses); });
  row("rewrite rules fired",
      [&](const Col& c) { return num(c.rep.rewriteStats.rulesFired()); });
  row("ROB updates removed",
      [&](const Col& c) { return num(c.rep.updatesRemoved); });
  row("SAT time [s]", [&](const Col& c) {
    char b[32];
    std::snprintf(b, sizeof b, "%.2f", c.rep.satSeconds());
    return std::string(b);
  });
  row("size-independent?", [&](const Col& c) {
    return std::string(c.sizeIndependent ? "yes" : "NO!");
  });
  row("verdict", [&](const Col& c) {
    return std::string(c.rep.verdict() == core::Verdict::Correct ? "correct"
                                                                 : "PROBLEM");
  });
  json.write();
  return 0;
}
