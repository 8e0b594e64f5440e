// SAT vs BDD decision-engine comparison on the same translated formulas.
//
// Each cell is verified twice — once with Engine::Sat (Tseitin CNF +
// inprocessing + CDCL) and once with Engine::Bdd (shared ROBDDs built
// straight from the AIG, no Tseitin) — under the same deterministic logical
// budget. The bench reports both engines' per-stage times and the BDD's
// peak node count, and cross-checks the verdicts: any conclusive
// disagreement makes the bench exit non-zero (the CI cross-check rides on
// this plus `velev_verify --engine both`).
//
// Two cell families:
//   * PE-only strategy inside the fuzzer's feasibility envelope, where the
//     full e_ij/transitivity encoding is exercised (the hard case for both
//     engines — Table 2's blowup is what the budget guards against);
//   * the rewriting strategy at paper-like sizes, where the surviving
//     formula is small and size-independent (Table 5) — the BDD engine
//     should be comfortable here at any ROB size.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "support/timer.hpp"

using namespace velev;

namespace {

struct Case {
  unsigned n = 0, k = 0;
  bool peOnly = true;
  models::BugSpec bug;
};

bool conclusive(core::Verdict v) {
  return v == core::Verdict::Correct ||
         v == core::Verdict::CounterexampleFound ||
         v == core::Verdict::RewriteMismatch;
}

}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IONBF, 0);

  std::vector<Case> cases = {
      {2, 1, true, {}},
      {3, 1, true, {}},
      {2, 2, true, {}},
      {3, 2, true, {}},
      {4, 2, true, {}},
      {3, 2, true, {models::BugKind::ForwardingWrongOperand, 2}},
      {4, 2, false, {}},
      {8, 4, false, {}},
  };
  if (bench::fullScale()) {
    cases.push_back({6, 1, true, {}});
    cases.push_back({3, 3, true, {}});
    cases.push_back({16, 4, false, {}});
  }

  // Logical budgets keep the verdicts deterministic; an over-budget cell
  // records timeout/memout and drops out of the agreement check instead of
  // hanging the sweep.
  const ResourceBudget budget = bench::parseBudget(
      /*timeoutSecs=*/0, /*memBudgetMb=*/1024, /*satConflicts=*/300000);

  bench::JsonReport json("engine_compare");
  std::printf("Decision-engine comparison: CNF+CDCL vs shared ROBDDs\n\n");
  std::printf("%5s %-8s %-4s | %-10s | %-9s | %9s | %9s | %11s\n",
              "cell", "strategy", "bug", "sat verdict", "bdd same?",
              "sat [s]", "bdd [s]", "peak nodes");
  std::printf("---------------------+------------+-----------+-----------+-"
              "----------+------------\n");

  unsigned disagreements = 0;
  for (const Case& c : cases) {
    const models::OoOConfig cfg{c.n, c.k};
    core::VerifyRequest req;
    req.robSize = c.n;
    req.issueWidth = c.k;
    req.bug = c.bug;
    req.strategy = c.peOnly ? core::Strategy::PositiveEqualityOnly
                            : core::Strategy::RewritingPlusPositiveEquality;
    bench::applyBudget(req, budget);

    req.engine = core::Engine::Sat;
    Timer t;
    const core::VerifyReport satRep = core::verify(req);
    const double satWall = t.seconds();

    req.engine = core::Engine::Bdd;
    t.reset();
    const core::VerifyReport bddRep = core::verify(req);
    const double bddWall = t.seconds();

    const bool bothConclusive = conclusive(satRep.verdict()) &&
                                conclusive(bddRep.verdict());
    const bool agree = satRep.verdict() == bddRep.verdict();
    if (bothConclusive && !agree) ++disagreements;

    char cell[16];
    std::snprintf(cell, sizeof cell, "%ux%u", c.n, c.k);
    std::printf("%5s %-8s %-4s | %-10s | %-9s | %9.3f | %9.3f | %11llu\n",
                cell, c.peOnly ? "pe" : "rewrite",
                c.bug.kind == models::BugKind::None ? "-" : "fwd",
                core::verdictName(satRep.verdict()),
                !bothConclusive ? "(n/a)" : agree ? "yes" : "NO!",
                satWall, bddWall,
                static_cast<unsigned long long>(bddRep.bddStats.nodesPeak));

    const std::string base = std::string(cell) +
                             (c.peOnly ? "-pe" : "-rw") +
                             (c.bug.kind == models::BugKind::None ? ""
                                                                  : "-bug");
    bench::writeStandardBench(json, cfg, base + "-sat", satRep, satWall);
    bench::writeStandardBench(json, cfg, base + "-bdd", bddRep, bddWall);
  }

  json.note("disagreements", disagreements);
  json.write();
  if (disagreements != 0) {
    std::fprintf(stderr,
                 "error: %u conclusive SAT/BDD verdict disagreement(s)\n",
                 disagreements);
    return 1;
  }
  return 0;
}
