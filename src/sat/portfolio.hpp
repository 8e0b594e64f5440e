// SAT seed portfolio: race K diversified CDCL instances on one CNF.
//
// The Burch–Dill correctness CNFs (especially on the PE-only path, where
// the SAT back end dominates — Tables 2/3) respond strongly to the solver's
// tie-breaking: different VSIDS seeds, initial phases and restart schedules
// explore very different parts of the search space. The portfolio runs K
// solver instances concurrently on the same formula, takes the first
// decisive verdict, and cancels the losers cooperatively (they poll an
// atomic between propagation rounds).
//
// Guarantees:
//   * the verdict is seed-independent — SAT/UNSAT is a semantic property of
//     the CNF, so whichever instance wins, the answer is the same (the test
//     suite checks this property over seeds × instance counts);
//   * instance 0 always runs the caller's base options verbatim, so a
//     1-instance portfolio is bit-for-bit the sequential solver;
//   * when a proof is requested, every instance logs its own DRAT trace and
//     the winner's is returned — it certifies UNSAT through checkRup()
//     exactly like a sequential proof.
#pragma once

#include <cstdint>
#include <vector>

#include "prop/cnf.hpp"
#include "sat/drat.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"

namespace velev::sat {

struct PortfolioOptions {
  unsigned instances = 2;        // K racing solvers (clamped to >= 1)
  std::uint64_t baseSeed = 0x9e3779b97f4a7c15ULL;
  std::int64_t conflictBudget = -1;  // per instance; <0 unlimited
  Options base;                  // instance 0 runs exactly these options
  bool wantProof = false;        // log DRAT everywhere, return the winner's
  /// Optional shared resource governor: every instance registers its own
  /// byte-accounting slot (the memory trip condition sees the *sum* over
  /// the race) and polls it between propagation rounds; exhaustion stops
  /// the whole race with Result::Unknown. Must outlive the call.
  BudgetGovernor* budget = nullptr;
  /// Assumption literals (DIMACS, in `cnf`'s variable space): the race
  /// decides "cnf ∧ assumptions". On an assumption-caused Unsat the
  /// winner's failed-assumption clause lands in the report; with wantProof
  /// the proof certifies via checkRupUnderAssumptions().
  std::vector<prop::CnfLit> assumptions;
  /// Inprocessing front end, run ONCE before the race; all K instances
  /// share the simplified CNF (and the race shares one reconstruction
  /// stack). Disabled by default so a 1-instance portfolio stays
  /// bit-for-bit the plain sequential solver.
  InprocessOptions inprocess = [] {
    InprocessOptions o;
    o.enabled = false;
    return o;
  }();
};

struct PortfolioReport {
  Result result = Result::Unknown;
  int winner = -1;               // instance index, -1 if all inconclusive
  std::uint64_t winnerSeed = 0;
  Stats winnerStats;             // stats of the winning instance
  std::vector<Stats> instanceStats;  // per-instance, index = instance id
  std::vector<std::uint64_t> instanceSeeds;  // VSIDS seed of each instance
  std::vector<bool> model;       // DIMACS-indexed (entry 0 unused) when Sat
  Proof proof;                   // winner's DRAT proof (wantProof && Unsat)
  double seconds = 0;            // wall time of the whole race
  prop::Clause failedAssumptions;    // winner's, after an assumption Unsat
  InprocessStats inprocessStats;     // of the shared front-end run
};

/// Solver options of portfolio instance `i` (exposed for the determinism
/// property tests): i == 0 is `opts.base` unchanged; i > 0 perturbs seed,
/// initial phases, random-decision frequency and the restart unit.
Options portfolioInstanceOptions(const PortfolioOptions& opts, unsigned i);

/// Race the portfolio on `cnf`. Returns Unknown only if every instance
/// exhausted its conflict budget.
Result solvePortfolio(const prop::Cnf& cnf, const PortfolioOptions& opts,
                      PortfolioReport* report = nullptr);

}  // namespace velev::sat
