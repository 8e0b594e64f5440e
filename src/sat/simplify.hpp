// CNF inprocessing: the classic simplification passes applied to a CNF
// before it is solved, with a model-reconstruction stack.
//
// The e_ij encodings of the Burch–Dill correctness formulas are large and
// highly redundant (Bryant–German–Velev): Tseitin definitions that collapse
// under unit propagation, equivalent literals from the triangle-shaped
// transitivity clauses, and functionally-defined variables that bounded
// variable elimination resolves away. The pipeline runs, per round:
//
//   1. level-0 unit propagation + clause cleanup,
//   2. SCC-based equivalent-literal substitution (binary implication graph),
//   3. subsumption and self-subsumption (one backward pass over occurrence
//      lists, candidates filtered by 64-bit clause signatures),
//   4. vivification (assume the negated clause prefix, shorten on conflict),
//   5. failed-literal probing,
//   6. bounded variable elimination (NiVER-style: never increase the
//      clause count).
//
// SOUNDNESS CONTRACT. Every transformation is either an equivalence
// (subsumption, strengthening, units) or an equisatisfiability step with an
// inverse recorded on the Reconstructor stack (variable elimination,
// literal substitution). Reconstructor::extend() turns any model of the
// simplified CNF into a model of the original CNF over ALL original
// variables — counterexample decoding (fuzz/decode.cpp) reads primary
// inputs from the model, so the extension is not optional. Frozen
// variables are never eliminated or substituted, which keeps conditional
// equisatisfiability: for every assignment of the frozen variables, the
// simplified and original CNFs agree on satisfiability.
//
// PROOF CONTRACT. With a Proof attached, every added clause is RUP with
// respect to the checker database at that point (resolvents, strengthened
// clauses, failed-literal units, substituted clauses — each is derivable
// by one unit-propagation refutation), and every deletion mirrors a
// database removal, so a solver run on the simplified CNF can append its
// learnt clauses and the combined proof RUP-checks against the ORIGINAL
// formula. Unit clauses are never deleted from the proof: the simplified
// CNF re-emits them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "prop/cnf.hpp"
#include "sat/drat.hpp"
#include "sat/solver.hpp"

namespace velev {
class BudgetGovernor;
}  // namespace velev

namespace velev::sat {

struct InprocessOptions {
  bool enabled = true;   // master switch (--no-inprocess clears it)
  bool substitute = true;  // SCC equivalent-literal substitution
  bool subsume = true;     // subsumption + self-subsumption
  bool vivify = true;      // clause vivification
  bool probe = true;       // failed-literal probing
  bool varElim = true;     // bounded variable elimination
  /// Deterministic work caps (logical "ticks": propagating a literal costs
  /// the number of clauses ever attached to it), so budget-capped verdicts
  /// stay machine-independent.
  std::uint64_t vivifyTickLimit = 20'000'000;
  std::uint64_t probeTickLimit = 20'000'000;
};

struct InprocessStats {
  std::uint64_t rounds = 0;
  std::uint64_t clausesBefore = 0;
  std::uint64_t clausesAfter = 0;
  std::uint64_t clausesRemoved = 0;      // subsumed + satisfied + eliminated
  std::uint64_t clausesStrengthened = 0; // self-subsumption + vivification
  std::uint64_t litsRemoved = 0;         // literals dropped by strengthening
  std::uint64_t varsEliminated = 0;      // bounded variable elimination
  std::uint64_t varsSubstituted = 0;     // equivalent-literal substitution
  std::uint64_t failedLiterals = 0;      // probing-derived units
  std::uint64_t unitsDerived = 0;        // all level-0 units found
  std::uint64_t reconstructionDepth = 0; // steps on the reconstruction stack
};

/// The inverse transformations of the satisfiability-preserving (but not
/// equivalence-preserving) passes, replayed in reverse by extend().
class Reconstructor {
 public:
  /// Record `v := value of rep` (rep a DIMACS literal of another variable).
  void pushEquivalence(std::uint32_t var, prop::CnfLit rep);
  /// Record the elimination of `var` together with all clauses that
  /// mentioned it (the clauses define the witness value).
  void pushElimination(std::uint32_t var, std::vector<prop::Clause> clauses);

  std::size_t depth() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

  /// Extend a model of the simplified CNF (DIMACS-indexed, entry 0 unused)
  /// to a model of the original CNF, in place: replays the stack top-down,
  /// so chained substitutions/eliminations resolve in dependency order.
  void extend(std::vector<bool>& model) const;

 private:
  struct Step {
    std::uint32_t var = 0;
    prop::CnfLit rep = 0;               // != 0: equivalence step
    std::vector<prop::Clause> clauses;  // rep == 0: elimination step
  };
  std::vector<Step> steps_;
};

struct SimplifyResult {
  prop::Cnf cnf;          // the simplified formula (same numVars)
  Reconstructor recon;
  InprocessStats stats;
  bool provedUnsat = false;  // simplification alone refuted the formula
};

/// Run the inprocessing pipeline on `in`. Frozen variables (DIMACS, 1-based)
/// are exempt from elimination and substitution. With a `budget`, the
/// passes poll the governor and stop early (leaving a consistent, partially
/// simplified CNF) when a budget trips — never a throw. Emits DRAT steps
/// into `proof` when given. Deterministic for fixed inputs and options.
SimplifyResult inprocess(const prop::Cnf& in, const InprocessOptions& opts,
                         Proof* proof = nullptr,
                         BudgetGovernor* budget = nullptr,
                         std::span<const std::uint32_t> frozen = {});

/// solveCnf with the inprocessing front end: simplify, solve the simplified
/// CNF, and extend a Sat model back onto the original variables. Proof
/// steps (inprocessing first, then the solver's) certify Unsat against the
/// ORIGINAL cnf. With `iopts.enabled == false` this is exactly solveCnf().
Result solveCnfInprocessed(const prop::Cnf& cnf, const InprocessOptions& iopts,
                           std::vector<bool>* model = nullptr,
                           Stats* stats = nullptr,
                           std::int64_t conflictBudget = -1,
                           Proof* proof = nullptr,
                           BudgetGovernor* budget = nullptr,
                           InprocessStats* istats = nullptr);

}  // namespace velev::sat
