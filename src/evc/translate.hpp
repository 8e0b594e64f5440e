// EVC: end-to-end translation of an EUFM correctness formula to CNF.
//
// Pipeline (Sect. 2 of the paper):
//   1. memory elimination — full forwarding semantics, or the conservative
//      general-UF abstraction (used after the rewriting rules);
//   2. p-/g-term classification (Positive Equality);
//   3. UF/UP elimination by the nested-ITE scheme;
//   4. propositional encoding with e_ij variables for g-variable pairs;
//   5. Tseitin CNF of the *negated* formula plus transitivity constraints —
//      the design is correct iff this CNF is unsatisfiable.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "eufm/expr.hpp"
#include "support/names.hpp"
#include "evc/encode.hpp"
#include "evc/transitivity.hpp"
#include "prop/cnf.hpp"

namespace velev::evc {

enum class UfScheme {
  NestedIte,  // Bryant–German–Velev: preserves Positive Equality (default)
  Ackermann,  // ablation baseline: forfeits Positive Equality
};

/// Stable lower-case name ("nested-ite" / "ackermann") used by the run
/// manifests and the velev_serve request schema.
const char* ufSchemeName(UfScheme s);

/// Inverse of ufSchemeName(); unknown names yield nullopt.
std::optional<UfScheme> ufSchemeFromName(std::string_view name);

struct TranslateOptions {
  /// Use the conservative (general-UF) memory model. Sound always; complete
  /// enough once out-of-order updates have been removed by rewriting.
  bool conservativeMemory = false;
  UfScheme ufScheme = UfScheme::NestedIte;
  /// With false, the Tseitin step is skipped: `cnf` then holds *only* the
  /// transitivity constraints (numVars starts at the AIG input count, so
  /// fill-in edges number straight after the inputs). The BDD engine uses
  /// this — it consumes validityRoot directly and needs just the side
  /// clauses, not the CNF of the formula.
  bool emitCnf = true;
  /// Optional threads for the CNF build: Tseitin clause shards and the
  /// transitivity chordalization's comparison-graph components each fan out
  /// in one parallelFor. Output and stats are identical to nullptr (inline)
  /// for any thread count.
  ThreadPool* pool = nullptr;
};

struct TranslationStats {
  unsigned eijVars = 0;
  unsigned otherPrimaryVars = 0;  // Boolean variables of the formula
  unsigned totalPrimaryVars() const { return eijVars + otherPrimaryVars; }
  std::size_t cnfVars = 0;
  std::size_t cnfClauses = 0;
  unsigned gEquations = 0;
  unsigned pEquations = 0;
  unsigned gVars = 0;
  unsigned memoryEquations = 0;
  unsigned freshTermVars = 0;
  unsigned freshBoolVars = 0;
  TransitivityStats transitivity;
};

struct Translation {
  /// Propositional form of the correctness formula (validity target).
  std::unique_ptr<prop::PropCtx> pctx;
  prop::PLit validityRoot = prop::kFalse;
  /// The UF-free, memory-free EUFM formula the encoding step consumed
  /// (after memory elimination and UF/UP elimination). A decoded SAT model
  /// assigns values to exactly the variables of this formula, so it is the
  /// formula a counterexample decoder re-evaluates (src/fuzz/decode).
  eufm::Expr ufRoot = eufm::kNoExpr;
  /// CNF of ¬validityRoot plus transitivity constraints: UNSAT <=> correct.
  prop::Cnf cnf;
  TranslationStats stats;

  /// Variable maps for decoding SAT models back to the EUFM level: a
  /// propositional input literal's CNF variable is its input index + 1.
  std::unordered_map<eufm::Expr, prop::PLit> boolVarLit;
  std::map<std::pair<eufm::Expr, eufm::Expr>, prop::PLit> eijLit;

  /// Value of an EUFM Boolean variable in a SAT model (indexed by CNF
  /// variable, entry 0 unused); nullopt if the variable does not occur.
  std::optional<bool> modelValue(const eufm::Context& cx, eufm::Expr boolVar,
                                 const std::vector<bool>& model) const;

  /// The transitivity constraints over the e_ij (plus fill-in) CNF
  /// variables — always the trailing stats.transitivity.clauses clauses of
  /// `cnf`, whichever way it was built: addTransitivityConstraints appends
  /// them last, and Tseitin auxiliaries never occur in them. The BDD
  /// engine conjoins exactly these beside ¬validityRoot; dropping them
  /// would make a satisfying path an unsound counterexample claim.
  std::span<const prop::Clause> transitivityClauses() const;
};

Translation translate(eufm::Context& cx, eufm::Expr correctness,
                      const TranslateOptions& opts = {});

}  // namespace velev::evc

/// Name-registry table (support/names.hpp): the single source of truth
/// behind ufSchemeName()/ufSchemeFromName().
template <>
struct velev::names::Registry<velev::evc::UfScheme> {
  static constexpr EnumEntry<velev::evc::UfScheme> entries[] = {
      {velev::evc::UfScheme::NestedIte, "nested-ite"},
      {velev::evc::UfScheme::Ackermann, "ackermann"},
  };
};
