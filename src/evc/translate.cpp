#include "evc/translate.hpp"

#include "evc/memory.hpp"
#include "evc/polarity.hpp"
#include "evc/ufelim.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace velev::evc {

using eufm::Expr;

namespace {

/// Publish the Table-3 / Table-5 quantities on the active trace collector
/// (no-ops when tracing is off). Names are part of the documented scheme —
/// see docs/TRACE_FORMAT.md before renaming.
void traceStats(const TranslationStats& s) {
  namespace tr = velev::trace;
  if (tr::active() == nullptr) return;
  tr::counterSet("evc.eij_vars", s.eijVars);
  tr::counterSet("evc.other_primary_vars", s.otherPrimaryVars);
  tr::counterSet("evc.p_equations", s.pEquations);
  tr::counterSet("evc.g_equations", s.gEquations);
  tr::counterSet("evc.g_vars", s.gVars);
  tr::counterSet("evc.memory_equations", s.memoryEquations);
  tr::counterSet("evc.fresh_term_vars", s.freshTermVars);
  tr::counterSet("evc.fresh_bool_vars", s.freshBoolVars);
  tr::counterSet("evc.transitivity_fill_in_edges", s.transitivity.fillInEdges);
  tr::counterSet("evc.transitivity_triangles", s.transitivity.triangles);
  tr::counterSet("evc.transitivity_clauses", s.transitivity.clauses);
  tr::counterSet("cnf.vars", s.cnfVars);
  tr::counterSet("cnf.clauses", s.cnfClauses);
}

}  // namespace

const char* ufSchemeName(UfScheme s) { return names::nameOf(s); }

std::optional<UfScheme> ufSchemeFromName(std::string_view name) {
  return names::fromName<UfScheme>(name);
}

Translation translate(eufm::Context& cx, Expr correctness,
                      const TranslateOptions& opts) {
  Translation tr;

  // 1. Memory elimination.
  const MemoryElimResult mem = [&] {
    TRACE_SPAN("translate.memory");
    return opts.conservativeMemory ? eliminateMemoryConservative(cx, correctness)
                                   : eliminateMemoryFull(cx, correctness);
  }();
  tr.stats.memoryEquations = mem.memoryEquations;

  // 2. Positive-equality classification.
  const Classification cl = [&] {
    TRACE_SPAN("translate.classify");
    return classify(cx, mem.root);
  }();
  tr.stats.gEquations = cl.gEquations;
  tr.stats.pEquations = cl.pEquations;

  // 3. UF/UP elimination.
  std::unordered_set<Expr> gVars;
  UfElimResult uf;
  {
    TRACE_SPAN("translate.ufelim");
    if (opts.ufScheme == UfScheme::NestedIte) {
      uf = eliminateUf(cx, mem.root, cl);
      gVars = cl.gVars;
      gVars.insert(uf.freshGVars.begin(), uf.freshGVars.end());
    } else {
      // Ackermann: the consistency antecedents put every equality in mixed
      // polarity, so the classification must be redone on the result — the
      // Positive Equality reduction is forfeited (ablation baseline).
      uf = eliminateUfAckermann(cx, mem.root, cl);
      const Classification cl2 = classify(cx, uf.root);
      gVars = cl2.gVars;
      tr.stats.gEquations = cl2.gEquations;
      tr.stats.pEquations = cl2.pEquations;
    }
  }
  tr.stats.freshTermVars = uf.freshTermVars;
  tr.stats.freshBoolVars = uf.freshBoolVars;
  tr.stats.gVars = static_cast<unsigned>(gVars.size());

  // 4. Propositional encoding with e_ij variables.
  Encoding enc = [&] {
    TRACE_SPAN("translate.encode");
    return encode(cx, uf.root, gVars);
  }();
  tr.stats.eijVars = enc.numEij();
  tr.stats.otherPrimaryVars = enc.numOtherPrimary();

  // 5. CNF of the negation + transitivity constraints. Both sub-steps fan
  // out on opts.pool (inline without one), with output identical either way.
  if (opts.pool != nullptr)
    velev::trace::counterSet("evc.parallel.jobs", opts.pool->size());
  if (opts.emitCnf) {
    TRACE_SPAN("translate.cnf");
    tr.cnf = prop::tseitin(*enc.pctx, enc.root, /*negateRoot=*/true,
                           opts.pool);
  } else {
    // BDD engine: no Tseitin — the CNF carries only the transitivity
    // constraints, whose fill-in variables number after the AIG inputs.
    tr.cnf.numVars = enc.pctx->numVars();
  }
  {
    TRACE_SPAN("translate.transitivity");
    std::map<std::pair<Expr, Expr>, std::uint32_t> eijCnfVars;
    for (const auto& [pair, lit] : enc.eijLit)
      eijCnfVars.emplace(pair, enc.pctx->varIndex(prop::nodeOf(lit)) + 1);
    tr.stats.transitivity = addTransitivityConstraints(
        eijCnfVars, tr.cnf, cx.budgetGovernor(), opts.pool);
  }
  tr.stats.cnfVars = tr.cnf.numVars;
  tr.stats.cnfClauses = tr.cnf.numClauses();
  traceStats(tr.stats);

  tr.ufRoot = uf.root;
  tr.validityRoot = enc.root;
  tr.boolVarLit = std::move(enc.boolVarLit);
  tr.eijLit = std::move(enc.eijLit);
  tr.pctx = std::move(enc.pctx);
  return tr;
}

std::span<const prop::Clause> Translation::transitivityClauses() const {
  const std::size_t n = stats.transitivity.clauses;
  VELEV_CHECK(n <= cnf.clauses.size());
  return std::span<const prop::Clause>(cnf.clauses).last(n);
}

std::optional<bool> Translation::modelValue(
    const eufm::Context& cx, Expr boolVar,
    const std::vector<bool>& model) const {
  VELEV_CHECK(cx.kind(boolVar) == eufm::Kind::BoolVar);
  auto it = boolVarLit.find(boolVar);
  if (it == boolVarLit.end()) return std::nullopt;
  const std::uint32_t var = pctx->varIndex(prop::nodeOf(it->second)) + 1;
  if (var >= model.size()) return std::nullopt;
  return model[var] != prop::isNegated(it->second);
}

}  // namespace velev::evc
