// Transitivity constraints over the e_ij variables (Bryant–Velev,
// "Boolean Satisfiability with Transitivity Constraints").
//
// The e_ij encoding is sound only if the Boolean assignment respects
// transitivity of equality: e_ab & e_bc -> e_ac. Enforcing it for every
// triple is cubic in the number of g-variables; instead the comparison
// graph is chordalized by a minimum-degree elimination order (fill-in edges
// get fresh CNF variables), and the three implication clauses are emitted
// for every triangle created during elimination — sufficient for chordal
// graphs.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "eufm/expr.hpp"
#include "prop/cnf.hpp"

namespace velev {
class BudgetGovernor;
class ThreadPool;
}  // namespace velev

namespace velev::evc {

struct TransitivityStats {
  unsigned fillInEdges = 0;
  unsigned triangles = 0;
  unsigned clauses = 0;
};

/// Append transitivity clauses for the comparison graph whose edges are the
/// e_ij variables (given as CNF variable indices) to `cnf`. Fill-in edges
/// allocate fresh CNF variables. Fill-in is where the PE-only flow's
/// quadratic-and-worse blowup lives, so the elimination loop checkpoints
/// `governor` (if given) and unwinds as BudgetExceeded on exhaustion.
///
/// The comparison graph decomposes into connected components that are
/// independent under elimination; with a non-null `pool` the components are
/// chordalized in parallel. Output (clauses, fill-in variable numbering)
/// and stats are identical for any thread count.
TransitivityStats addTransitivityConstraints(
    const std::map<std::pair<eufm::Expr, eufm::Expr>, std::uint32_t>& edges,
    prop::Cnf& cnf, BudgetGovernor* governor = nullptr,
    ThreadPool* pool = nullptr);

}  // namespace velev::evc
