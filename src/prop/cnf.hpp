// CNF representation and Tseitin translation from the AIG.
//
// Variables are 1-based as in DIMACS; a literal is ±var. The first
// PropCtx::numVars() CNF variables are the AIG input variables (CNF var
// i+1 = input i), so models found by the SAT solver map directly back to
// the abstract-processor control signals when diagnosing a failed proof.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "prop/prop.hpp"

namespace velev {
class ThreadPool;
}  // namespace velev

namespace velev::prop {

using CnfLit = std::int32_t;
using Clause = std::vector<CnfLit>;

struct Cnf {
  std::uint32_t numVars = 0;
  std::vector<Clause> clauses;

  std::size_t numClauses() const { return clauses.size(); }
  std::size_t numLiterals() const {
    std::size_t n = 0;
    for (const auto& c : clauses) n += c.size();
    return n;
  }
  void addClause(Clause c) { clauses.push_back(std::move(c)); }
  /// Allocate a fresh CNF variable, returning its (positive) index.
  std::uint32_t newVar() { return ++numVars; }
};

/// Tseitin-translate `root` (negated first if `negateRoot`) over `cx` into
/// CNF: the result is satisfiable iff the (possibly negated) root is.
/// Only the cone of `root` is translated. Auxiliary Tseitin variables are
/// appended after the input variables. With a non-null `pool`, clause
/// emission is sharded across its threads; the resulting CNF (variable
/// numbering and clause order) is identical for any thread count.
Cnf tseitin(const PropCtx& cx, PLit root, bool negateRoot,
            ThreadPool* pool = nullptr);

/// Write in DIMACS `p cnf` format.
void writeDimacs(const Cnf& cnf, std::ostream& os);

/// Parse DIMACS (for the standalone SAT example and tests). Throws
/// InternalError on malformed input: a header without two non-negative
/// integer counts or with more than INT32_MAX variables, or a token that is
/// not an integer within ±numVars.
Cnf parseDimacs(std::istream& is);

}  // namespace velev::prop
