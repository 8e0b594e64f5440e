#include "prop/cnf.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "support/budget.hpp"
#include "support/parse_number.hpp"
#include "support/thread_pool.hpp"

namespace velev::prop {

// Tseitin translation, in two passes so clause emission can be sharded
// across threads:
//   pass 1 (sequential) — the postorder cone traversal; assigns every And
//     node its auxiliary CNF variable in visit order and records the
//     (v, a, b) literal triple. Variable numbering is therefore identical
//     to the classic single-pass translation and independent of the pool.
//   pass 2 — each recorded triple expands to the three v <-> a & b
//     clauses. The triple list is cut into shards, one per pool thread (one
//     without a pool), whose clause buffers are concatenated in shard
//     order, so the clause list is byte-identical for any thread count.
Cnf tseitin(const PropCtx& cx, PLit root, bool negateRoot, ThreadPool* pool) {
  Cnf cnf;
  cnf.numVars = cx.numVars();
  if (negateRoot) root = negate(root);

  if (root == kTrue) return cnf;  // no clauses: trivially satisfiable
  if (root == kFalse) {
    cnf.addClause({});  // the empty clause: trivially unsatisfiable
    return cnf;
  }

  // CNF variable for each AIG node in the cone (inputs keep var index + 1).
  std::unordered_map<std::uint32_t, std::uint32_t> nodeVar;
  auto varFor = [&](std::uint32_t node) -> std::uint32_t {
    if (cx.isVarNode(node)) return cx.varIndex(node) + 1;
    auto it = nodeVar.find(node);
    if (it != nodeVar.end()) return it->second;
    const std::uint32_t v = cnf.newVar();
    nodeVar.emplace(node, v);
    return v;
  };
  auto litFor = [&](PLit l) -> CnfLit {
    const CnfLit v = static_cast<CnfLit>(varFor(nodeOf(l)));
    return isNegated(l) ? -v : v;
  };

  // The CNF can dwarf the AIG it came from, so its growth is governed too:
  // a separate byte-accounting slot tracks projected clause-storage bytes
  // (literal payload plus per-clause vector overhead) on a strided
  // checkpoint. The projection is charged during pass 1, before the
  // clauses are materialized, so a doomed translation trips early.
  BudgetGovernor* const governor = cx.budgetGovernor();
  const int budgetSource =
      governor != nullptr ? governor->registerSource() : -1;
  std::size_t clauseBytes = 0;
  std::uint32_t budgetTick = 0;

  // Pass 1: iterative postorder over And nodes.
  struct Gate {
    CnfLit v, a, b;
  };
  std::vector<Gate> gates;
  std::vector<std::uint32_t> stack = {nodeOf(root)};
  std::vector<char> seen;
  auto visited = [&](std::uint32_t n) -> char& {
    if (seen.size() <= n) seen.resize(n + 1, 0);
    return seen[n];
  };
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (visited(n) || cx.isVarNode(n)) continue;
    visited(n) = 1;
    // Each processed node emits three clauses (7 literals) and at most one
    // map entry; accumulate instead of rescanning the clause database.
    clauseBytes += 7 * sizeof(CnfLit) + 3 * (sizeof(Clause) + 16) + 48 + 1;
    if (governor != nullptr && (++budgetTick & 0x3ffu) == 0)
      governor->checkpoint(budgetSource, clauseBytes);
    VELEV_CHECK(cx.isAndNode(n));
    const PLit a = cx.andLeft(n), b = cx.andRight(n);
    const CnfLit lv = static_cast<CnfLit>(varFor(n));
    const CnfLit la = litFor(a), lb = litFor(b);
    gates.push_back(Gate{lv, la, lb});
    if (!cx.isVarNode(nodeOf(a))) stack.push_back(nodeOf(a));
    if (!cx.isVarNode(nodeOf(b))) stack.push_back(nodeOf(b));
  }
  if (governor != nullptr) governor->checkpoint(budgetSource, clauseBytes);

  // Pass 2: clause emission, one shard per pool thread when the formula is
  // big enough for the fan-out to pay; shards concatenate in order.
  constexpr std::size_t kParallelThreshold = 4096;
  const std::size_t shards =
      pool != nullptr && gates.size() >= kParallelThreshold ? pool->size() : 1;
  const std::size_t chunk = (gates.size() + shards - 1) / shards;
  std::vector<std::vector<Clause>> out(shards);
  parallelFor(pool, shards, [&](std::size_t s) {
    const std::size_t lo = std::min(gates.size(), s * chunk);
    const std::size_t hi = std::min(gates.size(), lo + chunk);
    out[s].reserve((hi - lo) * 3);
    for (std::size_t i = lo; i < hi; ++i) {
      const CnfLit lv = gates[i].v, la = gates[i].a, lb = gates[i].b;
      // v <-> a & b
      out[s].push_back({-lv, la});
      out[s].push_back({-lv, lb});
      out[s].push_back({lv, -la, -lb});
      // Bytes were projected in pass 1; this is a deadline-only poll.
      if (governor != nullptr && ((i - lo) & 0x3ffu) == 0x3ffu)
        governor->checkpoint(-1, 0);
    }
  });
  cnf.clauses = std::move(out[0]);
  cnf.clauses.reserve(gates.size() * 3 + 1);
  for (std::size_t s = 1; s < shards; ++s)
    std::move(out[s].begin(), out[s].end(), std::back_inserter(cnf.clauses));
  cnf.addClause({litFor(root)});
  return cnf;
}

void writeDimacs(const Cnf& cnf, std::ostream& os) {
  os << "p cnf " << cnf.numVars << ' ' << cnf.numClauses() << '\n';
  for (const auto& c : cnf.clauses) {
    for (CnfLit l : c) os << l << ' ';
    os << "0\n";
  }
}

Cnf parseDimacs(std::istream& is) {
  Cnf cnf;
  std::string line, token;
  bool sawHeader = false;
  Clause current;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    if (line[0] == 'p') {
      std::string p, fmt, vars, clauses;
      ls >> p >> fmt >> vars >> clauses;
      VELEV_CHECK_MSG(fmt == "cnf", "unsupported DIMACS format: " << fmt);
      // Variables must fit a positive CnfLit, so every literal negates.
      const auto numVars = parseNumber<std::uint32_t>(
          vars, 0, std::numeric_limits<CnfLit>::max());
      VELEV_CHECK_MSG(
          numVars.has_value() &&
              parseNumber<std::uint64_t>(
                  clauses, 0, std::numeric_limits<std::uint64_t>::max()),
          "DIMACS header needs two non-negative counts, at most "
              << std::numeric_limits<CnfLit>::max()
              << " variables: " << line);
      cnf.numVars = *numVars;
      sawHeader = true;
      continue;
    }
    VELEV_CHECK_MSG(sawHeader, "DIMACS clause before p-line");
    const auto bound = static_cast<CnfLit>(cnf.numVars);
    while (ls >> token) {
      const std::optional<CnfLit> lit =
          parseNumber<CnfLit>(token, -bound, bound);
      VELEV_CHECK_MSG(lit.has_value(), "DIMACS literal '" << token
                                           << "' is not an integer in -"
                                           << bound << ".." << bound);
      if (*lit == 0) {
        cnf.addClause(std::move(current));
        current.clear();
      } else {
        current.push_back(*lit);
      }
    }
  }
  VELEV_CHECK_MSG(current.empty(), "unterminated final clause");
  return cnf;
}

}  // namespace velev::prop
