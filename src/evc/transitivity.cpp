#include "evc/transitivity.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "support/budget.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace velev::evc {

namespace {

// Fill-in edges discovered inside a component get provisional CNF variable
// ids >= kProvisionalBase (far above any real variable count); the merge
// remaps them to freshly allocated cnf.newVar() ids in component order, so
// the final numbering is deterministic and independent of worker count.
constexpr std::uint32_t kProvisionalBase = 0x40000000u;

struct ComponentResult {
  std::vector<prop::Clause> clauses;  // provisional lits for fill-in vars
  unsigned fillIn = 0;
  TransitivityStats st;
};

// Minimum-degree elimination restricted to one connected component of the
// comparison graph. Eliminating u connects its remaining neighbours
// pairwise (provisional variables for fill-in edges) and emits the triangle
// constraints (u, a, b) for every such pair.
//
// Components are independent under elimination — removing a vertex never
// changes degrees outside its component — so running each component to
// exhaustion with the same (degree, lowest-id) tie-break yields exactly the
// elimination steps the whole-graph order would have performed on that
// component, and identical fill-in/triangle/clause counts in total.
ComponentResult eliminateComponent(
    const std::vector<unsigned>& verts,
    const std::vector<std::unordered_map<unsigned, std::uint32_t>>& adjIn,
    std::size_t totalEdges, BudgetGovernor* governor) {
  ComponentResult r;
  // Local copy of this component's adjacency (fill-in mutates it).
  std::unordered_map<unsigned, std::unordered_map<unsigned, std::uint32_t>>
      adj;
  for (unsigned u : verts) adj[u] = adjIn[u];
  std::unordered_map<unsigned, char> eliminated;
  for (unsigned u : verts) eliminated[u] = 0;

  auto addTriangle = [&](std::uint32_t ab, std::uint32_t bc,
                         std::uint32_t ac) {
    const auto l = [](std::uint32_t v) { return static_cast<prop::CnfLit>(v); };
    r.clauses.push_back({-l(ab), -l(bc), l(ac)});
    r.clauses.push_back({-l(ab), -l(ac), l(bc)});
    r.clauses.push_back({-l(bc), -l(ac), l(ab)});
    ++r.st.triangles;
    r.st.clauses += 3;
  };

  for (std::size_t round = 0; round < verts.size(); ++round) {
    // One elimination round can emit O(degree^2) triangles; checkpoint the
    // clause bytes emitted so far plus the (fill-in-growing) adjacency.
    // Workers share no slot, so the bytes go to the governor's overflow
    // accounting (max over concurrent callers — the dominant component is
    // what trips a memory budget).
    if (governor != nullptr)
      governor->checkpoint(
          -1, r.st.clauses * (3 * sizeof(prop::CnfLit) +
                              sizeof(prop::Clause) + 16) +
                  (totalEdges + r.st.fillInEdges) * 2 * 48);
    unsigned best = 0;
    bool haveBest = false;
    std::size_t bestDeg = 0;
    // `verts` is sorted ascending, so ties resolve to the lowest vertex id —
    // the same tie-break the whole-graph scan applies.
    for (unsigned u : verts) {
      if (eliminated[u]) continue;
      std::size_t deg = 0;
      for (const auto& [v, var] : adj[u])
        if (!eliminated[v]) ++deg;
      if (!haveBest || deg < bestDeg) {
        best = u;
        bestDeg = deg;
        haveBest = true;
      }
    }
    VELEV_CHECK(haveBest);
    const unsigned u = best;
    eliminated[u] = 1;
    std::vector<unsigned> nbrs;
    for (const auto& [v, var] : adj[u])
      if (!eliminated[v]) nbrs.push_back(v);
    std::sort(nbrs.begin(), nbrs.end());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const unsigned a = nbrs[i], b = nbrs[j];
        auto it = adj[a].find(b);
        std::uint32_t abVar;
        if (it == adj[a].end()) {
          abVar = kProvisionalBase + r.fillIn++;
          adj[a][b] = abVar;
          adj[b][a] = abVar;
          ++r.st.fillInEdges;
        } else {
          abVar = it->second;
        }
        addTriangle(adj[u][nbrs[i]], adj[u][nbrs[j]], abVar);
      }
    }
  }
  return r;
}

}  // namespace

TransitivityStats addTransitivityConstraints(
    const std::map<std::pair<eufm::Expr, eufm::Expr>, std::uint32_t>& edges,
    prop::Cnf& cnf, BudgetGovernor* governor, ThreadPool* pool) {
  TransitivityStats st;
  if (edges.empty()) return st;
  const int budgetSource =
      governor != nullptr ? governor->registerSource() : -1;

  // Dense vertex ids for the g-variables involved.
  std::unordered_map<eufm::Expr, unsigned> vertexId;
  auto vid = [&](eufm::Expr v) {
    auto it = vertexId.find(v);
    if (it == vertexId.end())
      it = vertexId.emplace(v, static_cast<unsigned>(vertexId.size())).first;
    return it->second;
  };
  // adj[u][v] = CNF variable of edge (u,v).
  std::vector<std::unordered_map<unsigned, std::uint32_t>> adj;
  auto ensure = [&](unsigned u) {
    if (adj.size() <= u) adj.resize(u + 1);
  };
  for (const auto& [pair, var] : edges) {
    const unsigned a = vid(pair.first), b = vid(pair.second);
    ensure(std::max(a, b));
    adj[a][b] = var;
    adj[b][a] = var;
  }
  const unsigned n = static_cast<unsigned>(adj.size());

  // Connected components (union-find), each listed as a sorted vertex set;
  // components ordered by their smallest vertex id for a deterministic
  // merge order.
  std::vector<unsigned> parent(n);
  for (unsigned u = 0; u < n; ++u) parent[u] = u;
  auto findRoot = [&](unsigned u) {
    while (parent[u] != u) {
      parent[u] = parent[parent[u]];
      u = parent[u];
    }
    return u;
  };
  for (unsigned u = 0; u < n; ++u)
    for (const auto& [v, var] : adj[u]) {
      const unsigned ru = findRoot(u), rv = findRoot(v);
      if (ru != rv) parent[std::max(ru, rv)] = std::min(ru, rv);
    }
  std::unordered_map<unsigned, std::size_t> compIndex;
  std::vector<std::vector<unsigned>> comps;
  for (unsigned u = 0; u < n; ++u) {
    const unsigned r = findRoot(u);
    auto it = compIndex.find(r);
    if (it == compIndex.end()) {
      it = compIndex.emplace(r, comps.size()).first;
      comps.emplace_back();
    }
    comps[it->second].push_back(u);  // ascending: u is scanned in order
  }

  // Eliminate each component, one parallelFor index per component. Each
  // call is deterministic in isolation; the merge below walks components in
  // index order, so the overall output does not depend on scheduling.
  std::vector<ComponentResult> results(comps.size());
  parallelFor(pool, comps.size(), [&](std::size_t c) {
    results[c] = eliminateComponent(comps[c], adj, edges.size(), governor);
  });

  // Merge in component order: allocate the real CNF variables for each
  // component's fill-in edges (in discovery order), remap the provisional
  // literals, and append the clauses.
  for (auto& r : results) {
    std::vector<std::uint32_t> fillVar(r.fillIn);
    for (unsigned k = 0; k < r.fillIn; ++k) fillVar[k] = cnf.newVar();
    for (auto& clause : r.clauses) {
      for (auto& lit : clause) {
        const std::uint32_t v = static_cast<std::uint32_t>(std::abs(lit));
        if (v >= kProvisionalBase) {
          const std::uint32_t mapped = fillVar[v - kProvisionalBase];
          lit = lit < 0 ? -static_cast<prop::CnfLit>(mapped)
                        : static_cast<prop::CnfLit>(mapped);
        }
      }
      cnf.clauses.push_back(std::move(clause));
    }
    st.fillInEdges += r.st.fillInEdges;
    st.triangles += r.st.triangles;
    st.clauses += r.st.clauses;
    if (governor != nullptr)
      governor->checkpoint(
          budgetSource,
          st.clauses * (3 * sizeof(prop::CnfLit) + sizeof(prop::Clause) + 16) +
              (edges.size() + st.fillInEdges) * 2 * 48);
  }
  return st;
}

}  // namespace velev::evc
