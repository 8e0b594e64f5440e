// Guarded substitution utilities for the rewriting rules.
//
// `substituteShallow` replaces Boolean variables by constants (the
// ValidResult case split of Sect. 6) and rebuilds through the smart
// constructors, so guarded structure collapses (e.g. an execute condition
// containing ¬ValidResult_i folds to false when ValidResult_i := true).
// Crucially it does NOT descend into the memory argument of `read`: the
// prefix Register File states referenced by completion-function reads are
// handled by the prefix-correspondence argument, not by substitution — and
// leaving them untouched keeps the per-slice cost proportional to the slice,
// not to the whole formula. A caller-supplied `keep` hook names the nodes
// whose cone holds no assumed variable; they are returned as they are,
// unvisited. That changes no result: rebuilding such a node would re-intern
// every node of its cone to itself (hash-consing returns the same id, and
// the smart constructors already normalised the node when it was built).
//
// `substituteMem` replaces one specific memory-state subterm (a proven-equal
// prefix) by a fresh variable, again without descending into deeper read
// bases.
//
// Both are templated on the context type: the slice checks run them against
// a per-slice eufm::ShadowContext overlay (scratch discarded after the
// slice), while the rebuild phase runs substituteMem on the real Context.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eufm/expr.hpp"

namespace velev::rewrite {

/// Assumptions for the case split: Boolean variable -> constant value.
using BoolAssumptions = std::unordered_map<eufm::Expr, bool>;

namespace detail {

// Iterative postorder rebuild. Memory arguments of read/write are not
// traversed; they are transformed atomically by `memArg` (identity by
// default), which keeps the cost proportional to the data expression, not
// to the prefix memory states it reads from.
// `rebuilt`, when non-null, is incremented once per node rebuilt through
// a smart constructor.
template <typename Cx, typename LeafFn, typename MemFn>
eufm::Expr rebuildFiltered(Cx& cx, eufm::Expr root, LeafFn&& leaf,
                           MemFn&& memArg, std::uint64_t* rebuilt = nullptr) {
  using eufm::Expr;
  using eufm::Kind;
  std::unordered_map<Expr, Expr> map;
  std::vector<std::pair<Expr, bool>> stack = {{root, false}};
  while (!stack.empty()) {
    auto [e, expanded] = stack.back();
    stack.pop_back();
    if (map.count(e)) continue;
    if (!expanded) {
      const Expr direct = leaf(e);
      if (direct != eufm::kNoExpr) {
        map.emplace(e, direct);
        continue;
      }
      stack.emplace_back(e, true);
      const Kind k = cx.kind(e);
      const auto args = cx.args(e);
      for (std::size_t i = 0; i < args.size(); ++i) {
        if ((k == Kind::Read || k == Kind::Write) && i == 0) continue;
        if (!map.count(args[i])) stack.emplace_back(args[i], false);
      }
      continue;
    }
    if (rebuilt != nullptr) ++*rebuilt;
    auto m = [&](unsigned i) { return map.at(cx.arg(e, i)); };
    Expr r = eufm::kNoExpr;
    switch (cx.kind(e)) {
      case Kind::Not: r = cx.mkNot(m(0)); break;
      case Kind::And: r = cx.mkAnd(m(0), m(1)); break;
      case Kind::Or: r = cx.mkOr(m(0), m(1)); break;
      case Kind::IteF: r = cx.mkIteF(m(0), m(1), m(2)); break;
      case Kind::IteT: r = cx.mkIteT(m(0), m(1), m(2)); break;
      case Kind::Eq: r = cx.mkEq(m(0), m(1)); break;
      case Kind::Up:
      case Kind::Uf: {
        std::vector<Expr> args;
        for (Expr a : cx.args(e)) args.push_back(map.at(a));
        r = cx.apply(cx.funcOf(e), args);
        break;
      }
      case Kind::Read:
        r = cx.mkRead(memArg(cx.arg(e, 0)), m(1));
        break;
      case Kind::Write:
        r = cx.mkWrite(memArg(cx.arg(e, 0)), m(1), m(2));
        break;
      default:
        VELEV_UNREACHABLE("unhandled kind in rebuild");
    }
    map.emplace(e, r);
  }
  return map.at(root);
}

template <typename Cx>
eufm::Expr keepLeaves(const Cx& cx, eufm::Expr e) {
  using eufm::Kind;
  switch (cx.kind(e)) {
    case Kind::True:
    case Kind::False:
    case Kind::TermVar:
    case Kind::BoolVar:
      return e;
    default:
      return eufm::kNoExpr;  // recurse
  }
}

}  // namespace detail

/// Rebuild `e` under `assume`, folding constants; read/write memory
/// arguments are kept verbatim. `keep(e)` returning true promises that e's
/// cone (as this walk sees it) holds no variable of `assume`: e is then
/// returned as it is. A hook that keeps nothing gives the full rebuild.
/// `rebuilt`, when non-null, counts the nodes rebuilt.
template <typename Cx, typename KeepFn>
eufm::Expr substituteShallow(Cx& cx, eufm::Expr root,
                             const BoolAssumptions& assume, KeepFn&& keep,
                             std::uint64_t* rebuilt = nullptr) {
  using eufm::Expr;
  using eufm::Kind;
  return detail::rebuildFiltered(
      cx, root,
      [&](Expr e) -> Expr {
        if (keep(e)) return e;
        if (cx.kind(e) == Kind::BoolVar) {
          auto it = assume.find(e);
          if (it != assume.end())
            return it->second ? cx.mkTrue() : cx.mkFalse();
          return e;
        }
        return detail::keepLeaves(cx, e);
      },
      [](Expr mem) { return mem; }, rebuilt);
}

/// Rebuild `e` with every occurrence of memory state `from` replaced by
/// `to`; traversal does not descend below `from` and treats read/write
/// memory arguments other than `from` verbatim.
eufm::Expr substituteMem(eufm::Context& cx, eufm::Expr e, eufm::Expr from,
                         eufm::Expr to);

}  // namespace velev::rewrite
