#include "eufm/shadow.hpp"

#include <algorithm>

#include "support/budget.hpp"
#include "support/hash.hpp"

namespace velev::eufm {

std::uint64_t ShadowContext::localHash(Kind k, std::uint32_t sym,
                                       std::span<const Expr> args) const {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(k) << 32) | sym);
  for (Expr a : args) h = hashCombine(h, a);
  return h;
}

bool ShadowContext::localEquals(std::uint32_t localIdx, Kind k,
                                std::uint32_t sym,
                                std::span<const Expr> args) const {
  const Node& n = nodes_[localIdx];
  if (n.kind != k || n.sym != sym || n.nargs != args.size()) return false;
  for (unsigned i = 0; i < n.nargs; ++i)
    if (argPool_[n.argsOfs + i] != args[i]) return false;
  return true;
}

void ShadowContext::growTable() {
  // Re-insert in id order, as Context::growTable does.
  table_.assign(table_.size() * 2, kNoExpr);
  const std::uint64_t mask = table_.size() - 1;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    std::uint64_t h = localHash(n.kind, n.sym,
                                {argPool_.data() + n.argsOfs, n.nargs});
    std::uint64_t slot = h & mask;
    while (table_[slot] != kNoExpr) slot = (slot + 1) & mask;
    table_[slot] = baseN_ + i;
  }
}

Expr ShadowContext::intern(Kind k, std::uint32_t sym,
                           std::span<const Expr> args) {
  if (budget_ != nullptr && (++budgetTick_ & 0xffu) == 0)
    budget_->checkpoint(budgetSource_, memoryBytes());
  // Read-through: a node all of whose arguments are base nodes may already
  // exist in the base DAG — resolving to it keeps base/local equality exact.
  // Any local argument makes base membership impossible (base argument
  // pools only ever hold ids below baseN_), so skip the probe.
  const bool allBase =
      std::all_of(args.begin(), args.end(),
                  [this](Expr a) { return a < baseN_; });
  if (allBase) {
    const Expr hit = base_.find(k, sym, args);
    if (hit != kNoExpr) return hit;
  }
  if (tableCount_ * 10 >= table_.size() * 7) growTable();
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t slot = localHash(k, sym, args) & mask;
  while (table_[slot] != kNoExpr) {
    if (localEquals(table_[slot] - baseN_, k, sym, args)) return table_[slot];
    slot = (slot + 1) & mask;
  }
  const Expr id = baseN_ + static_cast<Expr>(nodes_.size());
  Node n;
  n.kind = k;
  n.nargs = static_cast<std::uint8_t>(args.size());
  n.sym = sym;
  n.argsOfs = static_cast<std::uint32_t>(argPool_.size());
  argPool_.insert(argPool_.end(), args.begin(), args.end());
  nodes_.push_back(n);
  table_[slot] = id;
  ++tableCount_;
  return id;
}

Expr ShadowContext::apply(FuncId f, std::span<const Expr> args) {
  VELEV_CHECK(f < base_.numFuncs());
  const FuncInfo& fi = base_.func(f);
  VELEV_CHECK_MSG(fi.arity == args.size(),
                  "arity mismatch applying " << fi.name);
  for (Expr a : args) VELEV_CHECK(isTerm(a));
  return intern(fi.isPredicate ? Kind::Up : Kind::Uf, f, args);
}

Expr ShadowContext::mkNot(Expr f) {
  VELEV_CHECK(isFormula(f));
  if (f == mkTrue()) return mkFalse();
  if (f == mkFalse()) return mkTrue();
  if (kind(f) == Kind::Not) return arg(f, 0);
  const Expr a[] = {f};
  return intern(Kind::Not, kNoSym, a);
}

Expr ShadowContext::mkAnd(Expr a, Expr b) {
  VELEV_CHECK(isFormula(a) && isFormula(b));
  if (a == mkFalse() || b == mkFalse()) return mkFalse();
  if (a == mkTrue()) return b;
  if (b == mkTrue()) return a;
  if (a == b) return a;
  if ((kind(a) == Kind::Not && arg(a, 0) == b) ||
      (kind(b) == Kind::Not && arg(b, 0) == a))
    return mkFalse();
  if (a > b) std::swap(a, b);
  const Expr args[] = {a, b};
  return intern(Kind::And, kNoSym, args);
}

Expr ShadowContext::mkOr(Expr a, Expr b) {
  VELEV_CHECK(isFormula(a) && isFormula(b));
  if (a == mkTrue() || b == mkTrue()) return mkTrue();
  if (a == mkFalse()) return b;
  if (b == mkFalse()) return a;
  if (a == b) return a;
  if ((kind(a) == Kind::Not && arg(a, 0) == b) ||
      (kind(b) == Kind::Not && arg(b, 0) == a))
    return mkTrue();
  if (a > b) std::swap(a, b);
  const Expr args[] = {a, b};
  return intern(Kind::Or, kNoSym, args);
}

Expr ShadowContext::mkAnd(std::span<const Expr> fs) {
  Expr acc = mkTrue();
  for (Expr f : fs) acc = mkAnd(acc, f);
  return acc;
}

Expr ShadowContext::mkOr(std::span<const Expr> fs) {
  Expr acc = mkFalse();
  for (Expr f : fs) acc = mkOr(acc, f);
  return acc;
}

Expr ShadowContext::mkEq(Expr lhs, Expr rhs) {
  VELEV_CHECK(isTerm(lhs) && isTerm(rhs));
  if (lhs == rhs) return mkTrue();
  if (lhs > rhs) std::swap(lhs, rhs);
  const Expr args[] = {lhs, rhs};
  return intern(Kind::Eq, kNoSym, args);
}

Expr ShadowContext::mkIteF(Expr c, Expr t, Expr e) {
  VELEV_CHECK(isFormula(c) && isFormula(t) && isFormula(e));
  if (c == mkTrue()) return t;
  if (c == mkFalse()) return e;
  if (t == e) return t;
  if (t == mkTrue() && e == mkFalse()) return c;
  if (t == mkFalse() && e == mkTrue()) return mkNot(c);
  if (t == mkTrue()) return mkOr(c, e);
  if (t == mkFalse()) return mkAnd(mkNot(c), e);
  if (e == mkTrue()) return mkOr(mkNot(c), t);
  if (e == mkFalse()) return mkAnd(c, t);
  const Expr args[] = {c, t, e};
  return intern(Kind::IteF, kNoSym, args);
}

Expr ShadowContext::mkIteT(Expr c, Expr t, Expr e) {
  VELEV_CHECK(isFormula(c) && isTerm(t) && isTerm(e));
  if (c == mkTrue()) return t;
  if (c == mkFalse()) return e;
  if (t == e) return t;
  if (kind(t) == Kind::IteT && arg(t, 0) == c) t = arg(t, 1);
  if (kind(e) == Kind::IteT && arg(e, 0) == c) e = arg(e, 2);
  if (t == e) return t;
  const Expr args[] = {c, t, e};
  return intern(Kind::IteT, kNoSym, args);
}

Expr ShadowContext::mkRead(Expr mem, Expr addr) {
  VELEV_CHECK(isTerm(mem) && isTerm(addr));
  const Expr args[] = {mem, addr};
  return intern(Kind::Read, kNoSym, args);
}

Expr ShadowContext::mkWrite(Expr mem, Expr addr, Expr data) {
  VELEV_CHECK(isTerm(mem) && isTerm(addr) && isTerm(data));
  const Expr args[] = {mem, addr, data};
  return intern(Kind::Write, kNoSym, args);
}

}  // namespace velev::eufm
