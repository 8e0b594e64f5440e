#include "eufm/expr.hpp"

#include <algorithm>

#include "support/budget.hpp"
#include "support/hash.hpp"

namespace velev::eufm {

Context::Context() {
  table_.assign(1024, kNoExpr);
  true_ = intern(Kind::True, kNoSym, {});
  false_ = intern(Kind::False, kNoSym, {});
}

std::uint64_t Context::nodeHash(Kind k, std::uint32_t sym,
                                std::span<const Expr> args) const {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(k) << 32) | sym);
  for (Expr a : args) h = hashCombine(h, a);
  return h;
}

bool Context::nodeEquals(Expr e, Kind k, std::uint32_t sym,
                         std::span<const Expr> args) const {
  const Node& n = nodes_[e];
  if (n.kind != k || n.sym != sym || n.nargs != args.size()) return false;
  for (unsigned i = 0; i < n.nargs; ++i)
    if (argPool_[n.argsOfs + i] != args[i]) return false;
  return true;
}

Expr Context::find(Kind k, std::uint32_t sym,
                   std::span<const Expr> args) const {
  if (hasUnusedArg(args)) return kNoExpr;
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t slot = nodeHash(k, sym, args) & mask;
  while (table_[slot] != kNoExpr) {
    if (nodeEquals(table_[slot], k, sym, args)) return table_[slot];
    slot = (slot + 1) & mask;
  }
  return kNoExpr;
}

void Context::growTable() {
  // Every node is in the table exactly once: re-insert in id order, so the
  // node arena and the argument pool are read front to back.
  table_.assign(table_.size() * 2, kNoExpr);
  const std::uint64_t mask = table_.size() - 1;
  for (Expr e = 0; e < nodes_.size(); ++e) {
    const Node& n = nodes_[e];
    std::uint64_t h = nodeHash(n.kind, n.sym,
                               {argPool_.data() + n.argsOfs, n.nargs});
    std::uint64_t slot = h & mask;
    while (table_[slot] != kNoExpr) slot = (slot + 1) & mask;
    table_[slot] = e;
  }
}

void Context::setBudget(BudgetGovernor* governor) {
  budget_ = governor;
  budgetSource_ = governor != nullptr ? governor->registerSource() : -1;
  budgetTick_ = 0;
}

Expr Context::intern(Kind k, std::uint32_t sym, std::span<const Expr> args) {
  // Every expression ever built passes through here, so a strided
  // checkpoint governs all DAG-growing phases at once. 256 interns grow
  // the arenas by a few KiB at most — far finer than any realistic budget.
  if (budget_ != nullptr && (++budgetTick_ & 0xffu) == 0)
    budget_->checkpoint(budgetSource_, memoryBytes());
  if (tableCount_ * 10 >= table_.size() * 7) growTable();
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t slot = nodeHash(k, sym, args) & mask;
  if (hasUnusedArg(args)) {
    // A certain miss (most nodes symbolic simulation builds): walk to the
    // first empty slot without loading the nodes on the way.
    while (table_[slot] != kNoExpr) slot = (slot + 1) & mask;
  } else {
    while (table_[slot] != kNoExpr) {
      if (nodeEquals(table_[slot], k, sym, args)) return table_[slot];
      slot = (slot + 1) & mask;
    }
  }
  const Expr id = static_cast<Expr>(nodes_.size());
  Node n;
  n.kind = k;
  n.nargs = static_cast<std::uint8_t>(args.size());
  n.sym = sym;
  n.argsOfs = static_cast<std::uint32_t>(argPool_.size());
  // Mark before the insert: `args` may point into argPool_ itself.
  for (Expr a : args) nodes_[a].used = 1;
  argPool_.insert(argPool_.end(), args.begin(), args.end());
  nodes_.push_back(n);
  table_[slot] = id;
  ++tableCount_;
  return id;
}

Expr Context::mkVar(Kind k, std::string_view name) {
  return intern(k, names_.intern(name), {});
}

Expr Context::boolVar(std::string_view name) {
  return mkVar(Kind::BoolVar, name);
}

Expr Context::termVar(std::string_view name) {
  return mkVar(Kind::TermVar, name);
}

Expr Context::freshBoolVar(std::string_view prefix) {
  std::string name(prefix);
  name += '#';
  name += std::to_string(freshCounter_++);
  return boolVar(name);
}

Expr Context::freshTermVar(std::string_view prefix) {
  std::string name(prefix);
  name += '#';
  name += std::to_string(freshCounter_++);
  return termVar(name);
}

FuncId Context::declare(std::string_view name, unsigned arity, bool pred) {
  VELEV_CHECK_MSG(arity <= kMaxArity, "symbol " << name << " has arity "
                                                 << arity << " above "
                                                 << kMaxArity);
  auto it = funcIds_.find(std::string(name));
  if (it != funcIds_.end()) {
    const FuncInfo& fi = funcs_[it->second];
    VELEV_CHECK_MSG(fi.arity == arity && fi.isPredicate == pred,
                    "conflicting redeclaration of symbol " << name);
    return it->second;
  }
  const FuncId id = static_cast<FuncId>(funcs_.size());
  funcs_.push_back(FuncInfo{std::string(name), arity, pred});
  funcIds_.emplace(std::string(name), id);
  return id;
}

FuncId Context::declareFunc(std::string_view name, unsigned arity) {
  return declare(name, arity, false);
}

FuncId Context::declarePred(std::string_view name, unsigned arity) {
  return declare(name, arity, true);
}

Expr Context::apply(FuncId f, std::span<const Expr> args) {
  VELEV_CHECK(f < funcs_.size());
  const FuncInfo& fi = funcs_[f];
  VELEV_CHECK_MSG(fi.arity == args.size(),
                  "arity mismatch applying " << fi.name);
  for (Expr a : args) VELEV_CHECK(isTerm(a));
  return intern(fi.isPredicate ? Kind::Up : Kind::Uf, f, args);
}

Expr Context::mkNot(Expr f) {
  VELEV_CHECK(isFormula(f));
  if (f == true_) return false_;
  if (f == false_) return true_;
  if (kind(f) == Kind::Not) return arg(f, 0);
  const Expr a[] = {f};
  return intern(Kind::Not, kNoSym, a);
}

Expr Context::mkAnd(Expr a, Expr b) {
  VELEV_CHECK(isFormula(a) && isFormula(b));
  if (a == false_ || b == false_) return false_;
  if (a == true_) return b;
  if (b == true_) return a;
  if (a == b) return a;
  if ((kind(a) == Kind::Not && arg(a, 0) == b) ||
      (kind(b) == Kind::Not && arg(b, 0) == a))
    return false_;
  if (a > b) std::swap(a, b);
  const Expr args[] = {a, b};
  return intern(Kind::And, kNoSym, args);
}

Expr Context::mkOr(Expr a, Expr b) {
  VELEV_CHECK(isFormula(a) && isFormula(b));
  if (a == true_ || b == true_) return true_;
  if (a == false_) return b;
  if (b == false_) return a;
  if (a == b) return a;
  if ((kind(a) == Kind::Not && arg(a, 0) == b) ||
      (kind(b) == Kind::Not && arg(b, 0) == a))
    return true_;
  if (a > b) std::swap(a, b);
  const Expr args[] = {a, b};
  return intern(Kind::Or, kNoSym, args);
}

Expr Context::mkAnd(std::span<const Expr> fs) {
  Expr acc = true_;
  for (Expr f : fs) acc = mkAnd(acc, f);
  return acc;
}

Expr Context::mkOr(std::span<const Expr> fs) {
  Expr acc = false_;
  for (Expr f : fs) acc = mkOr(acc, f);
  return acc;
}

Expr Context::mkIff(Expr a, Expr b) {
  return mkIteF(a, b, mkNot(b));
}

Expr Context::mkEq(Expr lhs, Expr rhs) {
  VELEV_CHECK(isTerm(lhs) && isTerm(rhs));
  if (lhs == rhs) return true_;
  if (lhs > rhs) std::swap(lhs, rhs);
  const Expr args[] = {lhs, rhs};
  return intern(Kind::Eq, kNoSym, args);
}

Expr Context::mkIteF(Expr c, Expr t, Expr e) {
  VELEV_CHECK(isFormula(c) && isFormula(t) && isFormula(e));
  if (c == true_) return t;
  if (c == false_) return e;
  if (t == e) return t;
  if (t == true_ && e == false_) return c;
  if (t == false_ && e == true_) return mkNot(c);
  if (t == true_) return mkOr(c, e);
  if (t == false_) return mkAnd(mkNot(c), e);
  if (e == true_) return mkOr(mkNot(c), t);
  if (e == false_) return mkAnd(c, t);
  const Expr args[] = {c, t, e};
  return intern(Kind::IteF, kNoSym, args);
}

Expr Context::mkIteT(Expr c, Expr t, Expr e) {
  VELEV_CHECK(isFormula(c) && isTerm(t) && isTerm(e));
  if (c == true_) return t;
  if (c == false_) return e;
  if (t == e) return t;
  // ITE(c, ITE(c, x, y), z) = ITE(c, x, z) and the dual — keeps the chains
  // generated by iterated forwarding logic compact.
  if (kind(t) == Kind::IteT && arg(t, 0) == c) t = arg(t, 1);
  if (kind(e) == Kind::IteT && arg(e, 0) == c) e = arg(e, 2);
  if (t == e) return t;
  const Expr args[] = {c, t, e};
  return intern(Kind::IteT, kNoSym, args);
}

Expr Context::mkRead(Expr mem, Expr addr) {
  VELEV_CHECK(isTerm(mem) && isTerm(addr));
  const Expr args[] = {mem, addr};
  return intern(Kind::Read, kNoSym, args);
}

Expr Context::mkWrite(Expr mem, Expr addr, Expr data) {
  VELEV_CHECK(isTerm(mem) && isTerm(addr) && isTerm(data));
  const Expr args[] = {mem, addr, data};
  return intern(Kind::Write, kNoSym, args);
}

const std::string& Context::varName(Expr e) const {
  VELEV_CHECK(isVar(e));
  return names_.str(nodes_[e].sym);
}

std::uint32_t Context::varSym(Expr e) const {
  VELEV_CHECK(isVar(e));
  return nodes_[e].sym;
}

FuncId Context::funcOf(Expr e) const {
  const Kind k = kind(e);
  VELEV_CHECK(k == Kind::Uf || k == Kind::Up);
  return nodes_[e].sym;
}

}  // namespace velev::eufm
