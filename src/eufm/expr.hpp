// EUFM — the logic of Equality with Uninterpreted Functions and Memories
// (Burch & Dill, CAV'94), as used by Velev's TLSim/EVC tool flow.
//
// Expressions are hash-consed nodes in a Context-owned DAG. There are two
// sorts:
//   * terms    — abstract word-level values (data operands, register ids,
//                memory addresses, and entire memory-array states);
//   * formulas — the control path and the correctness condition.
//
// Terms:    term variables, uninterpreted-function (UF) applications,
//           ITE(formula, term, term), read(mem, addr), write(mem, addr, data).
// Formulas: true/false, Boolean variables, uninterpreted-predicate (UP)
//           applications, equations (term = term), ¬, ∧, ∨,
//           ITE(formula, formula, formula).
//
// `read`/`write` satisfy the forwarding property of the memory semantics;
// their *elimination* (by forwarding expansion or by the conservative
// general-UF abstraction of TACAS'01) is performed downstream in `evc/` —
// the builders here never rewrite them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"
#include "support/interner.hpp"

namespace velev {
class BudgetGovernor;
}  // namespace velev

namespace velev::eufm {

/// Node id into a Context. Ids are dense and stable for the Context lifetime.
using Expr = std::uint32_t;
constexpr Expr kNoExpr = 0xffffffffu;

/// Uninterpreted function / predicate symbol id.
using FuncId = std::uint32_t;

enum class Kind : std::uint8_t {
  // Formulas.
  False,
  True,
  BoolVar,   // sym = variable name
  Up,        // sym = predicate symbol, args = terms
  Eq,        // args = {lhs term, rhs term}, stored in canonical order
  Not,       // args = {formula}
  And,       // args = {formula, formula}, canonical order
  Or,        // args = {formula, formula}, canonical order
  IteF,      // args = {cond formula, then formula, else formula}
  // Terms.
  TermVar,   // sym = variable name
  Uf,        // sym = function symbol, args = terms
  IteT,      // args = {cond formula, then term, else term}
  Read,      // args = {mem term, addr term}
  Write,     // args = {mem term, addr term, data term}
};

/// Which sort an expression belongs to.
enum class Sort : std::uint8_t { Formula, Term };

constexpr Sort sortOf(Kind k) {
  return k >= Kind::TermVar ? Sort::Term : Sort::Formula;
}

/// Arity limit of one node (`nargs` is one byte); declare() enforces it.
constexpr unsigned kMaxArity = 255;

struct Node {
  Kind kind;
  std::uint8_t nargs;
  // Set once some node of the same Context takes this node as an argument
  // (a ShadowContext leaves it unset on its local nodes).
  // A node with an argument that no other node uses cannot already exist,
  // so the hash-cons probe skips comparing it against occupied slots.
  std::uint8_t used = 0;
  std::uint32_t sym;      // name id (vars) or FuncId (Uf/Up); else kNoSym
  std::uint32_t argsOfs;  // offset into the Context argument pool
};
// `used` sits in padding: memoryBytes() and the arena budget count Nodes
// at this size.
static_assert(sizeof(Node) == 12);
constexpr std::uint32_t kNoSym = 0xffffffffu;

struct FuncInfo {
  std::string name;
  unsigned arity = 0;
  bool isPredicate = false;
};

/// Owns the hash-consed DAG. All expression construction goes through here.
/// A Context is not thread-safe; use one per verification run.
class Context {
 public:
  Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // ---- Constants ----------------------------------------------------------
  Expr mkTrue() const { return true_; }
  Expr mkFalse() const { return false_; }

  // ---- Variables ----------------------------------------------------------
  /// Named variables: the same name always yields the same node.
  Expr boolVar(std::string_view name);
  Expr termVar(std::string_view name);
  /// Fresh variables: `prefix` + an internal counter, guaranteed new.
  Expr freshBoolVar(std::string_view prefix);
  Expr freshTermVar(std::string_view prefix);

  // ---- Uninterpreted functions / predicates -------------------------------
  /// Declare (or retrieve) a function symbol. Redeclaration with a different
  /// arity or kind is an error, and so is an arity above kMaxArity.
  FuncId declareFunc(std::string_view name, unsigned arity);
  FuncId declarePred(std::string_view name, unsigned arity);
  const FuncInfo& func(FuncId f) const { return funcs_[f]; }
  std::size_t numFuncs() const { return funcs_.size(); }

  Expr apply(FuncId f, std::span<const Expr> args);
  Expr apply(FuncId f, std::initializer_list<Expr> args) {
    return apply(f, std::span<const Expr>(args.begin(), args.size()));
  }

  // ---- Formula connectives (with constant folding) ------------------------
  Expr mkNot(Expr f);
  Expr mkAnd(Expr a, Expr b);
  Expr mkOr(Expr a, Expr b);
  Expr mkAnd(std::span<const Expr> fs);
  Expr mkOr(std::span<const Expr> fs);
  Expr mkImplies(Expr a, Expr b) { return mkOr(mkNot(a), b); }
  Expr mkIff(Expr a, Expr b);
  Expr mkEq(Expr lhs, Expr rhs);
  Expr mkIteF(Expr c, Expr t, Expr e);

  // ---- Term constructors ---------------------------------------------------
  Expr mkIteT(Expr c, Expr t, Expr e);
  Expr mkRead(Expr mem, Expr addr);
  Expr mkWrite(Expr mem, Expr addr, Expr data);

  // ---- Accessors -----------------------------------------------------------
  const Node& node(Expr e) const { return nodes_[e]; }
  Kind kind(Expr e) const { return nodes_[e].kind; }
  Sort sort(Expr e) const { return sortOf(nodes_[e].kind); }
  bool isFormula(Expr e) const { return sort(e) == Sort::Formula; }
  bool isTerm(Expr e) const { return sort(e) == Sort::Term; }
  std::span<const Expr> args(Expr e) const {
    const Node& n = nodes_[e];
    return {argPool_.data() + n.argsOfs, n.nargs};
  }
  Expr arg(Expr e, unsigned i) const {
    const Node& n = nodes_[e];
    VELEV_CHECK(i < n.nargs);
    return argPool_[n.argsOfs + i];
  }
  /// Variable name (BoolVar / TermVar nodes).
  const std::string& varName(Expr e) const;
  /// Symbol id of a variable node (dense per Context, usable as a map key).
  std::uint32_t varSym(Expr e) const;
  /// Function symbol of a Uf/Up node.
  FuncId funcOf(Expr e) const;

  std::size_t numNodes() const { return nodes_.size(); }

  /// Read-only hash-cons probe: the id of the structurally identical node
  /// if this context already owns one, else kNoExpr. Never interns, never
  /// touches the budget — safe to call concurrently from many threads as
  /// long as nobody mutates the context (the ShadowContext overlay's
  /// read-through path relies on exactly that freeze). An argument that no
  /// node uses yet answers kNoExpr without probing.
  Expr find(Kind k, std::uint32_t sym, std::span<const Expr> args) const;

  // ---- Resource governance -------------------------------------------------
  /// Attaches (or with nullptr, detaches) a resource governor. While
  /// attached, intern() periodically checkpoints the context's logical
  /// memory footprint and the governor's deadline; an exhausted budget
  /// unwinds out of the current builder call as BudgetExceeded. Every phase
  /// that grows the DAG — symbolic simulation, rewriting, memory/UF
  /// elimination — is thereby governed through this single chokepoint.
  void setBudget(BudgetGovernor* governor);
  BudgetGovernor* budgetGovernor() const { return budget_; }

  /// Logical bytes owned by this context (vector capacities of the node
  /// arena, argument pool, and hash-cons table). O(1); this is the quantity
  /// reported to the governor.
  std::size_t memoryBytes() const {
    return nodes_.capacity() * sizeof(Node) +
           argPool_.capacity() * sizeof(Expr) +
           table_.capacity() * sizeof(Expr);
  }

  /// Structural helpers used throughout the pipeline.
  bool isVar(Expr e) const {
    const Kind k = kind(e);
    return k == Kind::BoolVar || k == Kind::TermVar;
  }
  bool isIte(Expr e) const {
    const Kind k = kind(e);
    return k == Kind::IteF || k == Kind::IteT;
  }

 private:
  Expr intern(Kind k, std::uint32_t sym, std::span<const Expr> args);
  Expr mkVar(Kind k, std::string_view name);
  FuncId declare(std::string_view name, unsigned arity, bool pred);
  void growTable();
  std::uint64_t nodeHash(Kind k, std::uint32_t sym,
                         std::span<const Expr> args) const;
  bool nodeEquals(Expr e, Kind k, std::uint32_t sym,
                  std::span<const Expr> args) const;
  /// True when no node uses some argument yet: then no structurally equal
  /// node can exist (Node::used).
  bool hasUnusedArg(std::span<const Expr> args) const {
    for (Expr a : args)
      if (!nodes_[a].used) return true;
    return false;
  }

  std::vector<Node> nodes_;
  std::vector<Expr> argPool_;
  // Open-addressing hash-cons table: slots hold Expr ids or kNoExpr.
  std::vector<Expr> table_;
  std::size_t tableCount_ = 0;

  StringInterner names_;
  std::vector<FuncInfo> funcs_;
  std::unordered_map<std::string, FuncId> funcIds_;

  std::uint64_t freshCounter_ = 0;
  Expr true_ = kNoExpr;
  Expr false_ = kNoExpr;

  BudgetGovernor* budget_ = nullptr;
  int budgetSource_ = -1;
  std::uint32_t budgetTick_ = 0;
};

}  // namespace velev::eufm
