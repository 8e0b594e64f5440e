// Unit tests for the EUFM expression DAG: hash-consing, constant folding,
// sorts, traversal, printing, and the finite-model evaluator that serves as
// semantic ground truth for the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "eufm/eval.hpp"
#include "eufm/expr.hpp"
#include "eufm/memsort.hpp"
#include "eufm/print.hpp"
#include "eufm/shadow.hpp"
#include "eufm/traverse.hpp"
#include "support/rng.hpp"

namespace velev::eufm {
namespace {

class EufmTest : public ::testing::Test {
 protected:
  Context cx;
};

TEST_F(EufmTest, HashConsingIdentity) {
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  EXPECT_EQ(cx.mkEq(x, y), cx.mkEq(x, y));
  EXPECT_EQ(cx.termVar("x"), x);
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b");
  EXPECT_EQ(cx.mkAnd(a, b), cx.mkAnd(a, b));
}

TEST_F(EufmTest, EqIsCommutativeByCanonicalization) {
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  EXPECT_EQ(cx.mkEq(x, y), cx.mkEq(y, x));
}

TEST_F(EufmTest, AndOrCommutative) {
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b");
  EXPECT_EQ(cx.mkAnd(a, b), cx.mkAnd(b, a));
  EXPECT_EQ(cx.mkOr(a, b), cx.mkOr(b, a));
}

TEST_F(EufmTest, ConstantFoldingBooleans) {
  const Expr a = cx.boolVar("a");
  EXPECT_EQ(cx.mkAnd(cx.mkTrue(), a), a);
  EXPECT_EQ(cx.mkAnd(cx.mkFalse(), a), cx.mkFalse());
  EXPECT_EQ(cx.mkOr(cx.mkFalse(), a), a);
  EXPECT_EQ(cx.mkOr(cx.mkTrue(), a), cx.mkTrue());
  EXPECT_EQ(cx.mkAnd(a, a), a);
  EXPECT_EQ(cx.mkOr(a, a), a);
  EXPECT_EQ(cx.mkAnd(a, cx.mkNot(a)), cx.mkFalse());
  EXPECT_EQ(cx.mkOr(a, cx.mkNot(a)), cx.mkTrue());
}

TEST_F(EufmTest, DoubleNegation) {
  const Expr a = cx.boolVar("a");
  EXPECT_EQ(cx.mkNot(cx.mkNot(a)), a);
  EXPECT_EQ(cx.mkNot(cx.mkTrue()), cx.mkFalse());
}

TEST_F(EufmTest, EqReflexivityFolds) {
  const Expr x = cx.termVar("x");
  EXPECT_EQ(cx.mkEq(x, x), cx.mkTrue());
}

TEST_F(EufmTest, IteFolding) {
  const Expr a = cx.boolVar("a");
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  EXPECT_EQ(cx.mkIteT(cx.mkTrue(), x, y), x);
  EXPECT_EQ(cx.mkIteT(cx.mkFalse(), x, y), y);
  EXPECT_EQ(cx.mkIteT(a, x, x), x);
  const Expr b = cx.boolVar("b"), c = cx.boolVar("c");
  EXPECT_EQ(cx.mkIteF(a, b, b), b);
  EXPECT_EQ(cx.mkIteF(a, cx.mkTrue(), cx.mkFalse()), a);
  EXPECT_EQ(cx.mkIteF(a, cx.mkFalse(), cx.mkTrue()), cx.mkNot(a));
  EXPECT_EQ(cx.mkIteF(a, b, cx.mkFalse()), cx.mkAnd(a, b));
  EXPECT_EQ(cx.mkIteF(a, cx.mkFalse(), c), cx.mkAnd(cx.mkNot(a), c));
}

TEST_F(EufmTest, NestedIteSameConditionCollapses) {
  const Expr a = cx.boolVar("a");
  const Expr x = cx.termVar("x"), y = cx.termVar("y"), z = cx.termVar("z");
  // ITE(a, ITE(a, x, y), z) == ITE(a, x, z)
  EXPECT_EQ(cx.mkIteT(a, cx.mkIteT(a, x, y), z), cx.mkIteT(a, x, z));
}

TEST_F(EufmTest, FreshVariablesAreDistinct) {
  const Expr v1 = cx.freshTermVar("t");
  const Expr v2 = cx.freshTermVar("t");
  EXPECT_NE(v1, v2);
}

TEST_F(EufmTest, FunctionDeclarationIsIdempotent) {
  const FuncId f1 = cx.declareFunc("ALU", 3);
  const FuncId f2 = cx.declareFunc("ALU", 3);
  EXPECT_EQ(f1, f2);
  EXPECT_THROW(cx.declareFunc("ALU", 2), InternalError);
  EXPECT_THROW(cx.declarePred("ALU", 3), InternalError);
}

TEST_F(EufmTest, ArityAboveNodeLimitRejected) {
  // Node::nargs is one byte: a wider symbol would intern truncated nodes
  // that never hash-cons. The limit itself is fine.
  EXPECT_THROW(cx.declareFunc("f", kMaxArity + 1), InternalError);
  EXPECT_THROW(cx.declarePred("p", kMaxArity + 1), InternalError);
  const FuncId g = cx.declareFunc("g", kMaxArity);
  const std::vector<Expr> args(kMaxArity, cx.termVar("x"));
  const Expr a = cx.apply(g, args);
  EXPECT_EQ(cx.apply(g, args), a);
  EXPECT_EQ(cx.args(a).size(), kMaxArity);
}

TEST_F(EufmTest, ApplicationArityChecked) {
  const FuncId f = cx.declareFunc("f", 2);
  const Expr x = cx.termVar("x");
  EXPECT_THROW(cx.apply(f, {x}), InternalError);
}

TEST_F(EufmTest, SortsAreEnforced) {
  const Expr x = cx.termVar("x");
  const Expr a = cx.boolVar("a");
  EXPECT_THROW(cx.mkAnd(x, a), InternalError);
  EXPECT_THROW(cx.mkEq(a, a), InternalError);
  EXPECT_THROW(cx.mkIteT(x, x, x), InternalError);
  EXPECT_THROW(cx.mkRead(x, a), InternalError);
}

TEST_F(EufmTest, VarNameRoundTrip) {
  const Expr x = cx.termVar("PC");
  EXPECT_EQ(cx.varName(x), "PC");
  EXPECT_TRUE(cx.isVar(x));
  EXPECT_TRUE(cx.isTerm(x));
}

TEST_F(EufmTest, PostorderVisitsChildrenFirst) {
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  const Expr eq = cx.mkEq(x, y);
  const Expr root = cx.mkAnd(eq, cx.boolVar("a"));
  std::vector<Expr> order;
  postorder(cx, root, [&](Expr e) { order.push_back(e); });
  auto pos = [&](Expr e) {
    return std::find(order.begin(), order.end(), e) - order.begin();
  };
  EXPECT_LT(pos(x), pos(eq));
  EXPECT_LT(pos(y), pos(eq));
  EXPECT_LT(pos(eq), pos(root));
  EXPECT_EQ(order.size(), dagSize(cx, root));
}

TEST_F(EufmTest, CollectVarsFindsAll) {
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  const Expr a = cx.boolVar("a");
  const Expr root = cx.mkAnd(a, cx.mkEq(x, y));
  const auto vars = collectVars(cx, root);
  EXPECT_EQ(vars.size(), 3u);
}

TEST_F(EufmTest, ToStringSmoke) {
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  EXPECT_EQ(toString(cx, cx.mkEq(x, y)), "(= x y)");
  const FuncId f = cx.declareFunc("f", 1);
  EXPECT_EQ(toString(cx, cx.apply(f, {x})), "(f x)");
}

TEST_F(EufmTest, StatsCounts) {
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  const Expr a = cx.boolVar("a");
  const Expr root = cx.mkAnd(a, cx.mkEq(cx.mkIteT(a, x, y), x));
  const DagStats s = stats(cx, root);
  EXPECT_EQ(s.termVars, 2u);
  EXPECT_EQ(s.boolVars, 1u);
  EXPECT_EQ(s.equations, 1u);
  EXPECT_EQ(s.ites, 1u);
}

// ---- evaluation semantics ---------------------------------------------------

TEST_F(EufmTest, EvalBooleanOps) {
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b");
  Interp in(1, 4);
  in.setBool(a, true);
  in.setBool(b, false);
  Evaluator ev(cx, in);
  EXPECT_TRUE(ev.evalFormula(cx.mkOr(a, b)));
  EXPECT_FALSE(ev.evalFormula(cx.mkAnd(a, b)));
  EXPECT_TRUE(ev.evalFormula(cx.mkNot(b)));
  EXPECT_TRUE(ev.evalFormula(cx.mkIteF(a, cx.mkNot(b), b)));
  EXPECT_TRUE(ev.evalFormula(cx.mkImplies(b, a)));
  EXPECT_FALSE(ev.evalFormula(cx.mkIff(a, b)));
}

TEST_F(EufmTest, EvalEqualityRespectsOverrides) {
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  Interp in(1, 8);
  in.setTerm(x, 3);
  in.setTerm(y, 3);
  Evaluator ev(cx, in);
  EXPECT_TRUE(ev.evalFormula(cx.mkEq(x, y)));
  Interp in2(1, 8);
  in2.setTerm(x, 3);
  in2.setTerm(y, 4);
  Evaluator ev2(cx, in2);
  EXPECT_FALSE(ev2.evalFormula(cx.mkEq(x, y)));
}

TEST_F(EufmTest, EvalUfIsFunctionallyConsistent) {
  const FuncId f = cx.declareFunc("f", 2);
  const Expr x = cx.termVar("x"), y = cx.termVar("y"), z = cx.termVar("z");
  Interp in(5, 4);
  in.setTerm(x, 2);
  in.setTerm(y, 2);
  Evaluator ev(cx, in);
  // x == y, so f(x,z) == f(y,z) must hold in every interpretation.
  EXPECT_TRUE(ev.evalFormula(
      cx.mkEq(cx.apply(f, {x, z}), cx.apply(f, {y, z}))));
}

TEST_F(EufmTest, EvalUpIsDeterministic) {
  const FuncId p = cx.declarePred("p", 1);
  const Expr x = cx.termVar("x");
  Interp in(9, 4);
  Evaluator ev(cx, in);
  const bool v1 = ev.evalFormula(cx.apply(p, {x}));
  Evaluator ev2(cx, in);
  EXPECT_EQ(v1, ev2.evalFormula(cx.apply(p, {x})));
}

TEST_F(EufmTest, EvalMemoryForwarding) {
  const Expr m = cx.termVar("M");
  const Expr a = cx.termVar("a"), b = cx.termVar("b"), d = cx.termVar("d");
  // read(write(m, a, d), a) == d: valid, must hold under any interpretation.
  const Expr f =
      cx.mkEq(cx.mkRead(cx.mkWrite(m, a, d), a), d);
  for (std::uint64_t seed = 0; seed < 50; ++seed)
    EXPECT_TRUE(evalFormula(cx, f, seed, 3)) << "seed " << seed;
  // read(write(m, a, d), b) == read(m, b) holds only when a != b or
  // d == read(m,a); check the guarded version is valid.
  const Expr g = cx.mkOr(
      cx.mkEq(a, b),
      cx.mkEq(cx.mkRead(cx.mkWrite(m, a, d), b), cx.mkRead(m, b)));
  for (std::uint64_t seed = 0; seed < 50; ++seed)
    EXPECT_TRUE(evalFormula(cx, g, seed, 3)) << "seed " << seed;
}

TEST_F(EufmTest, EvalMemoryExtensionality) {
  const Expr m = cx.termVar("M");
  const Expr a = cx.termVar("a"), d = cx.termVar("d");
  // Overwriting with the same value yields an equal memory.
  const Expr f = cx.mkEq(cx.mkWrite(m, a, cx.mkRead(m, a)), m);
  for (std::uint64_t seed = 0; seed < 50; ++seed)
    EXPECT_TRUE(evalFormula(cx, f, seed, 3)) << "seed " << seed;
  // Double write to the same address: last one wins.
  const Expr e = cx.termVar("e");
  const Expr g = cx.mkEq(cx.mkWrite(cx.mkWrite(m, a, d), a, e),
                         cx.mkWrite(m, a, e));
  for (std::uint64_t seed = 0; seed < 50; ++seed)
    EXPECT_TRUE(evalFormula(cx, g, seed, 3)) << "seed " << seed;
}

TEST_F(EufmTest, EvalDistinguishesDifferentMemories) {
  const Expr m1 = cx.termVar("M1"), m2 = cx.termVar("M2");
  const Expr f = cx.mkEq(m1, m2);
  // Memories over different bases are unequal in our interpretations;
  // force memory-sortedness via a read so inference kicks in.
  const Expr probe = cx.mkAnd(
      f, cx.mkEq(cx.mkRead(m1, cx.termVar("a")), cx.mkRead(m2, cx.termVar("a"))));
  bool anyFalse = false;
  for (std::uint64_t seed = 0; seed < 10; ++seed)
    anyFalse |= !evalFormula(cx, probe, seed, 3);
  EXPECT_TRUE(anyFalse);
}

TEST_F(EufmTest, MemSortInferencePropagates) {
  const Expr m = cx.termVar("M"), n = cx.termVar("N");
  const Expr a = cx.termVar("a"), d = cx.termVar("d");
  const Expr c = cx.boolVar("c");
  // N is compared against an ITE of writes to M -> all are memory-sorted.
  const Expr ite = cx.mkIteT(c, cx.mkWrite(m, a, d), m);
  const Expr root = cx.mkEq(n, ite);
  const auto mem = inferMemorySorted(cx, root);
  EXPECT_TRUE(mem.count(n));
  EXPECT_TRUE(mem.count(m));
  EXPECT_TRUE(mem.count(ite));
  EXPECT_FALSE(mem.count(a));
  EXPECT_FALSE(mem.count(d));
}

TEST_F(EufmTest, EvalIteSelectsBranch) {
  const Expr c = cx.boolVar("c");
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  Interp in(1, 16);
  in.setBool(c, true);
  in.setTerm(x, 5);
  in.setTerm(y, 9);
  Evaluator ev(cx, in);
  EXPECT_EQ(ev.evalTerm(cx.mkIteT(c, x, y)).scalar, 5u);
}

TEST_F(EufmTest, HashConsTableGrowthKeepsIdentity) {
  // Force several rehashes and verify structural identity survives them.
  const FuncId f = cx.declareFunc("f", 2);
  const Expr x = cx.termVar("x");
  std::vector<Expr> nodes;
  Expr acc = x;
  for (int i = 0; i < 50000; ++i) {
    acc = cx.apply(f, {acc, cx.termVar("v" + std::to_string(i % 97))});
    nodes.push_back(acc);
  }
  // Rebuild the same expressions: every node must dedup to the same id.
  acc = x;
  for (int i = 0; i < 50000; ++i) {
    acc = cx.apply(f, {acc, cx.termVar("v" + std::to_string(i % 97))});
    EXPECT_EQ(acc, nodes[i]);
  }
}

// ---- hash-consing against a reference map -----------------------------------
// intern() skips the structural compare when an argument has no user yet
// (Node::used), and growTable() re-inserts in id order. Neither may change
// an answer: on random DAGs mixing fresh and repeated nodes, apply, mkRead
// and mkWrite must return an existing id exactly when a structurally equal
// node exists, and a new, dense id otherwise.

using NodeKey = std::tuple<Kind, std::uint32_t, std::vector<Expr>>;

// Drives `ctx` (a Context or a ShadowContext) with `steps` random apply,
// mkRead and mkWrite calls and checks each answer against `ref`, which must
// already hold the key of every node visible in `ctx`. `pool` holds the
// nodes to draw arguments from; `fs` are symbols of arity 1, 2 and 3.
template <class Ctx>
void internMatchesReference(Ctx& ctx, std::map<NodeKey, Expr>& ref,
                            std::vector<Expr>& pool,
                            const std::vector<FuncId>& fs, Rng& rng,
                            int steps) {
  std::vector<NodeKey> seen;
  for (int i = 0; i < steps; ++i) {
    NodeKey key;
    if (!seen.empty() && rng.below(4) == 0) {
      key = seen[rng.below(seen.size())];  // a node that exists already
    } else {
      // Mostly recent (often unused) arguments, sometimes any older one.
      auto pick = [&] {
        const std::size_t n = pool.size();
        return rng.coin() ? pool[n - 1 - rng.below(std::min<std::size_t>(n, 8))]
                          : pool[rng.below(n)];
      };
      const unsigned shape = rng.below(5);
      std::vector<Expr> args;
      if (shape < 3) {
        for (unsigned j = 0; j <= shape; ++j) args.push_back(pick());
        key = {Kind::Uf, fs[shape], args};
      } else if (shape == 3) {
        key = {Kind::Read, kNoSym, {pick(), pick()}};
      } else {
        key = {Kind::Write, kNoSym, {pick(), pick(), pick()}};
      }
    }
    const auto& [k, sym, args] = key;
    const std::size_t before = ctx.numNodes();
    Expr e = kNoExpr;
    switch (k) {
      case Kind::Uf: e = ctx.apply(sym, args); break;
      case Kind::Read: e = ctx.mkRead(args[0], args[1]); break;
      default: e = ctx.mkWrite(args[0], args[1], args[2]); break;
    }
    const auto it = ref.find(key);
    if (it != ref.end()) {
      ASSERT_EQ(e, it->second) << "step " << i << ": missed an existing node";
      ASSERT_EQ(ctx.numNodes(), before);
    } else {
      ASSERT_EQ(e, before) << "step " << i << ": hit a node that differs";
      ASSERT_EQ(ctx.numNodes(), before + 1);
      ref.emplace(key, e);
      seen.push_back(key);
      pool.push_back(e);
    }
    ASSERT_EQ(ctx.kind(e), k);
    ASSERT_TRUE(std::ranges::equal(ctx.args(e), args));
  }
}

TEST_F(EufmTest, InternMatchesAReferenceMapAcrossTableGrowth) {
  // 1024 slots at 70% load double for the 8th time at 91,751 nodes.
  Rng rng(20021);
  const std::vector<FuncId> fs = {cx.declareFunc("f1", 1),
                                  cx.declareFunc("f2", 2),
                                  cx.declareFunc("f3", 3)};
  std::map<NodeKey, Expr> ref;
  std::vector<Expr> pool;
  for (int i = 0; i < 64; ++i) {
    const Expr v = cx.termVar("v" + std::to_string(i));
    ref.emplace(NodeKey{Kind::TermVar, cx.varSym(v), {}}, v);
    pool.push_back(v);
  }
  internMatchesReference(cx, ref, pool, fs, rng, 160000);
  EXPECT_GT(cx.numNodes(), 100000u);
  // find() agrees with the reference on every node, and misses a node
  // whose argument has no user yet.
  for (const auto& [key, e] : ref) {
    const auto& [k, sym, args] = key;
    if (!args.empty()) {
      ASSERT_EQ(cx.find(k, sym, args), e);
    }
  }
  const Expr lone = cx.termVar("lone");
  EXPECT_EQ(cx.find(Kind::Uf, fs[0], std::vector<Expr>{lone}), kNoExpr);
  const Expr f = cx.apply(fs[0], {lone});
  EXPECT_EQ(cx.find(Kind::Uf, fs[0], std::vector<Expr>{lone}), f);
}

TEST_F(EufmTest, ApplyToAnotherNodesArgumentsSurvivesPoolGrowth) {
  // cx.args(e) is a span into the argument pool that apply() appends to,
  // so interning may read it only until the pool reallocates. The pads'
  // varying arities let some of g's inserts land on a reallocation.
  const FuncId f = cx.declareFunc("f", 2);
  const FuncId g = cx.declareFunc("g", 2);
  const std::vector<FuncId> pads = {cx.declareFunc("p1", 1),
                                    cx.declareFunc("p2", 2),
                                    cx.declareFunc("p3", 3)};
  for (int i = 0; i < 20000; ++i) {
    const Expr x = cx.termVar("x" + std::to_string(i));
    const Expr y = cx.termVar("y" + std::to_string(i));
    const std::vector<Expr> padArgs(i % 3 + 1, x);
    cx.apply(pads[i % 3], padArgs);
    const Expr e = cx.apply(f, {x, y});
    const Expr h = cx.apply(g, cx.args(e));
    ASSERT_TRUE(std::ranges::equal(cx.args(h), std::vector<Expr>{x, y}));
    ASSERT_EQ(cx.apply(g, {x, y}), h);
  }
}

TEST_F(EufmTest, ShadowInternMatchesAReferenceMap) {
  // The overlay's local table (rehashed in id order) and its read-through
  // to the frozen base's find(): the reference holds the base's nodes and
  // the overlay's own alike.
  Rng rng(7);
  const std::vector<FuncId> fs = {cx.declareFunc("f1", 1),
                                  cx.declareFunc("f2", 2),
                                  cx.declareFunc("f3", 3)};
  std::map<NodeKey, Expr> ref;
  std::vector<Expr> pool;
  for (int i = 0; i < 32; ++i) {
    const Expr v = cx.termVar("v" + std::to_string(i));
    ref.emplace(NodeKey{Kind::TermVar, cx.varSym(v), {}}, v);
    pool.push_back(v);
  }
  internMatchesReference(cx, ref, pool, fs, rng, 4000);
  ShadowContext sh(cx);
  internMatchesReference(sh, ref, pool, fs, rng, 40000);
  EXPECT_GT(sh.localNodes(), 20000u);
  EXPECT_EQ(cx.numNodes() + sh.localNodes(), sh.numNodes());
}

TEST_F(EufmTest, DeepChainTraversalIsIterative) {
  // A 100k-deep ITE tower must not overflow the stack in traversal, stats
  // or evaluation (all the walkers are iterative).
  Expr t = cx.termVar("t0");
  const Expr a = cx.termVar("a");
  for (int i = 0; i < 100000; ++i)
    t = cx.mkIteT(cx.boolVar("c" + std::to_string(i)), a, t);
  EXPECT_GE(dagSize(cx, t), 100000u);
  EXPECT_GE(stats(cx, t).ites, 100000u);
}

TEST_F(EufmTest, DomainSizeBoundsScalars) {
  const Expr x = cx.termVar("x");
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Interp in(seed, 3);
    Evaluator ev(cx, in);
    EXPECT_LT(ev.evalTerm(x).scalar, 3u);
  }
}

}  // namespace
}  // namespace velev::eufm
