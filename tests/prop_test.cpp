// Tests for the propositional AIG layer and Tseitin CNF translation.
#include <gtest/gtest.h>

#include <sstream>

#include "prop/cnf.hpp"
#include "prop/prop.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

namespace velev::prop {
namespace {

TEST(Prop, ConstantsAndNegation) {
  EXPECT_EQ(negate(kFalse), kTrue);
  EXPECT_EQ(negate(kTrue), kFalse);
  PropCtx cx;
  const PLit a = cx.mkVar();
  EXPECT_EQ(cx.mkNot(cx.mkNot(a)), a);
}

TEST(Prop, AndFolding) {
  PropCtx cx;
  const PLit a = cx.mkVar(), b = cx.mkVar();
  EXPECT_EQ(cx.mkAnd(kTrue, a), a);
  EXPECT_EQ(cx.mkAnd(kFalse, a), kFalse);
  EXPECT_EQ(cx.mkAnd(a, a), a);
  EXPECT_EQ(cx.mkAnd(a, negate(a)), kFalse);
  EXPECT_EQ(cx.mkAnd(a, b), cx.mkAnd(b, a));  // hash-consed commutativity
}

TEST(Prop, OrViaDeMorgan) {
  PropCtx cx;
  const PLit a = cx.mkVar(), b = cx.mkVar();
  EXPECT_EQ(cx.mkOr(a, kTrue), kTrue);
  EXPECT_EQ(cx.mkOr(a, kFalse), a);
  EXPECT_EQ(cx.mkOr(a, negate(a)), kTrue);
  // eval semantics checked below; structurally Or = !(And(!a,!b)).
  EXPECT_EQ(cx.mkOr(a, b), negate(cx.mkAnd(negate(a), negate(b))));
}

TEST(Prop, NegationNormalizesToComplementBits) {
  PropCtx cx;
  const PLit a = cx.mkVar(), b = cx.mkVar();
  const PLit f = cx.mkAnd(a, b);
  // Negation is a bit flip, never a node: same node, flipped polarity, and
  // the double negation is the identity on AND nodes too.
  EXPECT_EQ(nodeOf(negate(f)), nodeOf(f));
  EXPECT_NE(isNegated(negate(f)), isNegated(f));
  EXPECT_EQ(negate(negate(f)), f);
  const std::uint32_t nodesBefore = cx.numNodes();
  EXPECT_EQ(cx.mkNot(f), negate(f));
  EXPECT_EQ(cx.numNodes(), nodesBefore);  // mkNot allocated nothing
}

TEST(Prop, AndChainOperandOrderIsCanonical) {
  PropCtx cx;
  const PLit a = cx.mkVar(), b = cx.mkVar(), c = cx.mkVar(), d = cx.mkVar();
  // Operand order is normalized per node, so the same left-fold chain is
  // the identical literal no matter how each step's operands are written.
  const PLit chain = cx.mkAnd(cx.mkAnd(cx.mkAnd(a, b), c), d);
  EXPECT_EQ(chain, cx.mkAnd(d, cx.mkAnd(c, cx.mkAnd(b, a))));
  const PLit ls[] = {a, b, c, d};
  EXPECT_EQ(chain, cx.mkAndN(ls));
  // Associativity is *not* normalized — an AIG keeps the tree shape — but
  // the two shapes must still be semantically equal.
  const PLit tree = cx.mkAnd(cx.mkAnd(a, b), cx.mkAnd(c, d));
  EXPECT_NE(chain, tree);
  for (int m = 0; m < 16; ++m) {
    const std::vector<bool> as = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0,
                                  (m & 8) != 0};
    EXPECT_EQ(cx.eval(chain, as), cx.eval(tree, as)) << "minterm " << m;
  }
}

TEST(Prop, SharedSubgraphsAreOneNode) {
  PropCtx cx;
  const PLit a = cx.mkVar(), b = cx.mkVar(), c = cx.mkVar(), d = cx.mkVar();
  const PLit ab = cx.mkAnd(a, b);
  // Two formulas over the same subterm share it physically: building them
  // allocates only their own top nodes.
  const std::uint32_t nodesBefore = cx.numNodes();
  const PLit f = cx.mkOr(ab, c);
  const PLit g = cx.mkAnd(ab, d);
  EXPECT_EQ(cx.numNodes(), nodesBefore + 2);
  // Rebuilding either from scratch allocates nothing at all.
  const std::uint32_t nodesAfter = cx.numNodes();
  EXPECT_EQ(cx.mkOr(cx.mkAnd(a, b), c), f);
  EXPECT_EQ(cx.mkAnd(cx.mkAnd(b, a), d), g);
  EXPECT_EQ(cx.numNodes(), nodesAfter);
}

TEST(Prop, EvalTruthTables) {
  PropCtx cx;
  const PLit a = cx.mkVar(), b = cx.mkVar(), c = cx.mkVar();
  const PLit ite = cx.mkIte(a, b, c);
  const PLit x = cx.mkXor(a, b);
  const PLit iff = cx.mkIff(a, b);
  for (int m = 0; m < 8; ++m) {
    const std::vector<bool> as = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    EXPECT_EQ(cx.eval(cx.mkAnd(a, b), as), as[0] && as[1]);
    EXPECT_EQ(cx.eval(cx.mkOr(a, b), as), as[0] || as[1]);
    EXPECT_EQ(cx.eval(ite, as), as[0] ? as[1] : as[2]);
    EXPECT_EQ(cx.eval(x, as), as[0] != as[1]);
    EXPECT_EQ(cx.eval(iff, as), as[0] == as[1]);
    EXPECT_EQ(cx.eval(cx.mkImplies(a, b), as), !as[0] || as[1]);
  }
}

TEST(Prop, AndNOrN) {
  PropCtx cx;
  std::vector<PLit> lits = {cx.mkVar(), cx.mkVar(), cx.mkVar()};
  const PLit all = cx.mkAndN(lits);
  const PLit any = cx.mkOrN(lits);
  for (int m = 0; m < 8; ++m) {
    const std::vector<bool> as = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    EXPECT_EQ(cx.eval(all, as), as[0] && as[1] && as[2]);
    EXPECT_EQ(cx.eval(any, as), as[0] || as[1] || as[2]);
  }
}

TEST(Cnf, TrivialCases) {
  PropCtx cx;
  Cnf sat = tseitin(cx, kTrue, false);
  EXPECT_TRUE(sat.clauses.empty());
  Cnf unsat = tseitin(cx, kFalse, false);
  ASSERT_EQ(unsat.numClauses(), 1u);
  EXPECT_TRUE(unsat.clauses[0].empty());
  Cnf negated = tseitin(cx, kTrue, true);
  ASSERT_EQ(negated.numClauses(), 1u);
}

TEST(Cnf, InputVariablesKeepIndices) {
  PropCtx cx;
  const PLit a = cx.mkVar(), b = cx.mkVar();
  const Cnf cnf = tseitin(cx, cx.mkAnd(a, b), false);
  // Vars 1 and 2 are the inputs; one auxiliary for the AND node.
  EXPECT_EQ(cnf.numVars, 3u);
  EXPECT_EQ(cnf.numClauses(), 4u);  // 3 Tseitin + 1 root unit
}

// Brute-force satisfiability of a CNF restricted to <= 20 variables.
bool bruteForceSat(const Cnf& cnf) {
  for (std::uint64_t m = 0; m < (1ull << cnf.numVars); ++m) {
    bool ok = true;
    for (const auto& c : cnf.clauses) {
      bool cs = false;
      for (CnfLit l : c) {
        const unsigned v = static_cast<unsigned>(std::abs(l)) - 1;
        if ((l > 0) == (((m >> v) & 1) != 0)) {
          cs = true;
          break;
        }
      }
      if (!cs) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

// Evaluate an AIG literal for all input assignments and compare with the
// Tseitin CNF's satisfiability restricted to that assignment: equisat check.
class TseitinProperty : public ::testing::TestWithParam<int> {};

TEST_P(TseitinProperty, RandomFormulaEquisat) {
  Rng rng(GetParam() * 977 + 13);
  PropCtx cx;
  const unsigned nvars = 3 + rng.below(3);
  std::vector<PLit> pool;
  for (unsigned i = 0; i < nvars; ++i) pool.push_back(cx.mkVar());
  // Grow random subformulas.
  for (int i = 0; i < 25; ++i) {
    const PLit a = pool[rng.below(pool.size())];
    const PLit b = pool[rng.below(pool.size())];
    PLit r;
    switch (rng.below(4)) {
      case 0: r = cx.mkAnd(a, b); break;
      case 1: r = cx.mkOr(a, b); break;
      case 2: r = cx.mkXor(a, b); break;
      default: r = cx.mkIte(a, b, pool[rng.below(pool.size())]); break;
    }
    if (rng.coin()) r = negate(r);
    pool.push_back(r);
  }
  const PLit root = pool.back();
  // AIG truth: root satisfiable iff true under some assignment.
  bool aigSat = false;
  for (std::uint64_t m = 0; m < (1ull << nvars); ++m) {
    std::vector<bool> as(nvars);
    for (unsigned v = 0; v < nvars; ++v) as[v] = ((m >> v) & 1) != 0;
    if (cx.eval(root, as)) {
      aigSat = true;
      break;
    }
  }
  const Cnf cnf = tseitin(cx, root, false);
  if (cnf.numVars <= 18)
    EXPECT_EQ(bruteForceSat(cnf), aigSat);
  EXPECT_EQ(sat::solveCnf(cnf) == sat::Result::Sat, aigSat);
  // And the negation is satisfiable iff the formula is not a tautology.
  bool aigTaut = true;
  for (std::uint64_t m = 0; m < (1ull << nvars); ++m) {
    std::vector<bool> as(nvars);
    for (unsigned v = 0; v < nvars; ++v) as[v] = ((m >> v) & 1) != 0;
    if (!cx.eval(root, as)) {
      aigTaut = false;
      break;
    }
  }
  const Cnf neg = tseitin(cx, root, true);
  if (neg.numVars <= 18)
    EXPECT_EQ(bruteForceSat(neg), !aigTaut);
  EXPECT_EQ(sat::solveCnf(neg) == sat::Result::Sat, !aigTaut);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TseitinProperty, ::testing::Range(0, 40));

TEST(Cnf, DimacsRoundTrip) {
  Cnf cnf;
  cnf.numVars = 4;
  cnf.addClause({1, -2, 3});
  cnf.addClause({-4});
  cnf.addClause({2, 4});
  std::stringstream ss;
  writeDimacs(cnf, ss);
  const Cnf back = parseDimacs(ss);
  EXPECT_EQ(back.numVars, cnf.numVars);
  ASSERT_EQ(back.numClauses(), cnf.numClauses());
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i)
    EXPECT_EQ(back.clauses[i], cnf.clauses[i]);
}

TEST(Cnf, DimacsRejectsGarbage) {
  for (const char* text : {
           "p cnf 2 1\n1 5 0\n",  // literal past the declared variables
           "1 2 0\n",              // clause before the header
           // A bad token once ended its line, and the clause ran on into
           // the next one: this parsed as the single clause (1 | -3).
           "p cnf 3 2\n1 x 0\n-3 0\n",
           "p cnf 3 1\n1 2x 0\n",
           "p cnf 3 1\n1 +2 0\n",
           "p cnf -1 1\n",          // once 4,294,967,295 variables
           "p cnf 3\n",
           "p cnf 3 -2\n",
           "p cnf x 1\n",
           "p cnf 2147483648 1\n",  // past INT32_MAX variables
           "p cnf 2147483647 1\n-2147483648 0\n",  // std::abs overflow
           "p cnf 3 1\n1 99999999999 0\n",
       }) {
    std::stringstream ss(text);
    EXPECT_THROW(parseDimacs(ss), InternalError) << text;
  }
  // The widest header still parses, and so do its extreme literals.
  std::stringstream widest("p cnf 2147483647 1\n2147483647 -2147483647 0\n");
  const Cnf cnf = parseDimacs(widest);
  EXPECT_EQ(cnf.numVars, 2147483647u);
  ASSERT_EQ(cnf.numClauses(), 1u);
  EXPECT_EQ(cnf.clauses[0], (Clause{2147483647, -2147483647}));
}

TEST(Cnf, LiteralCount) {
  Cnf cnf;
  cnf.numVars = 3;
  cnf.addClause({1, 2});
  cnf.addClause({-3});
  EXPECT_EQ(cnf.numLiterals(), 3u);
}

}  // namespace
}  // namespace velev::prop
