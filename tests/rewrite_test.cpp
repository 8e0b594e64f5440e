// Tests for the rewriting-rule engine: update-chain mechanics, context
// analysis, guarded substitution, the full engine over a grid of processor
// configurations, bug detection at the exact slice, and semantic soundness
// of the removal (the proven-equal prefix states really are equal under
// random finite interpretations).
#include <gtest/gtest.h>

#include "core/diagram.hpp"
#include "eufm/eval.hpp"
#include "eufm/shadow.hpp"
#include "models/spec.hpp"
#include "rewrite/contexts.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/subst.hpp"
#include "rewrite/update_chain.hpp"
#include "support/rng.hpp"

namespace velev::rewrite {
namespace {

using eufm::Context;
using eufm::Expr;

/// The keep hook that keeps nothing: substituteShallow's full rebuild, the
/// reference the support-pruned substitution is compared against.
constexpr auto keepNothing = [](Expr) { return false; };

class ChainTest : public ::testing::Test {
 protected:
  Context cx;
};

TEST_F(ChainTest, ExtractSingleUpdate) {
  const Expr m = cx.termVar("M");
  const Expr c = cx.boolVar("c");
  const Expr a = cx.termVar("a"), d = cx.termVar("d");
  const Expr u = cx.mkIteT(c, cx.mkWrite(m, a, d), m);
  const UpdateChain chain = extractChain(cx, u);
  EXPECT_EQ(chain.base, m);
  ASSERT_EQ(chain.updates.size(), 1u);
  EXPECT_EQ(chain.updates[0].ctx, c);
  EXPECT_EQ(chain.updates[0].addr, a);
  EXPECT_EQ(chain.updates[0].data, d);
}

TEST_F(ChainTest, ExtractStacksBottomUp) {
  const Expr m = cx.termVar("M");
  Expr cur = m;
  std::vector<Expr> addrs;
  for (int i = 0; i < 4; ++i) {
    const Expr a = cx.termVar("a" + std::to_string(i));
    addrs.push_back(a);
    cur = cx.mkIteT(cx.boolVar("c" + std::to_string(i)),
                    cx.mkWrite(cur, a, cx.termVar("d" + std::to_string(i))),
                    cur);
  }
  const UpdateChain chain = extractChain(cx, cur);
  ASSERT_EQ(chain.updates.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(chain.updates[i].addr, addrs[i]);
  EXPECT_EQ(rebuildChain(cx, chain.base, chain.updates), cur);
}

TEST_F(ChainTest, NonUpdateIsBase) {
  const Expr m = cx.termVar("M");
  const Expr c = cx.boolVar("c");
  // ITE whose else-branch is not the written state: not an update.
  const Expr odd = cx.mkIteT(c, cx.mkWrite(m, cx.termVar("a"),
                                           cx.termVar("d")),
                             cx.termVar("other"));
  const UpdateChain chain = extractChain(cx, odd);
  EXPECT_TRUE(chain.updates.empty());
  EXPECT_EQ(chain.base, odd);
}

TEST_F(ChainTest, ExtractToMissingBaseThrows) {
  const Expr m = cx.termVar("M");
  EXPECT_THROW(extractChainTo(cx, m, cx.termVar("N")), InternalError);
}

TEST_F(ChainTest, ConjunctsFlattenNestedAnds) {
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b"), c = cx.boolVar("c");
  const auto cs = conjuncts(cx, cx.mkAnd(cx.mkAnd(a, b), c));
  EXPECT_EQ(cs.size(), 3u);
}

TEST_F(ChainTest, SyntacticImplication) {
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b"), c = cx.boolVar("c");
  EXPECT_TRUE(impliesSyntactic(cx, cx.mkAnd(cx.mkAnd(a, b), c),
                               cx.mkAnd(a, c)));
  EXPECT_FALSE(impliesSyntactic(cx, cx.mkAnd(a, b), cx.mkAnd(a, c)));
}

TEST_F(ChainTest, DisjointByOppositeLiteral) {
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b");
  EXPECT_TRUE(disjointContexts(cx, cx.mkAnd(a, b),
                               cx.mkAnd(cx.mkNot(a), b)));
  EXPECT_FALSE(disjointContexts(cx, cx.mkAnd(a, b), b));
}

TEST_F(ChainTest, DisjointByNegatedConjunction) {
  // The paper's pattern: retire_2 = r2' & retire_1 vs !retire_1.
  const Expr v1 = cx.boolVar("v1"), v2 = cx.boolVar("v2");
  const Expr r1 = cx.mkOr(cx.mkNot(v1), cx.boolVar("vr1"));
  const Expr r2 = cx.mkAnd(cx.mkOr(cx.mkNot(v2), cx.boolVar("vr2")), r1);
  const Expr ctxRetire = cx.mkAnd(v2, r2);
  const Expr ctxFlush = cx.mkAnd(v1, cx.mkNot(r1));
  EXPECT_TRUE(disjointContexts(cx, ctxFlush, ctxRetire));
}

TEST_F(ChainTest, SubstituteShallowFoldsGuards) {
  const Expr v = cx.boolVar("v"), w = cx.boolVar("w");
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  const Expr e = cx.mkIteT(cx.mkAnd(v, w), x, y);
  BoolAssumptions assume{{v, false}};
  EXPECT_EQ(substituteShallow(cx, e, assume, keepNothing), y);
  BoolAssumptions assume2{{v, true}};
  EXPECT_EQ(substituteShallow(cx, e, assume2, keepNothing),
            cx.mkIteT(w, x, y));
}

TEST_F(ChainTest, SubstituteShallowReturnsKeptNodesUnvisited) {
  const Expr v = cx.boolVar("v"), w = cx.boolVar("w");
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  const Expr inner = cx.mkIteT(w, x, y);
  const Expr e = cx.mkIteT(v, inner, y);
  BoolAssumptions assume{{v, true}};
  std::uint64_t full = 0, pruned = 0;
  EXPECT_EQ(substituteShallow(cx, e, assume, keepNothing, &full), inner);
  EXPECT_EQ(substituteShallow(cx, e, assume,
                              [&](Expr n) { return n == inner; }, &pruned),
            inner);
  EXPECT_EQ(full, 2u);    // e and inner
  EXPECT_EQ(pruned, 1u);  // e alone
}

TEST_F(ChainTest, CaseSplitSupportRecordsHighestSliceInCone) {
  models::RobInitState init;
  for (int s = 0; s < 3; ++s) {
    init.valid.push_back(cx.boolVar("Valid" + std::to_string(s)));
    init.validResult.push_back(cx.boolVar("VR" + std::to_string(s)));
  }
  const Expr x = cx.termVar("x"), m = cx.termVar("M");
  const Expr v0 = cx.mkIteT(init.valid[0], x, cx.termVar("y"));
  const Expr vr2 = cx.mkIteT(init.validResult[2], v0, x);
  const Expr both = cx.mkAnd(init.valid[1], init.validResult[0]);
  // A variable only under a memory argument is outside the walked cone.
  const Expr mem = cx.mkIteT(init.valid[2], cx.mkWrite(m, x, x), m);
  const Expr rd = cx.mkRead(mem, v0);
  const auto support = caseSplitSupport(cx, init);
  ASSERT_EQ(support.size(), cx.numNodes());
  EXPECT_EQ(support[x], 0u);
  EXPECT_EQ(support[init.valid[1]], 2u);
  EXPECT_EQ(support[init.validResult[2]], 3u);
  EXPECT_EQ(support[v0], 1u);
  EXPECT_EQ(support[vr2], 3u);
  EXPECT_EQ(support[both], 2u);
  EXPECT_EQ(support[mem], 3u);
  EXPECT_EQ(support[rd], 1u);
  // Slice 1 keeps what holds slice-0 variables only; shadow ids are new.
  const SupportKeep keep1{support, 1};
  EXPECT_TRUE(keep1(v0));
  EXPECT_TRUE(keep1(rd));
  EXPECT_FALSE(keep1(both));
  EXPECT_FALSE(keep1(static_cast<Expr>(support.size())));
}

TEST_F(ChainTest, SubstituteShallowKeepsReadBases) {
  const Expr m = cx.termVar("M");
  const Expr v = cx.boolVar("v");
  const Expr a = cx.termVar("a"), d = cx.termVar("d");
  // The memory argument contains an ITE guarded by v, but shallow
  // substitution must not rewrite below the read's memory argument.
  const Expr mem = cx.mkIteT(v, cx.mkWrite(m, a, d), m);
  const Expr e = cx.mkRead(mem, cx.mkIteT(v, a, d));
  BoolAssumptions assume{{v, true}};
  const Expr r = substituteShallow(cx, e, assume, keepNothing);
  EXPECT_EQ(r, cx.mkRead(mem, a));  // address folded, base untouched
}

TEST_F(ChainTest, SubstituteMemReplacesBase) {
  const Expr m = cx.termVar("M"), n = cx.termVar("N");
  const Expr a = cx.termVar("a");
  const Expr e = cx.mkRead(m, a);
  EXPECT_EQ(substituteMem(cx, e, m, n), cx.mkRead(n, a));
  // Other bases stay.
  const Expr other = cx.termVar("Other");
  EXPECT_EQ(substituteMem(cx, cx.mkRead(other, a), m, n),
            cx.mkRead(other, a));
}

// ---- full engine over a configuration grid -----------------------------------

struct GridParam {
  unsigned n, k;
};

/// Every RewriteStats field of a run, in declaration order.
struct PinnedStats {
  unsigned slices, contexts, moves, merges, forwarding;
  std::uint64_t nodesTotal, nodesMax;
};

void expectPinned(const RewriteStats& got, const PinnedStats& want) {
  EXPECT_EQ(got.slicesChecked, want.slices);
  EXPECT_EQ(got.contextChecks, want.contexts);
  EXPECT_EQ(got.movesApplied, want.moves);
  EXPECT_EQ(got.mergesApplied, want.merges);
  EXPECT_EQ(got.forwardingMatches, want.forwarding);
  EXPECT_EQ(got.sliceNodesTotal, want.nodesTotal);
  EXPECT_EQ(got.sliceNodesMax, want.nodesMax);
  EXPECT_EQ(got.rulesFired(), std::uint64_t{want.slices} + want.contexts +
                                  want.moves + want.merges + want.forwarding);
}

/// The engine's stats on each correct EngineGrid cell, as the full-rebuild
/// case split (no support pruning, no per-level memo) produced them.
PinnedStats gridPin(unsigned n, unsigned k) {
  struct Row {
    unsigned n, k;
    PinnedStats stats;
  };
  static const Row rows[] = {
      {1, 1, {1, 2, 0, 1, 2, 3, 3}},      {2, 1, {2, 3, 0, 1, 4, 6, 3}},
      {2, 2, {2, 4, 1, 2, 4, 7, 4}},      {3, 1, {3, 4, 0, 1, 6, 11, 5}},
      {3, 2, {3, 5, 1, 2, 6, 12, 5}},     {3, 3, {3, 6, 3, 3, 6, 13, 6}},
      {4, 2, {4, 6, 1, 2, 8, 17, 5}},     {4, 4, {4, 8, 6, 4, 8, 19, 6}},
      {5, 3, {5, 8, 3, 3, 10, 23, 6}},    {6, 2, {6, 8, 1, 2, 12, 27, 5}},
      {8, 4, {8, 12, 6, 4, 16, 39, 6}},   {8, 8, {8, 16, 28, 8, 16, 43, 6}},
      {12, 2, {12, 14, 1, 2, 24, 57, 5}}, {16, 8, {16, 24, 28, 8, 32, 83, 6}},
  };
  for (const Row& r : rows)
    if (r.n == n && r.k == k) return r.stats;
  ADD_FAILURE() << "no pinned stats for " << n << "x" << k;
  return {};
}

class EngineGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(EngineGrid, CorrectDesignRewrites) {
  const auto [n, k] = GetParam();
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);

  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  ASSERT_TRUE(rw.ok) << "slice " << rw.failedSlice << ": " << rw.message;
  EXPECT_EQ(rw.updatesRemoved, k + 2 * n);
  EXPECT_EQ(rw.failedSlice, 0u);
  EXPECT_EQ(rw.message, "");
  expectPinned(rw.stats, gridPin(n, k));

  // The rewritten implementation side carries exactly the k new-instruction
  // updates over the fresh equal state; m-th spec side carries m updates.
  const UpdateChain ic = extractChainTo(cx, rw.implRegFile, rw.equalStateVar);
  EXPECT_EQ(ic.updates.size(), k);
  for (unsigned m = 0; m <= k; ++m) {
    const UpdateChain sc =
        extractChainTo(cx, rw.specRegFile[m], rw.equalStateVar);
    EXPECT_EQ(sc.updates.size(), m);
  }

  // Semantic soundness of the removal: the prefix states proven equal by
  // the rules — the implementation state below the new-instruction updates
  // and the flushed initial state — must be equal under every sampled
  // interpretation.
  const UpdateChain full = extractChain(cx, d.implRegFile);
  const Expr implPrefix = full.updates[full.updates.size() - k].prev;
  const Expr claim = cx.mkEq(implPrefix, d.specRegFile[0]);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    eufm::Interp in(seed, 2);
    eufm::Evaluator ev(cx, in);
    EXPECT_TRUE(ev.evalFormula(claim)) << "n=" << n << " k=" << k
                                       << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineGrid,
    ::testing::Values(GridParam{1, 1}, GridParam{2, 1}, GridParam{2, 2},
                      GridParam{3, 1}, GridParam{3, 2}, GridParam{3, 3},
                      GridParam{4, 2}, GridParam{4, 4}, GridParam{5, 3},
                      GridParam{6, 2}, GridParam{8, 4}, GridParam{8, 8},
                      GridParam{12, 2}, GridParam{16, 8}),
    [](const auto& info) {
      return "N" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k);
    });

// The reassembled correctness formula over the rewritten Register File
// expressions must itself be EUFM-valid: sample it with random finite
// interpretations (the fresh equal-state variable is just another term
// variable there).
TEST_P(EngineGrid, RewrittenCorrectnessRemainsValid) {
  const auto [n, k] = GetParam();
  if (n > 8) GTEST_SKIP() << "evaluation cost";
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  ASSERT_TRUE(rw.ok);
  Expr c = cx.mkFalse();
  for (unsigned m = 0; m <= k; ++m)
    c = cx.mkOr(c, cx.mkAnd(cx.mkEq(d.implPc, d.specPc[m]),
                            cx.mkEq(rw.implRegFile, rw.specRegFile[m])));
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    eufm::Interp in(seed * 3 + 1, 2);
    eufm::Evaluator ev(cx, in);
    EXPECT_TRUE(ev.evalFormula(c)) << "seed " << seed;
  }
}

// Fuzz the chain utilities: random chains survive an extract/rebuild
// round-trip both structurally and semantically.
class ChainFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ChainFuzz, ExtractRebuildRoundTrip) {
  Rng rng(GetParam() * 7919 + 3);
  Context cx;
  const Expr base = cx.termVar("M");
  Expr cur = base;
  const unsigned len = 1 + rng.below(12);
  for (unsigned i = 0; i < len; ++i) {
    // Contexts must be pairwise distinct between adjacent updates: with an
    // identical condition the ITE same-condition fold legitimately merges
    // the chain (processor chains always have distinct contexts per slice).
    const Expr ctx = cx.boolVar("c" + std::to_string(i));
    const Expr addr = cx.termVar("a" + std::to_string(rng.below(4)));
    const Expr data = cx.termVar("d" + std::to_string(rng.below(4)));
    cur = cx.mkIteT(ctx, cx.mkWrite(cur, addr, data), cur);
  }
  const UpdateChain chain = extractChain(cx, cur);
  EXPECT_EQ(chain.base, base);
  // Hash-consing makes the round-trip an identity on node ids.
  EXPECT_EQ(rebuildChain(cx, chain.base, chain.updates), cur);
  // And extractChainTo agrees when given the right base.
  const UpdateChain chain2 = extractChainTo(cx, cur, base);
  EXPECT_EQ(chain2.updates.size(), chain.updates.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainFuzz, ::testing::Range(0, 20));

// ---- bug detection -------------------------------------------------------------

struct BugParam {
  models::BugKind kind;
  unsigned n, k, index;
};

class EngineBugs : public ::testing::TestWithParam<BugParam> {};

/// The engine's failing slice, message and stats on each EngineBugs cell,
/// as the full-rebuild case split produced them.
struct BugPin {
  unsigned failedSlice;
  const char* message;
  PinnedStats stats;
};

BugPin bugPin(const BugParam& p) {
  using models::BugKind;
  static const char* const kOperand =
      "forwarded operand 1 cannot be matched against the "
      "specification-side read (rule 2.1)";
  static const char* const kNotAlu =
      "regular-cycle execution result is not an ALU application on "
      "Opcode_i";
  struct Row {
    BugParam param;
    BugPin pin;
  };
  static const Row rows[] = {
      {{BugKind::ForwardingWrongOperand, 8, 2, 5},
       {5, kOperand, {4, 10, 1, 2, 8, 17, 5}}},
      {{BugKind::ForwardingWrongOperand, 16, 4, 12},
       {12, kOperand, {11, 20, 6, 4, 22, 54, 6}}},
      {{BugKind::ForwardingWrongOperand, 4, 2, 2},
       {2, kOperand, {1, 6, 1, 1, 2, 3, 3}}},
      {{BugKind::ForwardingStaleResult, 8, 2, 6},
       {6, kOperand, {5, 10, 1, 2, 10, 22, 5}}},
      {{BugKind::ForwardingStaleResult, 6, 3, 4},
       {4, kOperand, {3, 9, 3, 3, 6, 13, 6}}},
      {{BugKind::AluWrongOpcode, 8, 4, 3},
       {3, kNotAlu, {2, 12, 6, 2, 4, 7, 4}}},
      {{BugKind::AluWrongOpcode, 5, 1, 5},
       {5, kNotAlu, {4, 6, 0, 1, 8, 16, 5}}},
      {{BugKind::RetireIgnoresValidResult, 6, 3, 2},
       {2,
        "completion branch is not the expected ALU application over reads "
        "from the implementation prefix state (rule 2.2)",
        {1, 9, 3, 1, 2, 3, 3}}},
      {{BugKind::RetireIgnoresValidResult, 4, 2, 1},
       {1, "unexpected number of implementation updates: got 7, expected 8",
        {0, 0, 0, 0, 0, 0, 0}}},
      {{BugKind::CompletionSkipsWrite, 8, 2, 4},
       {1,
        "unexpected number of implementation updates: got 11, expected 12",
        {0, 0, 0, 0, 0, 0, 0}}},
      {{BugKind::CompletionSkipsWrite, 5, 2, 5},
       {1, "unexpected number of implementation updates: got 8, expected 9",
        {0, 0, 0, 0, 0, 0, 0}}},
  };
  for (const Row& r : rows)
    if (r.param.kind == p.kind && r.param.n == p.n && r.param.k == p.k &&
        r.param.index == p.index)
      return r.pin;
  ADD_FAILURE() << "no pinned result for this bug cell";
  return {0, "", {}};
}

TEST_P(EngineBugs, FlagsTheBuggySlice) {
  const auto [kind, n, k, index] = GetParam();
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k}, {kind, index});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  ASSERT_FALSE(rw.ok) << "bug was not detected";
  // Forwarding/ALU bugs are pinpointed at their slice; structural bugs
  // (retire / completion-skip) surface at or before the affected slice.
  if (kind == models::BugKind::ForwardingWrongOperand ||
      kind == models::BugKind::ForwardingStaleResult ||
      kind == models::BugKind::AluWrongOpcode) {
    EXPECT_EQ(rw.failedSlice, index) << rw.message;
  } else {
    EXPECT_GE(rw.failedSlice, 1u);
    EXPECT_LE(rw.failedSlice, index);
  }
  const BugPin pin = bugPin(GetParam());
  EXPECT_EQ(rw.failedSlice, pin.failedSlice);
  EXPECT_EQ(rw.message, pin.message);
  EXPECT_EQ(rw.updatesRemoved, 0u);
  expectPinned(rw.stats, pin.stats);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EngineBugs,
    ::testing::Values(
        BugParam{models::BugKind::ForwardingWrongOperand, 8, 2, 5},
        BugParam{models::BugKind::ForwardingWrongOperand, 16, 4, 12},
        BugParam{models::BugKind::ForwardingWrongOperand, 4, 2, 2},
        BugParam{models::BugKind::ForwardingStaleResult, 8, 2, 6},
        BugParam{models::BugKind::ForwardingStaleResult, 6, 3, 4},
        BugParam{models::BugKind::AluWrongOpcode, 8, 4, 3},
        BugParam{models::BugKind::AluWrongOpcode, 5, 1, 5},
        BugParam{models::BugKind::RetireIgnoresValidResult, 6, 3, 2},
        BugParam{models::BugKind::RetireIgnoresValidResult, 4, 2, 1},
        BugParam{models::BugKind::CompletionSkipsWrite, 8, 2, 4},
        BugParam{models::BugKind::CompletionSkipsWrite, 5, 2, 5}),
    [](const auto& info) {
      return "kind" + std::to_string(static_cast<int>(info.param.kind)) +
             "N" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k) + "i" +
             std::to_string(info.param.index);
    });

// The paper's exact buggy experiment: forwarding bug in one operand of the
// 72nd instruction of a 128-entry ROB with issue width 4 — the engine must
// identify slice 72.
TEST(EngineBugsPaper, Slice72Of128) {
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(
      cx, isa, {128, 4}, {models::BugKind::ForwardingWrongOperand, 72});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  ASSERT_FALSE(rw.ok);
  EXPECT_EQ(rw.failedSlice, 72u);
  EXPECT_EQ(rw.message,
            "forwarded operand 1 cannot be matched against the "
            "specification-side read (rule 2.1)");
  expectPinned(rw.stats, {71, 132, 6, 4, 142, 354, 6});
}

// ---- support-pruned case split -------------------------------------------------

struct PruneCell {
  const char* name;
  unsigned n, k;
  models::BugKind bug;
  unsigned index;
};

void PrintTo(const PruneCell& c, std::ostream* os) { *os << c.name; }

class PrunedCaseSplit : public ::testing::TestWithParam<PruneCell> {};

// On every slice, the case split that keeps the nodes outside the slice's
// support must give the node id the full rebuild gives, and intern exactly
// the same scratch: under Valid_i with ValidResult_i true and false (both
// sides' data), and under ValidResult_i alone (the per-level spec check).
TEST_P(PrunedCaseSplit, MatchesTheFullRebuildOnEverySlice) {
  const PruneCell& c = GetParam();
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {c.n, c.k}, {c.bug, c.index});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const models::RobInitState& init = impl->init;

  // A structural bug may drop an update from either chain (the
  // specification side flushes the implementation's initial state); the
  // slices that have one are compared.
  const UpdateChain ic = extractChain(cx, d.implRegFile);
  const UpdateChain sc = extractChainTo(cx, d.specRegFile[0], init.regFile);
  ASSERT_GE(ic.updates.size(), 2 * c.k);
  const std::size_t flushes = ic.updates.size() - 2 * c.k;
  const auto support = caseSplitSupport(cx, init);
  ASSERT_EQ(support.size(), cx.numNodes());

  std::uint64_t prunedTotal = 0, fullTotal = 0;
  auto same = [&](Expr root, const BoolAssumptions& assume, unsigned i,
                  const char* what) {
    eufm::ShadowContext a(cx), b(cx);
    std::uint64_t pruned = 0, full = 0;
    const Expr pr = substituteShallow(a, root, assume, SupportKeep{support, i},
                                      &pruned);
    const Expr fr = substituteShallow(b, root, assume, keepNothing, &full);
    EXPECT_EQ(pr, fr) << what << ", slice " << i + 1;
    EXPECT_EQ(a.localNodes(), b.localNodes()) << what << ", slice " << i + 1;
    EXPECT_LE(pruned, full);
    prunedTotal += pruned;
    fullTotal += full;
  };
  for (unsigned i = 0; i < c.n; ++i) {
    const BoolAssumptions vr1{{init.valid[i], true},
                              {init.validResult[i], true}};
    const BoolAssumptions vr0{{init.valid[i], true},
                              {init.validResult[i], false}};
    const BoolAssumptions level{{init.validResult[i], true}};
    if (i < flushes) {
      const Expr implData = ic.updates[c.k + i].data;
      same(implData, vr1, i, "impl data, ValidResult true");
      same(implData, vr0, i, "impl data, ValidResult false");
    }
    if (i < sc.updates.size()) {
      const Expr specData = sc.updates[i].data;
      same(specData, vr1, i, "spec data, ValidResult true");
      same(specData, vr0, i, "spec data, ValidResult false");
      same(specData, level, i, "spec data, ValidResult alone");
    }
  }
  // The forwarding chains make the full rebuild grow with the slice index.
  if (c.n >= 16) {
    EXPECT_LT(2 * prunedTotal, fullTotal);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PrunedCaseSplit,
    ::testing::Values(
        PruneCell{"N1k1", 1, 1, models::BugKind::None, 0},
        PruneCell{"N2k1", 2, 1, models::BugKind::None, 0},
        PruneCell{"N2k2", 2, 2, models::BugKind::None, 0},
        PruneCell{"N3k1", 3, 1, models::BugKind::None, 0},
        PruneCell{"N3k2", 3, 2, models::BugKind::None, 0},
        PruneCell{"N3k3", 3, 3, models::BugKind::None, 0},
        PruneCell{"N4k2", 4, 2, models::BugKind::None, 0},
        PruneCell{"N4k4", 4, 4, models::BugKind::None, 0},
        PruneCell{"N5k3", 5, 3, models::BugKind::None, 0},
        PruneCell{"N6k2", 6, 2, models::BugKind::None, 0},
        PruneCell{"N8k4", 8, 4, models::BugKind::None, 0},
        PruneCell{"N8k8", 8, 8, models::BugKind::None, 0},
        PruneCell{"N12k2", 12, 2, models::BugKind::None, 0},
        PruneCell{"N16k8", 16, 8, models::BugKind::None, 0},
        PruneCell{"fwd_N16k4i12", 16, 4,
                  models::BugKind::ForwardingWrongOperand, 12},
        PruneCell{"stale_N8k2i6", 8, 2, models::BugKind::ForwardingStaleResult,
                  6},
        PruneCell{"retire_N6k3i2", 6, 3,
                  models::BugKind::RetireIgnoresValidResult, 2},
        PruneCell{"alu_N8k4i3", 8, 4, models::BugKind::AluWrongOpcode, 3},
        PruneCell{"completion_N8k2i4", 8, 2,
                  models::BugKind::CompletionSkipsWrite, 4},
        PruneCell{"paper_fwd_N128k4i72", 128, 4,
                  models::BugKind::ForwardingWrongOperand, 72}),
    [](const auto& info) { return std::string(info.param.name); });

// The forwarding bug only mis-wires operand 1 of one slice; if the buggy
// slice's two source registers are the same variable the design is
// accidentally correct — the engine must then succeed. (Checks the engine
// is not over-eager.)
TEST(EngineBugsPaper, WrongOperandBugOnSlice1IsHarmless) {
  // Slice 1 has no preceding entries, so its forwarding chain is empty and
  // the mis-wiring cannot manifest.
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(
      cx, isa, {4, 2}, {models::BugKind::ForwardingWrongOperand, 1});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  EXPECT_TRUE(rw.ok) << rw.message;
}

}  // namespace
}  // namespace velev::rewrite
