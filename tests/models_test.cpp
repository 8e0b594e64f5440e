// Tests for the processor models: structural properties of the generated
// netlists, the semantics of the abstract out-of-order core, and — most
// importantly — concrete co-simulation: under random finite interpretations
// of the uninterpreted functions, one regular cycle plus flushing of the
// implementation must produce the same architectural state as running the
// specification for (number of fetched instructions) steps from the flushed
// initial state. This validates the Burch–Dill diagram at the semantic
// level, independent of the translation pipeline.
#include <gtest/gtest.h>

#include "core/diagram.hpp"
#include "eufm/eval.hpp"
#include "models/ooo.hpp"
#include "models/spec.hpp"
#include "support/rng.hpp"

namespace velev::models {
namespace {

using eufm::Context;
using eufm::Expr;

TEST(Models, ConfigValidation) {
  Context cx;
  const Isa isa = Isa::declare(cx);
  EXPECT_THROW(buildOoO(cx, isa, {2, 3}), InternalError);  // k > N
  EXPECT_THROW(buildOoO(cx, isa, {4, 0}), InternalError);  // k = 0
  EXPECT_NO_THROW(buildOoO(cx, isa, {4, 4}));
}

TEST(Models, BugSiteValidation) {
  // A silently ignored bug injection would make "verified correct"
  // meaningless — out-of-range sites must be rejected.
  Context cx;
  const Isa isa = Isa::declare(cx);
  EXPECT_THROW(buildOoO(cx, isa, {4, 2},
                        {BugKind::ForwardingWrongOperand, 0}),
               InternalError);
  EXPECT_THROW(buildOoO(cx, isa, {4, 2},
                        {BugKind::ForwardingWrongOperand, 5}),
               InternalError);
  // Retire bugs only exist within the retire width.
  EXPECT_THROW(buildOoO(cx, isa, {4, 2},
                        {BugKind::RetireIgnoresValidResult, 3}),
               InternalError);
  // Completion bugs may target the extra (newly-fetched) entries too.
  EXPECT_NO_THROW(
      buildOoO(cx, isa, {4, 2}, {BugKind::CompletionSkipsWrite, 6}));
  EXPECT_THROW(buildOoO(cx, isa, {4, 2},
                        {BugKind::CompletionSkipsWrite, 7}),
               InternalError);
}

TEST(Models, BugIndexLimitMatchesBuildAcceptanceForEveryKind) {
  // bugIndexLimit() is the fuzz generator's (and the corpus loader's)
  // contract with buildOoO: index `limit` builds, `limit + 1` throws —
  // for every kind a fuzz case can carry.
  const OoOConfig cfg{4, 2};
  for (const BugKind kind :
       {BugKind::ForwardingWrongOperand, BugKind::ForwardingStaleResult,
        BugKind::RetireIgnoresValidResult, BugKind::AluWrongOpcode,
        BugKind::CompletionSkipsWrite}) {
    const unsigned limit = bugIndexLimit(kind, cfg);
    ASSERT_GE(limit, 1u) << bugKindName(kind);
    Context cx;
    const Isa isa = Isa::declare(cx);
    EXPECT_NO_THROW(buildOoO(cx, isa, cfg, {kind, limit}))
        << bugKindName(kind);
    EXPECT_THROW(buildOoO(cx, isa, cfg, {kind, limit + 1}), InternalError)
        << bugKindName(kind);
  }
  // The expected per-kind shapes: retire bugs live in the retire width,
  // completion bugs reach the newly fetched entries, the rest span the ROB.
  EXPECT_EQ(bugIndexLimit(BugKind::RetireIgnoresValidResult, cfg), 2u);
  EXPECT_EQ(bugIndexLimit(BugKind::CompletionSkipsWrite, cfg), 6u);
  EXPECT_EQ(bugIndexLimit(BugKind::AluWrongOpcode, cfg), 4u);
  EXPECT_EQ(bugIndexLimit(BugKind::ForwardingWrongOperand, cfg), 4u);
  EXPECT_EQ(bugIndexLimit(BugKind::ForwardingStaleResult, cfg), 4u);
  EXPECT_EQ(bugIndexLimit(BugKind::None, cfg), 0u);
}

TEST(Models, EntryCountsMatchConfig) {
  Context cx;
  const Isa isa = Isa::declare(cx);
  auto p = buildOoO(cx, isa, {5, 3});
  EXPECT_EQ(p->valid.size(), 8u);  // N + k
  EXPECT_EQ(p->done.size(), 8u);
  EXPECT_EQ(p->retire.size(), 3u);
  EXPECT_EQ(p->exec.size(), 5u);
  EXPECT_EQ(p->fetch.size(), 3u);
  EXPECT_EQ(p->init.valid.size(), 5u);
  EXPECT_EQ(p->init.ndFetch.size(), 3u);
  EXPECT_EQ(p->flushCycles(), 8u);
}

TEST(Models, ExtraEntriesStartInvalid) {
  Context cx;
  const Isa isa = Isa::declare(cx);
  auto p = buildOoO(cx, isa, {3, 2});
  for (unsigned j = 3; j < 5; ++j)
    EXPECT_EQ(p->netlist.signal(p->valid[j]).fixed, cx.mkFalse());
  for (unsigned i = 0; i < 3; ++i)
    EXPECT_EQ(p->netlist.signal(p->valid[i]).fixed,
              cx.boolVar("Valid_" + std::to_string(i + 1) + "_0"));
}

TEST(Models, SharedIsaSymbolsAreConsistent) {
  Context cx;
  const Isa a = Isa::declare(cx);
  const Isa b = Isa::declare(cx);
  EXPECT_EQ(a.alu, b.alu);
  EXPECT_EQ(a.imem, b.imem);
}

// ---- concrete co-simulation -------------------------------------------------

struct CoSimParam {
  unsigned n, k;
  std::uint64_t seed;
};

class CoSimulation : public ::testing::TestWithParam<CoSimParam> {};

TEST_P(CoSimulation, ImplMatchesSpecUnderRandomInterpretation) {
  const auto [n, k, seed] = GetParam();
  Context cx;
  const Isa isa = Isa::declare(cx);
  auto impl = buildOoO(cx, isa, {n, k});
  auto spec = buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);

  // Correctness must evaluate to true under any interpretation; use small
  // domains to exercise register aliasing.
  for (std::uint64_t domain : {2ull, 3ull, 8ull}) {
    eufm::Interp in(seed * 17 + domain, domain);
    eufm::Evaluator ev(cx, in);
    EXPECT_TRUE(ev.evalFormula(d.correctness))
        << "n=" << n << " k=" << k << " seed=" << seed
        << " domain=" << domain;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CoSimulation,
    ::testing::Values(CoSimParam{1, 1, 0}, CoSimParam{1, 1, 1},
                      CoSimParam{2, 1, 2}, CoSimParam{2, 2, 3},
                      CoSimParam{2, 2, 4}, CoSimParam{3, 1, 5},
                      CoSimParam{3, 2, 6}, CoSimParam{3, 3, 7},
                      CoSimParam{4, 2, 8}, CoSimParam{4, 4, 9},
                      CoSimParam{5, 2, 10}, CoSimParam{6, 3, 11}),
    [](const auto& info) {
      return "N" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k) + "s" +
             std::to_string(info.param.seed);
    });

// Directed co-simulation: pin the non-deterministic controls so that
// specific scenarios are exercised (nothing fetched; everything fetched;
// nothing executes; everything ready executes).
class DirectedCoSim : public ::testing::TestWithParam<int> {};

TEST_P(DirectedCoSim, PinnedSchedules) {
  const int scenario = GetParam();
  Context cx;
  const Isa isa = Isa::declare(cx);
  const unsigned n = 3, k = 2;
  auto impl = buildOoO(cx, isa, {n, k});
  auto spec = buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);

  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    eufm::Interp in(seed, 3);
    for (unsigned i = 0; i < n; ++i)
      in.setBool(impl->init.ndExecute[i], scenario == 1 || scenario == 3);
    for (unsigned j = 0; j < k; ++j)
      in.setBool(impl->init.ndFetch[j], scenario == 2 || scenario == 3);
    eufm::Evaluator ev(cx, in);
    EXPECT_TRUE(ev.evalFormula(d.correctness))
        << "scenario=" << scenario << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, DirectedCoSim, ::testing::Range(0, 4));

// Buggy models must be observably wrong: for each bug kind there must exist
// an interpretation (over many seeds, with all controls enabled) where the
// correctness formula evaluates to false.
class BuggyCoSim : public ::testing::TestWithParam<BugKind> {};

TEST_P(BuggyCoSim, BugIsSemanticallySignificant) {
  const BugKind kind = GetParam();
  Context cx;
  const Isa isa = Isa::declare(cx);
  const unsigned n = 3, k = 2;
  const unsigned index = kind == BugKind::RetireIgnoresValidResult ? 2 : 3;
  auto impl = buildOoO(cx, isa, {n, k}, {kind, index});
  auto spec = buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);

  bool falsified = false;
  for (std::uint64_t seed = 0; seed < 400 && !falsified; ++seed) {
    eufm::Interp in(seed, 2);  // tiny domain maximizes aliasing
    for (unsigned i = 0; i < n; ++i)
      in.setBool(impl->init.ndExecute[i], true);
    eufm::Evaluator ev(cx, in);
    falsified = !ev.evalFormula(d.correctness);
  }
  EXPECT_TRUE(falsified) << "bug kind " << static_cast<int>(kind)
                         << " was never observable";
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BuggyCoSim,
    ::testing::Values(BugKind::ForwardingWrongOperand,
                      BugKind::ForwardingStaleResult,
                      BugKind::RetireIgnoresValidResult,
                      BugKind::AluWrongOpcode));

TEST(Models, CompletionBugIsInvisibleToTheSafetyCriterion) {
  // A skipped completion-function write affects the abstraction function on
  // BOTH sides of the commutative diagram identically (the specification
  // side flushes the initial state through the same buggy completion
  // logic), so the Burch–Dill safety criterion remains valid. The rewriting
  // engine still reports the malformed slice (see rewrite_test); here we
  // document the semantic fact.
  Context cx;
  const Isa isa = Isa::declare(cx);
  auto impl = buildOoO(cx, isa, {3, 2}, {BugKind::CompletionSkipsWrite, 3});
  auto spec = buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    eufm::Interp in(seed, 2);
    eufm::Evaluator ev(cx, in);
    EXPECT_TRUE(ev.evalFormula(d.correctness)) << "seed " << seed;
  }
}

TEST(Models, CorrectDesignHasNoneBugEquivalence) {
  // BugKind::None with any index equals the default-built design.
  Context cx;
  const Isa isa = Isa::declare(cx);
  auto a = buildOoO(cx, isa, {3, 2});
  auto b = buildOoO(cx, isa, {3, 2}, {BugKind::None, 7});
  EXPECT_EQ(a->netlist.numSignals(), b->netlist.numSignals());
}

TEST(Models, SpecStepStructure) {
  Context cx;
  const Isa isa = Isa::declare(cx);
  auto spec = buildSpec(cx, isa);
  tlsim::Simulator sim(spec->netlist);
  const Expr pc0 = sim.state(spec->pc);
  sim.step();
  EXPECT_EQ(sim.state(spec->pc), cx.apply(isa.nextPc, {pc0}));
}

TEST(Models, DiagramPcShapes) {
  Context cx;
  const Isa isa = Isa::declare(cx);
  auto impl = buildOoO(cx, isa, {2, 2});
  auto spec = buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  // Flushing never changes the PC: spec side m=0 is the initial PC.
  EXPECT_EQ(d.specPc[0], cx.termVar("PC_0"));
  EXPECT_EQ(d.specPc[1], cx.apply(isa.nextPc, {d.specPc[0]}));
  EXPECT_EQ(d.specPc[2], cx.apply(isa.nextPc, {d.specPc[1]}));
  EXPECT_EQ(d.specPc.size(), 3u);
  EXPECT_EQ(d.specRegFile.size(), 3u);
}

// ---- pinned DAG identity -----------------------------------------------------
// Speed-ups to simulation and hash-consing must not move a single node:
// every later stage, and every CNF, is keyed by these ids. The counters and
// the ids of the diagram's roots are pinned.

struct DiagramPin {
  unsigned n, k;
  bool coi;
  std::uint64_t nodes, arenaBytes, implEvals, flushEvals;
  Expr implRegFile, correctness;
  std::vector<Expr> specRegFile;  // m = 0..k
};

TEST(Models, DiagramIdsAndCountersPinned) {
  const std::vector<DiagramPin> pins = {
      {16, 4, true, 1625, 67080, 9317, 7730, 1605, 1624,
       {254, 266, 278, 290, 302}},
      {64, 8, true, 18481, 733928, 113699, 95396, 18445, 18480,
       {950, 962, 974, 986, 998, 1010, 1022, 1034, 1046}},
      {128, 16, true, 69729, 2936032, 449663, 380296, 69661, 69728,
       {1894, 1906, 1918, 1930, 1942, 1954, 1966, 1978, 1990, 2002, 2014, 2026,
        2038, 2050, 2062, 2074, 2086}},
      {32, 4, false, 88126, 4062040, 198024, 192672, 88106, 88125,
       {41959, 43167, 43172, 43177, 43182}},
  };
  for (const DiagramPin& pin : pins) {
    SCOPED_TRACE(std::to_string(pin.n) + "x" + std::to_string(pin.k) +
                 (pin.coi ? "" : " without cone of influence"));
    Context cx;
    const Isa isa = Isa::declare(cx);
    auto impl = buildOoO(cx, isa, {pin.n, pin.k});
    auto spec = buildSpec(cx, isa);
    const core::Diagram d =
        core::buildDiagram(cx, *impl, *spec, {.coneOfInfluence = pin.coi});
    EXPECT_EQ(cx.numNodes(), pin.nodes);
    EXPECT_EQ(cx.memoryBytes(), pin.arenaBytes);
    EXPECT_EQ(d.implSimStats.signalEvals, pin.implEvals);
    EXPECT_EQ(d.flushSimStats.signalEvals, pin.flushEvals);
    EXPECT_EQ(d.implRegFile, pin.implRegFile);
    EXPECT_EQ(d.correctness, pin.correctness);
    EXPECT_EQ(d.specRegFile, pin.specRegFile);
  }
}

// ---- name-registry round trip ----------------------------------------------
// Every BugKind must round-trip through the support/names.hpp registry; an
// enumerator added without a table entry fails here.

class BugKindNames : public ::testing::TestWithParam<BugKind> {};
TEST_P(BugKindNames, RoundTrips) {
  const char* name = names::nameOf(GetParam());
  EXPECT_STRNE(name, "unknown");
  const auto back = names::fromName<BugKind>(name);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, GetParam());
  EXPECT_STREQ(bugKindName(GetParam()), name);  // legacy wrapper agrees
  EXPECT_EQ(bugKindFromName(name), GetParam());
}
INSTANTIATE_TEST_SUITE_P(Registry, BugKindNames,
                         ::testing::ValuesIn(names::valuesOf<BugKind>()),
                         [](const auto& info) {
                           return std::to_string(info.index);
                         });

}  // namespace
}  // namespace velev::models
