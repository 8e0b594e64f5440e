// Tests for the term-level netlist and the demand-driven symbolic simulator,
// including the equivalence of cone-of-influence and naive evaluation modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "eufm/eval.hpp"
#include "eufm/print.hpp"
#include "support/rng.hpp"
#include "tlsim/netlist.hpp"
#include "tlsim/sim.hpp"

namespace velev::tlsim {
namespace {

using eufm::Context;
using eufm::Expr;
using eufm::Sort;

TEST(Netlist, TopologicalDisciplineEnforced) {
  Context cx;
  Netlist nl(cx);
  const SignalId a = nl.sInput("a", Sort::Formula);
  EXPECT_NO_THROW(nl.sNot(a));
  // Referencing a not-yet-created signal must fail.
  EXPECT_THROW(nl.sAnd(a, 1000), InternalError);
}

TEST(Netlist, SortChecking) {
  Context cx;
  Netlist nl(cx);
  const SignalId t = nl.sInput("t", Sort::Term);
  const SignalId f = nl.sInput("f", Sort::Formula);
  EXPECT_THROW(nl.sAnd(t, f), InternalError);
  EXPECT_THROW(nl.sEq(f, f), InternalError);
  EXPECT_THROW(nl.sRead(t, f), InternalError);
  EXPECT_NO_THROW(nl.sEq(t, t));
}

TEST(Netlist, LatchDrivenTwiceRejected) {
  Context cx;
  Netlist nl(cx);
  const SignalId l = nl.sLatchFree("L", Sort::Term);
  nl.setNext(l, l);
  EXPECT_THROW(nl.setNext(l, l), InternalError);
}

TEST(Netlist, IncompleteNetlistRejectedAtSimulation) {
  Context cx;
  Netlist nl(cx);
  nl.sLatchFree("L", Sort::Term);
  EXPECT_THROW(Simulator sim(nl), InternalError);
}

// The message of a failed check, or "" when `f` does not throw.
template <class F>
std::string checkMessage(F&& f) {
  try {
    f();
  } catch (const InternalError& e) {
    return e.what();
  }
  return "";
}

TEST(Netlist, DiagnosticsNameTheirSignal) {
  // Names live in a side table, not in the signals: the three netlist
  // diagnostics must still find them.
  Context cx;
  Netlist nl(cx);
  const SignalId go = nl.sInput("go", Sort::Formula);
  const SignalId twice = nl.sLatchFree("Twice", Sort::Formula);
  nl.setNext(twice, nl.sAnd(twice, go));
  EXPECT_NE(checkMessage([&] { nl.setNext(twice, twice); })
                .find("latch Twice driven twice"),
            std::string::npos);
  {
    Simulator sim(nl);
    EXPECT_NE(checkMessage([&] { sim.step(); }).find("input 'go' not driven"),
              std::string::npos);
  }
  nl.sLatchFree("Loose", Sort::Term);
  EXPECT_NE(checkMessage([&] { Simulator sim(nl); })
                .find("latch Loose has no next-state driver"),
            std::string::npos);
  EXPECT_EQ(nl.name(go), "go");
  EXPECT_EQ(nl.name(twice), "Twice");
  EXPECT_EQ(nl.name(nl.sNot(go)), "");
}

TEST(Netlist, FanInReadsBackInOperandOrder) {
  Context cx;
  Netlist nl(cx);
  const eufm::FuncId f = cx.declareFunc("f", 3);
  const SignalId c = nl.sInput("c", Sort::Formula);
  const SignalId x = nl.sLatchFree("X", Sort::Term);
  const SignalId y = nl.sFixed(cx.termVar("y"));
  const SignalId ite = nl.sIteT(c, x, y);
  const SignalId app = nl.sApply(f, {y, ite, x});
  EXPECT_TRUE(nl.args(x).empty());
  EXPECT_TRUE(std::ranges::equal(nl.args(ite), std::vector<SignalId>{c, x, y}));
  EXPECT_TRUE(
      std::ranges::equal(nl.args(app), std::vector<SignalId>{y, ite, x}));
  EXPECT_EQ(nl.signal(app).func, f);
}

TEST(Netlist, FreeLatchInitialStateIsNamedVariable) {
  Context cx;
  Netlist nl(cx);
  const SignalId l = nl.sLatchFree("PC", Sort::Term);
  EXPECT_EQ(nl.signal(l).fixed, cx.termVar("PC_0"));
}

TEST(Sim, LatchHoldsStateAcrossSteps) {
  Context cx;
  Netlist nl(cx);
  const SignalId l = nl.sLatchFree("X", Sort::Term);
  nl.setNext(l, l);
  Simulator sim(nl);
  const Expr init = sim.state(l);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.state(l), init);
}

TEST(Sim, CounterBuildsNestedApplications) {
  Context cx;
  Netlist nl(cx);
  const eufm::FuncId inc = cx.declareFunc("inc", 1);
  const SignalId l = nl.sLatchFree("C", Sort::Term);
  nl.setNext(l, nl.sApply(inc, {l}));
  Simulator sim(nl);
  sim.step();
  sim.step();
  sim.step();
  const Expr c0 = cx.termVar("C_0");
  Expr expect = c0;
  for (int i = 0; i < 3; ++i) expect = cx.apply(inc, {expect});
  EXPECT_EQ(sim.state(l), expect);
}

TEST(Sim, InputMustBeDriven) {
  Context cx;
  Netlist nl(cx);
  const SignalId in = nl.sInput("go", Sort::Formula);
  const SignalId l = nl.sLatchFree("X", Sort::Formula);
  nl.setNext(l, nl.sAnd(l, in));
  Simulator sim(nl);
  EXPECT_THROW(sim.step(), InternalError);
  sim.setInput(in, cx.mkTrue());
  EXPECT_NO_THROW(sim.step());
}

TEST(Sim, ConditionalUpdateBuildsUpdateChain) {
  Context cx;
  Netlist nl(cx);
  const SignalId mem = nl.sLatchFree("M", Sort::Term);
  const SignalId en = nl.sInput("en", Sort::Formula);
  const SignalId addr = nl.sFixed(cx.termVar("a"));
  const SignalId data = nl.sFixed(cx.termVar("d"));
  nl.setNext(mem, nl.sIteT(en, nl.sWrite(mem, addr, data), mem));
  Simulator sim(nl);
  const Expr e = cx.boolVar("e");
  sim.setInput(en, e);
  sim.step();
  const Expr m0 = cx.termVar("M_0");
  EXPECT_EQ(sim.state(mem),
            cx.mkIteT(e, cx.mkWrite(m0, cx.termVar("a"), cx.termVar("d")), m0));
}

TEST(Sim, ShortCircuitSkipsUntakenBranch) {
  Context cx;
  Netlist nl(cx);
  const eufm::FuncId f = cx.declareFunc("f", 1);
  const SignalId sel = nl.sInput("sel", Sort::Formula);
  const SignalId x = nl.sFixed(cx.termVar("x"));
  // An expensive chain that should never be evaluated when sel is false.
  SignalId chain = x;
  for (int i = 0; i < 50; ++i) chain = nl.sApply(f, {chain});
  const SignalId l = nl.sLatchFree("L", Sort::Term);
  nl.setNext(l, nl.sIteT(sel, chain, l));

  Simulator coi(nl, {.coneOfInfluence = true});
  coi.setInput(sel, cx.mkFalse());
  coi.step();
  Simulator naive(nl, {.coneOfInfluence = false});
  naive.setInput(sel, cx.mkFalse());
  naive.step();
  EXPECT_EQ(coi.state(l), naive.state(l));
  // The cone-of-influence simulator must evaluate far fewer signals.
  EXPECT_LT(coi.stats().signalEvals + 45, naive.stats().signalEvals);
}

TEST(Sim, AndShortCircuitOnConcreteFalse) {
  Context cx;
  Netlist nl(cx);
  const SignalId off = nl.sInput("off", Sort::Formula);
  const SignalId b = nl.sInput("b", Sort::Formula);
  const SignalId l = nl.sLatchFree("L", Sort::Formula);
  nl.setNext(l, nl.sAnd(off, b));
  Simulator sim(nl);
  sim.setInput(off, cx.mkFalse());
  // b intentionally left undriven: with the first conjunct concretely false
  // the simulator must not evaluate it.
  EXPECT_NO_THROW(sim.step());
  EXPECT_EQ(sim.state(l), cx.mkFalse());
}

TEST(Sim, SetStateOverridesInitial) {
  Context cx;
  Netlist nl(cx);
  const SignalId l = nl.sLatchFree("L", Sort::Term);
  nl.setNext(l, l);
  Simulator sim(nl);
  const Expr v = cx.termVar("override");
  sim.setState(l, v);
  sim.step();
  EXPECT_EQ(sim.state(l), v);
}

TEST(Sim, ValueEvaluatesCombinational) {
  Context cx;
  Netlist nl(cx);
  const SignalId a = nl.sInput("a", Sort::Formula);
  const SignalId b = nl.sInput("b", Sort::Formula);
  const SignalId o = nl.sOr(a, b);
  const SignalId l = nl.sLatchFree("L", Sort::Formula);
  nl.setNext(l, o);
  Simulator sim(nl);
  const Expr va = cx.boolVar("va"), vb = cx.boolVar("vb");
  sim.setInput(a, va);
  sim.setInput(b, vb);
  EXPECT_EQ(sim.value(o), cx.mkOr(va, vb));
}

TEST(Sim, CyclesAreCounted) {
  Context cx;
  Netlist nl(cx);
  const SignalId l = nl.sLatchFree("L", Sort::Term);
  nl.setNext(l, l);
  Simulator sim(nl);
  for (int i = 0; i < 5; ++i) sim.step();
  EXPECT_EQ(sim.stats().cycles, 5u);
}

// Property: cone-of-influence and naive evaluation produce identical state
// expressions on randomly generated netlists driven with a mix of concrete
// and symbolic inputs.
class CoiEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CoiEquivalence, RandomNetlistSameStates) {
  Rng rng(GetParam() * 31337 + 5);
  Context cx;
  Netlist nl(cx);
  const eufm::FuncId f = cx.declareFunc("f", 2);

  std::vector<SignalId> fpool, tpool, latches, inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(nl.sInput("in" + std::to_string(i), Sort::Formula));
    fpool.push_back(inputs.back());
  }
  fpool.push_back(nl.sTrue());
  fpool.push_back(nl.sFalse());
  for (int i = 0; i < 3; ++i) {
    latches.push_back(nl.sLatchFree("t" + std::to_string(i), Sort::Term));
    tpool.push_back(latches.back());
  }
  for (int i = 0; i < 40; ++i) {
    if (rng.coin()) {
      const SignalId a = fpool[rng.below(fpool.size())];
      const SignalId b = fpool[rng.below(fpool.size())];
      switch (rng.below(4)) {
        case 0: fpool.push_back(nl.sAnd(a, b)); break;
        case 1: fpool.push_back(nl.sOr(a, b)); break;
        case 2: fpool.push_back(nl.sNot(a)); break;
        default:
          fpool.push_back(nl.sEq(tpool[rng.below(tpool.size())],
                                 tpool[rng.below(tpool.size())]));
      }
    } else {
      const SignalId c = fpool[rng.below(fpool.size())];
      const SignalId x = tpool[rng.below(tpool.size())];
      const SignalId y = tpool[rng.below(tpool.size())];
      if (rng.coin())
        tpool.push_back(nl.sIteT(c, x, y));
      else
        tpool.push_back(nl.sApply(f, {x, y}));
    }
  }
  for (std::size_t i = 0; i < latches.size(); ++i)
    nl.setNext(latches[i], tpool[rng.below(tpool.size())]);

  Simulator coi(nl, {.coneOfInfluence = true});
  Simulator naive(nl, {.coneOfInfluence = false});
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      // Mix of concrete and symbolic drive.
      Expr v;
      switch (rng.below(3)) {
        case 0: v = cx.mkTrue(); break;
        case 1: v = cx.mkFalse(); break;
        default: v = cx.boolVar("sym" + std::to_string(cycle * 10 + i));
      }
      coi.setInput(inputs[i], v);
      naive.setInput(inputs[i], v);
    }
    coi.step();
    naive.step();
    for (SignalId l : latches) EXPECT_EQ(coi.state(l), naive.state(l));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoiEquivalence, ::testing::Range(0, 30));

}  // namespace
}  // namespace velev::tlsim
