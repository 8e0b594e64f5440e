// Tests for the CNF inprocessing pipeline (src/sat/simplify): every pass —
// individually and composed — must preserve satisfiability (cross-checked
// against the untouched solver, brute force, and the BDD engine), Sat
// models of the simplified CNF must reconstruct to models of the ORIGINAL
// CNF, frozen variables must keep conditional equisatisfiability, and the
// checked-in fuzz corpus must decode identically with the front end on and
// off. The simplifier's exact output on the benchmark's SAT cells is pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/diagram.hpp"
#include "core/request.hpp"
#include "core/verifier.hpp"
#include "evc/translate.hpp"
#include "fuzz/fuzz.hpp"
#include "models/ooo.hpp"
#include "models/spec.hpp"
#include "prop/cnf.hpp"
#include "rewrite/engine.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace velev::sat {
namespace {

using prop::Clause;
using prop::Cnf;
using prop::CnfLit;

Cnf randomCnf(Rng& rng, unsigned maxVars = 14, unsigned maxClauses = 60) {
  Cnf cnf;
  cnf.numVars = 4 + rng.below(maxVars - 3);
  const unsigned m = 4 + rng.below(maxClauses - 3);
  for (unsigned i = 0; i < m; ++i) {
    Clause c;
    const unsigned len = 1 + rng.below(4);
    for (unsigned j = 0; j < len; ++j) {
      const int v = 1 + static_cast<int>(rng.below(cnf.numVars));
      c.push_back(rng.coin() ? v : -v);
    }
    cnf.addClause(c);
  }
  // Sprinkle in binary equivalence cycles so the substitution pass and the
  // reconstruction stack actually fire (pure random 3-SAT rarely has SCCs).
  if (cnf.numVars >= 6 && rng.coin()) {
    const int a = 1 + static_cast<int>(rng.below(cnf.numVars - 2));
    cnf.addClause({-a, a + 1});
    cnf.addClause({-(a + 1), a + 2});
    cnf.addClause({-(a + 2), a});
  }
  return cnf;
}

bool modelSatisfies(const Cnf& cnf, const std::vector<bool>& model) {
  for (const Clause& c : cnf.clauses) {
    bool sat = false;
    for (CnfLit l : c)
      sat |= (l > 0) == model[static_cast<unsigned>(std::abs(l))];
    if (!sat) return false;
  }
  return true;
}

bool bruteForceSat(const Cnf& cnf) {
  for (std::uint64_t m = 0; m < (1ull << cnf.numVars); ++m) {
    std::vector<bool> model(cnf.numVars + 1, false);
    for (unsigned v = 1; v <= cnf.numVars; ++v)
      model[v] = ((m >> (v - 1)) & 1) != 0;
    if (modelSatisfies(cnf, model)) return true;
  }
  return false;
}

/// The correctness CNF of one verification cell, built by the layer calls
/// core::verifyWith makes (the CNF is the same for any worker count, so
/// no pool).
Cnf cellCnf(const core::VerifyRequest& req) {
  const core::VerifyOptions opts = req.options();
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, req.config(), req.bug);
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec, opts.sim);
  eufm::Expr correctness = d.correctness;
  evc::TranslateOptions topts;
  topts.ufScheme = opts.ufScheme;
  if (req.strategy == core::Strategy::RewritingPlusPositiveEquality) {
    const rewrite::RewriteResult rw = rewrite::rewriteRobUpdates(
        cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
    EXPECT_TRUE(rw.ok) << rw.message;
    correctness = cx.mkFalse();
    for (unsigned m = 0; m < d.specPc.size(); ++m)
      correctness = cx.mkOr(
          correctness, cx.mkAnd(cx.mkEq(d.implPc, d.specPc[m]),
                                cx.mkEq(rw.implRegFile, rw.specRegFile[m])));
    topts.conservativeMemory = true;
  }
  return evc::translate(cx, correctness, topts).cnf;
}

core::VerifyRequest cell(unsigned rob, unsigned width,
                         core::Strategy strategy =
                             core::Strategy::RewritingPlusPositiveEquality,
                         models::BugSpec bug = {}) {
  core::VerifyRequest req;
  req.robSize = rob;
  req.issueWidth = width;
  req.strategy = strategy;
  req.bug = bug;
  return req;
}

std::size_t countTautologies(const Cnf& cnf) {
  return static_cast<std::size_t>(
      std::count_if(cnf.clauses.begin(), cnf.clauses.end(), [](const Clause& c) {
        return std::any_of(c.begin(), c.end(), [&c](CnfLit l) {
          return std::find(c.begin(), c.end(), -l) != c.end();
        });
      }));
}

InprocessOptions singlePass(int which) {
  InprocessOptions o;
  o.substitute = which == 0;
  o.subsume = which == 1;
  o.vivify = which == 2;
  o.probe = which == 3;
  o.varElim = which == 4;
  return o;
}

// ---- equisatisfiability, pass by pass ---------------------------------------

class InprocessPass : public ::testing::TestWithParam<int> {};

TEST_P(InprocessPass, PreservesSatisfiabilityAgainstUntouchedSolver) {
  Rng rng(91u + static_cast<unsigned>(GetParam()) * 7919u);
  const InprocessOptions opts = singlePass(GetParam());
  for (int iter = 0; iter < 120; ++iter) {
    const Cnf cnf = randomCnf(rng);
    const SimplifyResult sr = inprocess(cnf, opts);
    const Result original = solveCnf(cnf);
    const Result simplified =
        sr.provedUnsat ? Result::Unsat : solveCnf(sr.cnf);
    EXPECT_EQ(simplified, original)
        << "pass " << GetParam() << " iter " << iter;
  }
}

TEST_P(InprocessPass, ReconstructedModelSatisfiesOriginal) {
  Rng rng(1009u + static_cast<unsigned>(GetParam()) * 104729u);
  const InprocessOptions opts = singlePass(GetParam());
  unsigned satCases = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Cnf cnf = randomCnf(rng);
    SimplifyResult sr = inprocess(cnf, opts);
    if (sr.provedUnsat) continue;
    std::vector<bool> model;
    if (solveCnf(sr.cnf, &model) != Result::Sat) continue;
    ++satCases;
    sr.recon.extend(model);
    ASSERT_GE(model.size(), cnf.numVars + 1u);
    EXPECT_TRUE(modelSatisfies(cnf, model))
        << "pass " << GetParam() << " iter " << iter;
  }
  EXPECT_GT(satCases, 20u);  // the mix must actually exercise the pass
}

INSTANTIATE_TEST_SUITE_P(Passes, InprocessPass, ::testing::Range(0, 5));

// ---- equisatisfiability, full pipeline --------------------------------------

TEST(Inprocess, FullPipelineAgreesWithBruteForce) {
  Rng rng(4242);
  for (int iter = 0; iter < 120; ++iter) {
    Cnf cnf = randomCnf(rng, /*maxVars=*/10, /*maxClauses=*/40);
    const bool expect = bruteForceSat(cnf);
    const SimplifyResult sr = inprocess(cnf, {});
    const bool simplified =
        !sr.provedUnsat && solveCnf(sr.cnf) == Result::Sat;
    EXPECT_EQ(simplified, expect) << "iter " << iter;

    // And through the one-call front end, with model reconstruction.
    std::vector<bool> model;
    const Result r = solveCnfInprocessed(cnf, {}, &model);
    EXPECT_EQ(r == Result::Sat, expect) << "iter " << iter;
    if (r == Result::Sat) EXPECT_TRUE(modelSatisfies(cnf, model));
  }
}

TEST(Inprocess, DisabledIsExactPassThrough) {
  Rng rng(7);
  InprocessOptions off;
  off.enabled = false;
  for (int iter = 0; iter < 20; ++iter) {
    const Cnf cnf = randomCnf(rng);
    const SimplifyResult sr = inprocess(cnf, off);
    ASSERT_EQ(sr.cnf.clauses.size(), cnf.clauses.size());
    for (std::size_t i = 0; i < cnf.clauses.size(); ++i)
      EXPECT_EQ(sr.cnf.clauses[i], cnf.clauses[i]);
    EXPECT_TRUE(sr.recon.empty());
  }
}

TEST(Inprocess, PipelineActuallySimplifies) {
  // The triangle-heavy random mix must show work in the stats — otherwise
  // the equisat tests above are vacuous.
  Rng rng(31337);
  InprocessStats total;
  for (int iter = 0; iter < 60; ++iter) {
    const SimplifyResult sr = inprocess(randomCnf(rng), {});
    total.clausesRemoved += sr.stats.clausesRemoved;
    total.varsEliminated += sr.stats.varsEliminated;
    total.varsSubstituted += sr.stats.varsSubstituted;
    total.reconstructionDepth += sr.stats.reconstructionDepth;
  }
  EXPECT_GT(total.clausesRemoved, 0u);
  EXPECT_GT(total.varsEliminated, 0u);
  EXPECT_GT(total.varsSubstituted, 0u);
  EXPECT_GT(total.reconstructionDepth, 0u);
}

// ---- tautologies: normalize() must catch x ∨ ¬x in any position ------------

TEST(Inprocess, EliminationDropsTautologicalResolvent) {
  // x1 and x3 are frozen, so only x2 can go. Its one resolvent, (¬x3 ∨ x1
  // ∨ x3), is a tautology: x2 is eliminated and no clause is left. The
  // signed sort puts -3 and 3 apart, which an adjacency check misses.
  Cnf cnf;
  cnf.numVars = 3;
  cnf.addClause({2, -3, 1});
  cnf.addClause({-2, 3});
  const std::uint32_t frozen[] = {1, 3};
  const SimplifyResult sr = inprocess(cnf, {}, nullptr, nullptr, frozen);
  ASSERT_FALSE(sr.provedUnsat);
  EXPECT_TRUE(sr.cnf.clauses.empty()) << sr.cnf.clauses.size() << " clauses";
  EXPECT_EQ(sr.stats.varsEliminated, 1u);
}

TEST(Inprocess, OutputContainsNoTautology) {
  Rng rng(2718);
  std::size_t tautologies = 0, clauses = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const SimplifyResult sr = inprocess(randomCnf(rng), {});
    tautologies += countTautologies(sr.cnf);
    clauses += sr.cnf.clauses.size();
  }
  EXPECT_GT(clauses, 0u);
  EXPECT_EQ(tautologies, 0u) << "random mix";

  const SimplifyResult sr = inprocess(cellCnf(cell(48, 48)), {});
  EXPECT_GT(sr.cnf.clauses.size(), 0u);
  EXPECT_EQ(countTautologies(sr.cnf), 0u) << "48x48 pipeline CNF";
}

// ---- frozen variables: conditional equisatisfiability -----------------------

TEST(Inprocess, FrozenVariablesKeepConditionalEquisat) {
  Rng rng(5150);
  for (int iter = 0; iter < 60; ++iter) {
    const Cnf cnf = randomCnf(rng, /*maxVars=*/10, /*maxClauses=*/40);
    // Freeze two variables and compare original vs simplified under every
    // assignment of the frozen pair, forced in as unit clauses.
    const std::uint32_t f1 = 1 + rng.below(cnf.numVars);
    std::uint32_t f2 = 1 + rng.below(cnf.numVars);
    if (f2 == f1) f2 = (f1 % cnf.numVars) + 1;
    const std::uint32_t frozen[] = {f1, f2};
    const SimplifyResult sr = inprocess(cnf, {}, nullptr, nullptr, frozen);
    for (int bits = 0; bits < 4; ++bits) {
      Cnf a = cnf;
      Cnf b = sr.cnf;
      const CnfLit u1 = (bits & 1) != 0 ? static_cast<CnfLit>(f1)
                                        : -static_cast<CnfLit>(f1);
      const CnfLit u2 = (bits & 2) != 0 ? static_cast<CnfLit>(f2)
                                        : -static_cast<CnfLit>(f2);
      a.addClause({u1});
      a.addClause({u2});
      b.addClause({u1});
      b.addClause({u2});
      const Result ra = solveCnf(a);
      const Result rb = sr.provedUnsat ? Result::Unsat : solveCnf(b);
      EXPECT_EQ(ra, rb) << "iter " << iter << " bits " << bits;
    }
  }
}

// ---- reconstruction stack: crafted chains -----------------------------------

TEST(Inprocess, ReconstructionResolvesChainedSubstitutionAndElimination) {
  // x1 ≡ x2 ≡ x3 (cycle), x4 functionally defined from x1 (AND gate),
  // x5 free with one positive occurrence — substitution collapses the
  // cycle, elimination resolves x4/x5 away, and the reconstructed model
  // must still satisfy every original clause.
  Cnf cnf;
  cnf.numVars = 6;
  cnf.addClause({-1, 2});
  cnf.addClause({-2, 3});
  cnf.addClause({-3, 1});
  cnf.addClause({-4, 1});  // x4 -> x1
  cnf.addClause({-4, 6});  // x4 -> x6
  cnf.addClause({4, -1, -6});
  cnf.addClause({5, 1});
  cnf.addClause({6, 2});
  SimplifyResult sr = inprocess(cnf, {});
  ASSERT_FALSE(sr.provedUnsat);
  EXPECT_GT(sr.stats.varsSubstituted + sr.stats.varsEliminated, 0u);
  std::vector<bool> model;
  ASSERT_EQ(solveCnf(sr.cnf, &model), Result::Sat);
  sr.recon.extend(model);
  ASSERT_GE(model.size(), 7u);
  EXPECT_TRUE(modelSatisfies(cnf, model));
  // The collapsed cycle really is enforced in the reconstruction.
  EXPECT_EQ(model[1], model[2]);
  EXPECT_EQ(model[2], model[3]);
}

// ---- BDD engine cross-check (within its envelope) ---------------------------

TEST(Inprocess, BddEngineAgreesWithInprocessedSatOnPipelineCell) {
  // Engine::Both runs CNF+CDCL (behind the inprocessing front end) and the
  // BDD engine under sibling budgets and raises a hard error on any
  // conclusive disagreement — a Correct verdict therefore certifies
  // cross-engine agreement with inprocessing in the loop.
  core::VerifyRequest req;
  req.robSize = 3;
  req.issueWidth = 2;
  req.engine = core::Engine::Both;
  ASSERT_TRUE(req.inprocess);
  const core::VerifyReport rep = core::verify(req);
  EXPECT_EQ(rep.verdict(), core::Verdict::Correct);
  EXPECT_TRUE(rep.inprocessed);
  EXPECT_GT(rep.inprocessStats.clausesBefore, 0u);
}

// ---- per-pass work counters ---------------------------------------------------

TEST(Inprocess, WorkCountersAreCollectorOnly) {
  // Ticks and cap hits describe work, not output: they reach an attached
  // collector but stay out of the reportCounters() contract.
  const core::VerifyRequest req = cell(8, 8);
  trace::Collector c;
  core::VerifyReport rep;
  {
    trace::Use use(&c);
    rep = core::verify(req);
  }
  ASSERT_EQ(rep.verdict(), core::Verdict::Correct);
  ASSERT_TRUE(rep.inprocessed);
  const auto counters = c.counters();
  for (const char* pass : {"substitute", "subsume", "vivify", "probe", "elim"})
    EXPECT_EQ(counters.count(std::string("sat.inprocess.") + pass + ".ticks"),
              1u)
        << pass;
  EXPECT_GT(c.counter("sat.inprocess.subsume.ticks"), 0u);
  EXPECT_EQ(counters.count("sat.inprocess.vivify.capped"), 1u);
  EXPECT_EQ(counters.count("sat.inprocess.probe.capped"), 1u);
  for (const auto& [name, value] : core::reportCounters(rep)) {
    EXPECT_EQ(name.find(".ticks"), std::string::npos) << name;
    EXPECT_EQ(name.find(".capped"), std::string::npos) << name;
  }

  // A tick cap of 1 stops vivification and probing in every round.
  InprocessOptions tight;
  tight.vivifyTickLimit = 1;
  tight.probeTickLimit = 1;
  trace::Collector capped;
  InprocessStats st;
  {
    trace::Use use(&capped);
    st = inprocess(cellCnf(req), tight).stats;
  }
  EXPECT_EQ(capped.counter("sat.inprocess.vivify.capped"), st.rounds);
  EXPECT_EQ(capped.counter("sat.inprocess.probe.capped"), st.rounds);
}

// ---- pinned output on the benchmark's SAT cells -------------------------------
//
// Every InprocessStats field and an FNV-1a hash of the simplified clause
// sequence, on the CNFs of the SAT cells of the repository benchmark
// (perfbench/): the 48- and 32-wide rewritten cells (by Table 5 their CNF
// does not depend on the ROB size) and the Positive-Equality-only cells. A
// change that means to change what the simplifier outputs updates this
// table in the same commit; any other change must leave it as it is.

std::uint64_t fnv1a(const Cnf& cnf) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(x >> (8 * i));
      h *= 0x100000001b3ull;
    }
  };
  for (const Clause& c : cnf.clauses) {
    feed(static_cast<std::int64_t>(c.size()));
    for (const CnfLit l : c) feed(l);
  }
  return h;
}

using StatFields = std::array<std::uint64_t, 11>;

StatFields statFields(const InprocessStats& s) {
  return {s.rounds,          s.clausesBefore,       s.clausesAfter,
          s.clausesRemoved,  s.clausesStrengthened, s.litsRemoved,
          s.varsEliminated,  s.varsSubstituted,     s.failedLiterals,
          s.unitsDerived,    s.reconstructionDepth};
}

struct PinnedCell {
  const char* name;
  core::VerifyRequest req;
  // rounds, clausesBefore, clausesAfter, clausesRemoved,
  // clausesStrengthened, litsRemoved, varsEliminated, varsSubstituted,
  // failedLiterals, unitsDerived, reconstructionDepth
  StatFields stats;
  std::uint64_t hash;
};

constexpr core::Strategy kPe = core::Strategy::PositiveEqualityOnly;

const PinnedCell kPinnedCells[] = {
    {"rw48x48", cell(48, 48),
     {3, 25402, 9383, 42758, 7055, 7055, 7090, 3, 5, 149, 7093},
     0xa76d8b00abe273f7ull},
    {"rw32x32", cell(32, 32),
     {3, 11554, 4261, 19166, 3060, 3061, 3190, 4, 5, 108, 3194},
     0x145d996229eb07acull},
    {"pe4x3", cell(4, 3, kPe),
     {3, 33898, 15372, 68524, 9611, 9611, 8601, 1, 2, 9, 8602},
     0xbd1472dc25b3bccaull},
    {"pe5x2", cell(5, 2, kPe),
     {3, 28270, 13094, 57826, 7839, 7839, 7221, 13, 2, 7, 7234},
     0x34a7f4bd00092ca3ull},
    {"pe4x2_stale2",
     cell(4, 2, kPe, {models::BugKind::ForwardingStaleResult, 2}),
     {3, 19612, 8992, 39761, 5392, 5408, 5003, 5, 1, 7, 5008},
     0x912b2873730ca76aull},
    {"pe3x2", cell(3, 2, kPe),
     {3, 12904, 5825, 25963, 3582, 3620, 3302, 8, 0, 7, 3310},
     0x03b633efa1aee4a7ull},
};

void PrintTo(const PinnedCell& pin, std::ostream* os) { *os << pin.name; }

class InprocessPin : public ::testing::TestWithParam<PinnedCell> {};

/// A table row's value part, as it is written in kPinnedCells.
std::string pinRow(const StatFields& stats, std::uint64_t hash) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < stats.size(); ++i)
    os << (i == 0 ? "" : ", ") << stats[i];
  os << "}, 0x" << std::hex << std::setw(16) << std::setfill('0') << hash
     << "ull";
  return os.str();
}

TEST_P(InprocessPin, StatsAndOutputHashMatch) {
  const PinnedCell& pin = GetParam();
  const SimplifyResult sr = inprocess(cellCnf(pin.req), {});
  EXPECT_EQ(pinRow(statFields(sr.stats), fnv1a(sr.cnf)),
            pinRow(pin.stats, pin.hash));
}

INSTANTIATE_TEST_SUITE_P(
    BenchCells, InprocessPin, ::testing::ValuesIn(kPinnedCells),
    [](const ::testing::TestParamInfo<PinnedCell>& info) {
      return std::string(info.param.name);
    });

// ---- corpus replay through the decoder --------------------------------------

TEST(Inprocess, CorpusSeedsDecodeIdenticallyWithAndWithoutFrontEnd) {
  // One representative entry per injected-bug kind (plus a bug-free one)
  // from the checked-in regression corpus, replayed through the full
  // oracle stack — the decode sanity checks (transitivity, falsifies-UF-
  // root) run on the RECONSTRUCTED model, so a clean replay with the
  // front end enabled is a reconstruction round-trip on real processor
  // encodings. Both settings must reproduce the recorded verdicts.
  const std::filesystem::path dir = VELEV_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::map<models::BugKind, fuzz::CorpusEntry> picks;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    if (de.path().extension() != ".json") continue;
    std::string err;
    for (const fuzz::CorpusEntry& e :
         fuzz::loadCorpusFile(de.path().string(), &err)) {
      auto it = picks.find(e.c.bug.kind);
      // Prefer entries with a decoded counterexample: those exercise the
      // model-reconstruction path, not just the UNSAT path.
      if (it == picks.end() || (e.decoded && !it->second.decoded))
        picks.insert_or_assign(e.c.bug.kind, e);
    }
  }
  for (const models::BugKind k : fuzz::generatableBugKinds())
    ASSERT_TRUE(picks.count(k)) << models::bugKindName(k);
  ASSERT_TRUE(picks.count(models::BugKind::None));

  fuzz::OracleOptions withFrontEnd;
  ASSERT_TRUE(withFrontEnd.inprocess.enabled);
  fuzz::OracleOptions without;
  without.inprocess.enabled = false;
  unsigned decodedEntries = 0;
  for (const auto& [kind, e] : picks) {
    decodedEntries += e.decoded ? 1u : 0u;
    const auto m1 = fuzz::replayEntry(e, withFrontEnd);
    EXPECT_FALSE(m1.has_value())
        << models::bugKindName(kind) << " (inprocess on): " << *m1;
    const auto m2 = fuzz::replayEntry(e, without);
    EXPECT_FALSE(m2.has_value())
        << models::bugKindName(kind) << " (inprocess off): " << *m2;
  }
  EXPECT_GT(decodedEntries, 0u);
}

}  // namespace
}  // namespace velev::sat
