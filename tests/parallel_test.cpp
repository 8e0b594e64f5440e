// Determinism tests for the intra-cell parallel paths: the rewrite slice
// checker, the sharded Tseitin translation and the component-parallel
// transitivity chordalization must be observationally identical for ANY
// worker count — same results, same statistics, byte-identical CNF — and
// the ShadowContext overlay they run on must canonicalize exactly like the
// base Context. These are also the tests the TSan CI job runs against the
// parallel code (ctest -R Parallel|Shadow).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/diagram.hpp"
#include "core/verifier.hpp"
#include "eufm/shadow.hpp"
#include "evc/translate.hpp"
#include "evc/transitivity.hpp"
#include "models/spec.hpp"
#include "prop/cnf.hpp"
#include "rewrite/engine.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace velev {
namespace {

using eufm::Context;
using eufm::Expr;

// ---- rewrite slice checker ---------------------------------------------------

/// Build the n x k verification problem in a fresh Context and run the
/// rewrite engine with the given pool. Fresh identical contexts intern
/// identical node ids, so results are comparable ACROSS runs by Expr id.
rewrite::RewriteResult runRewrite(unsigned n, unsigned k, ThreadPool* pool,
                                  models::BugSpec bug = {}) {
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k}, bug);
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  return rewrite::rewriteRobUpdates(cx, isa, impl->init, impl->config,
                                    d.implRegFile, d.specRegFile, pool);
}

void expectSameResult(const rewrite::RewriteResult& a,
                      const rewrite::RewriteResult& b, const char* what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.failedSlice, b.failedSlice) << what;
  EXPECT_EQ(a.updatesRemoved, b.updatesRemoved) << what;
  EXPECT_EQ(a.implRegFile, b.implRegFile) << what;
  EXPECT_EQ(a.specRegFile, b.specRegFile) << what;
  EXPECT_EQ(a.equalStateVar, b.equalStateVar) << what;
  EXPECT_EQ(a.stats.slicesChecked, b.stats.slicesChecked) << what;
  EXPECT_EQ(a.stats.contextChecks, b.stats.contextChecks) << what;
  EXPECT_EQ(a.stats.movesApplied, b.stats.movesApplied) << what;
  EXPECT_EQ(a.stats.mergesApplied, b.stats.mergesApplied) << what;
  EXPECT_EQ(a.stats.forwardingMatches, b.stats.forwardingMatches) << what;
  EXPECT_EQ(a.stats.sliceNodesTotal, b.stats.sliceNodesTotal) << what;
  EXPECT_EQ(a.stats.sliceNodesMax, b.stats.sliceNodesMax) << what;
}

TEST(Parallel, RewriteIdenticalForAnyWorkerCount) {
  const auto sequential = runRewrite(12, 3, nullptr);
  ASSERT_TRUE(sequential.ok) << sequential.message;
  for (unsigned workers : {2u, 3u, 8u}) {
    ThreadPool pool(workers);
    const auto parallel = runRewrite(12, 3, &pool);
    expectSameResult(sequential, parallel,
                     ("workers=" + std::to_string(workers)).c_str());
  }
}

TEST(Parallel, RewriteReportsLowestFailingSlice) {
  // With workers racing through slices out of order, a mismatch must still
  // be attributed to the LOWEST failing slice, exactly like the
  // sequential engine (the paper pinpoints "the 72nd computation slice").
  const models::BugSpec bug{models::BugKind::ForwardingWrongOperand, 5};
  const auto sequential = runRewrite(8, 2, nullptr, bug);
  ASSERT_FALSE(sequential.ok);
  ASSERT_EQ(sequential.failedSlice, 5u);
  for (unsigned workers : {2u, 4u}) {
    ThreadPool pool(workers);
    const auto parallel = runRewrite(8, 2, &pool, bug);
    EXPECT_FALSE(parallel.ok);
    EXPECT_EQ(parallel.failedSlice, sequential.failedSlice)
        << "workers=" << workers;
    expectSameResult(sequential, parallel, "bug run");
  }
}

TEST(Parallel, RewriteWorkCounterIdenticalForAnyWorkerCount) {
  // rewrite.subst.visited is summed in slice order through the failing
  // slice, so neither the schedule nor slices checked past a failure can
  // move it.
  auto visited = [](unsigned n, unsigned k, ThreadPool* pool,
                    models::BugSpec bug) {
    trace::Collector collector;
    trace::Use tracing(&collector);
    runRewrite(n, k, pool, bug);
    return collector.counter("rewrite.subst.visited");
  };
  const models::BugSpec none{};
  const models::BugSpec bug{models::BugKind::ForwardingWrongOperand, 5};
  const std::uint64_t correct = visited(12, 3, nullptr, none);
  const std::uint64_t failing = visited(8, 2, nullptr, bug);
  EXPECT_GT(correct, 0u);
  EXPECT_GT(failing, 0u);
  for (unsigned workers : {2u, 4u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(visited(12, 3, &pool, none), correct) << "workers=" << workers;
    EXPECT_EQ(visited(8, 2, &pool, bug), failing) << "workers=" << workers;
  }
}

// ---- Tseitin translation -----------------------------------------------------

/// A deterministic AIG big enough to cross the sharding threshold
/// (kParallelThreshold = 4096 gates): layered XOR mixing over 64 inputs.
prop::PLit bigFormula(prop::PropCtx& cx) {
  std::vector<prop::PLit> layer;
  for (int i = 0; i < 64; ++i) layer.push_back(cx.mkVar());
  for (int round = 1; round <= 40; ++round)
    for (std::size_t i = 0; i < layer.size(); ++i)
      layer[i] = cx.mkXor(layer[i], layer[(i + round) % layer.size()]);
  return cx.mkAndN(layer);
}

TEST(Parallel, TseitinCnfIdenticalWithPool) {
  prop::PropCtx seqCx;
  const prop::Cnf sequential = prop::tseitin(seqCx, bigFormula(seqCx), true);
  // Big enough that the pool path actually shards.
  ASSERT_GT(sequential.clauses.size(), 3u * 4096u);
  for (unsigned workers : {2u, 5u}) {
    prop::PropCtx parCx;
    ThreadPool pool(workers);
    const prop::Cnf parallel =
        prop::tseitin(parCx, bigFormula(parCx), true, &pool);
    EXPECT_EQ(parallel.numVars, sequential.numVars) << "workers=" << workers;
    // Byte-identical: same clauses in the same order.
    EXPECT_EQ(parallel.clauses, sequential.clauses) << "workers=" << workers;
  }
}

// ---- transitivity chordalization ---------------------------------------------

TEST(Parallel, TransitivityIdenticalWithPool) {
  // Three independent comparison-graph components — a triangle, a 4-cycle
  // (needs one chord) and a 5-chain tail — eliminated one component per
  // worker. Clause list, fill-in variable numbering and stats must match
  // the sequential elimination exactly.
  Context cx;
  std::vector<Expr> t;
  for (int i = 0; i < 12; ++i)
    t.push_back(cx.termVar("t" + std::to_string(i)));
  const auto makeEdges = [&](prop::Cnf& cnf) {
    std::map<std::pair<Expr, Expr>, std::uint32_t> edges;
    const auto edge = [&](int i, int j) {
      edges[{t[i], t[j]}] = cnf.newVar();
    };
    edge(0, 1), edge(1, 2), edge(0, 2);              // triangle
    edge(3, 4), edge(4, 5), edge(5, 6), edge(3, 6);  // 4-cycle
    edge(7, 8), edge(8, 9), edge(9, 10), edge(10, 11), edge(7, 11);  // 5-cycle
    return edges;
  };

  prop::Cnf seqCnf;
  const auto seqEdges = makeEdges(seqCnf);
  const evc::TransitivityStats seqStats =
      evc::addTransitivityConstraints(seqEdges, seqCnf);
  EXPECT_GE(seqStats.fillInEdges, 3u);  // the 4- and 5-cycles need chords

  for (unsigned workers : {2u, 4u}) {
    prop::Cnf parCnf;
    const auto parEdges = makeEdges(parCnf);
    ThreadPool pool(workers);
    const evc::TransitivityStats parStats =
        evc::addTransitivityConstraints(parEdges, parCnf, nullptr, &pool);
    EXPECT_EQ(parCnf.numVars, seqCnf.numVars) << "workers=" << workers;
    EXPECT_EQ(parCnf.clauses, seqCnf.clauses) << "workers=" << workers;
    EXPECT_EQ(parStats.fillInEdges, seqStats.fillInEdges);
    EXPECT_EQ(parStats.triangles, seqStats.triangles);
    EXPECT_EQ(parStats.clauses, seqStats.clauses);
  }
}

// ---- whole pipeline ----------------------------------------------------------

core::VerifyReport runVerify(unsigned jobs) {
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {8, 2});
  auto spec = models::buildSpec(cx, isa);
  core::VerifyOptions opts;
  opts.jobs = jobs;
  return core::verifyWith(cx, isa, *impl, *spec, opts);
}

TEST(Parallel, VerifyJobsKeepPaperCountersIdentical) {
  // End to end: --jobs N must change wall time only. The verdict and the
  // full paper-aligned counter set (rewrite.*, evc.*, cnf.*, sat.*) are
  // the contract; reportCounters() flattens them all.
  const core::VerifyReport one = runVerify(1);
  ASSERT_EQ(one.outcome.verdict, core::Verdict::Correct);
  const core::VerifyReport four = runVerify(4);
  EXPECT_EQ(four.outcome.verdict, one.outcome.verdict);
  EXPECT_EQ(core::reportCounters(four), core::reportCounters(one));
}

// ---- ShadowContext -----------------------------------------------------------

TEST(Shadow, ResolvesToBaseNodesExactly) {
  // Structure the base already holds must come back with the BASE id;
  // genuinely new structure gets local ids starting at base.numNodes().
  Context cx;
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b");
  const Expr ab = cx.mkAnd(a, b);
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  const Expr rd = cx.mkRead(x, y);

  const eufm::ShadowContext sh0(cx);
  eufm::ShadowContext sh(cx);
  EXPECT_EQ(sh.mkAnd(a, b), ab);
  EXPECT_EQ(sh.mkRead(x, y), rd);
  EXPECT_EQ(sh.localNodes(), 0u);

  const Expr local = sh.mkAnd(ab, sh.mkNot(b));
  EXPECT_GE(local, static_cast<Expr>(cx.numNodes()));
  EXPECT_GT(sh.localNodes(), 0u);
  // Hash-consed locally too: same structure, same local id.
  EXPECT_EQ(sh.mkAnd(ab, sh.mkNot(b)), local);
  // Accessors are transparent across the base/local split.
  EXPECT_EQ(sh.kind(local), cx.kind(ab));
  EXPECT_EQ(sh.arg(local, 0), ab);
  (void)sh0;
}

TEST(Shadow, CanonicalizesLikeContext) {
  // The determinism argument for the parallel slice checker requires the
  // overlay's smart constructors to fold exactly like Context's — compare
  // a batch of constructions against a context that interns them directly.
  Context cx;
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b");
  const Expr x = cx.termVar("x"), y = cx.termVar("y"), z = cx.termVar("z");
  cx.mkAnd(a, b);  // freeze some shared structure into the base

  eufm::ShadowContext sh(cx);
  EXPECT_EQ(sh.mkNot(sh.mkNot(a)), a);
  EXPECT_EQ(sh.mkAnd(a, sh.mkFalse()), sh.mkFalse());
  EXPECT_EQ(sh.mkAnd(a, sh.mkTrue()), a);
  EXPECT_EQ(sh.mkOr(a, sh.mkTrue()), sh.mkTrue());
  EXPECT_EQ(sh.mkEq(x, x), sh.mkTrue());
  EXPECT_EQ(sh.mkIteF(sh.mkTrue(), a, b), a);
  EXPECT_EQ(sh.mkIteT(sh.mkFalse(), x, y), y);
  // read-over-write folding, if Context folds it, must match: compare the
  // two sides structurally by building the same term in both.
  const Expr w = sh.mkWrite(x, y, z);
  const Expr shRead = sh.mkRead(w, y);
  const Expr cxRead = cx.mkRead(cx.mkWrite(x, y, z), y);
  // Same fold decision: either both collapse to z (a base node) or both
  // keep the read structure (then ids differ across arenas but kinds match).
  if (cxRead == z) {
    EXPECT_EQ(shRead, z);
  } else {
    EXPECT_EQ(sh.kind(shRead), cx.kind(cxRead));
  }
}

TEST(Shadow, ScratchDoesNotTouchTheBase) {
  Context cx;
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b");
  const std::size_t baseNodes = cx.numNodes();
  {
    eufm::ShadowContext sh(cx);
    for (int i = 0; i < 100; ++i)
      sh.mkAnd(a, sh.mkNot(sh.mkAnd(b, sh.mkNot(a))));
    EXPECT_GT(sh.numNodes(), baseNodes);
    EXPECT_GT(sh.memoryBytes(), 0u);
  }
  // Discarding the shadow discarded every scratch node.
  EXPECT_EQ(cx.numNodes(), baseNodes);
}

}  // namespace
}  // namespace velev
