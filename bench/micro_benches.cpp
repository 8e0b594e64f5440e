// Micro-benchmarks (google-benchmark) for the performance-critical
// substrates: expression hash-consing, symbolic simulation stepping, the
// SAT solver's propagation-heavy workloads, the propositional encoder, the
// rewriting engine and the CNF inprocessing front end — supporting data for
// the design decisions in DESIGN.md.
#include <benchmark/benchmark.h>

#include "core/diagram.hpp"
#include "core/request.hpp"
#include "core/verifier.hpp"
#include "evc/translate.hpp"
#include "models/spec.hpp"
#include "rewrite/engine.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

using namespace velev;

namespace {

void BM_EufmHashCons(benchmark::State& state) {
  for (auto _ : state) {
    eufm::Context cx;
    const eufm::FuncId f = cx.declareFunc("f", 2);
    eufm::Expr acc = cx.termVar("x");
    for (int i = 0; i < 1000; ++i)
      acc = cx.apply(f, {acc, cx.termVar("y" + std::to_string(i % 10))});
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EufmHashCons);

void BM_EufmDedup(benchmark::State& state) {
  // Re-creating an identical expression must hit the hash-cons table.
  eufm::Context cx;
  const eufm::FuncId f = cx.declareFunc("f", 2);
  const eufm::Expr x = cx.termVar("x"), y = cx.termVar("y");
  for (auto _ : state) {
    eufm::Expr acc = x;
    for (int i = 0; i < 1000; ++i) acc = cx.apply(f, {acc, y});
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EufmDedup);

void BM_SymbolicSimulation(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const unsigned k = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    eufm::Context cx;
    const models::Isa isa = models::Isa::declare(cx);
    auto impl = models::buildOoO(cx, isa, {n, k});
    auto spec = models::buildSpec(cx, isa);
    const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
    benchmark::DoNotOptimize(d.correctness);
  }
}
// N x k (model build included); 400 x 48 is the rob_scale benchmark cell.
BENCHMARK(BM_SymbolicSimulation)
    ->Args({8, 4})
    ->Args({32, 4})
    ->Args({64, 4})
    ->Args({400, 48})
    ->Unit(benchmark::kMillisecond);

void BM_BuildOoO(benchmark::State& state) {
  // The netlist build alone, without simulation.
  const unsigned n = static_cast<unsigned>(state.range(0));
  const unsigned k = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    eufm::Context cx;
    const models::Isa isa = models::Isa::declare(cx);
    auto impl = models::buildOoO(cx, isa, {n, k});
    benchmark::DoNotOptimize(impl->netlist.numSignals());
  }
}
BENCHMARK(BM_BuildOoO)->Args({400, 48})->Unit(benchmark::kMillisecond);

void BM_RewriteEngine(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const unsigned k = static_cast<unsigned>(state.range(1));
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  for (auto _ : state) {
    const rewrite::RewriteResult rw = rewrite::rewriteRobUpdates(
        cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
    benchmark::DoNotOptimize(rw.ok);
  }
}
// N x k; 400 x 48 is the rob_scale benchmark cell.
BENCHMARK(BM_RewriteEngine)
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({128, 4})
    ->Args({400, 48})
    ->Unit(benchmark::kMillisecond);

/// The correctness formula of the rewriting strategy: the Register File
/// equality after the rewriting rules removed the ROB updates.
eufm::Expr rewrittenCorrectness(eufm::Context& cx, const models::Isa& isa,
                                const models::OoOProcessor& impl,
                                const core::Diagram& d) {
  const rewrite::RewriteResult rw = rewrite::rewriteRobUpdates(
      cx, isa, impl.init, impl.config, d.implRegFile, d.specRegFile);
  eufm::Expr c = cx.mkFalse();
  for (unsigned m = 0; m < d.specPc.size(); ++m)
    c = cx.mkOr(c, cx.mkAnd(cx.mkEq(d.implPc, d.specPc[m]),
                            cx.mkEq(rw.implRegFile, rw.specRegFile[m])));
  return c;
}

void BM_Translation(benchmark::State& state) {
  const unsigned k = static_cast<unsigned>(state.range(0));
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {2 * k, k});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const eufm::Expr c = rewrittenCorrectness(cx, isa, *impl, d);
  for (auto _ : state) {
    evc::TranslateOptions opts;
    opts.conservativeMemory = true;
    const evc::Translation tr = evc::translate(cx, c, opts);
    benchmark::DoNotOptimize(tr.cnf.numVars);
  }
}
BENCHMARK(BM_Translation)->Arg(4)->Arg(8)->Arg(16);

/// The inprocessing front end alone, on correctness CNFs generated
/// in-process: an n x k cell, rewritten (Table 5: its CNF does not depend
/// on n) or Positive-Equality-only.
void BM_Inprocess(benchmark::State& state, unsigned n, unsigned k,
                  bool rewritten) {
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  evc::TranslateOptions opts;
  opts.conservativeMemory = rewritten;
  const prop::Cnf cnf =
      evc::translate(cx,
                     rewritten ? rewrittenCorrectness(cx, isa, *impl, d)
                               : d.correctness,
                     opts)
          .cnf;
  for (auto _ : state) {
    const sat::SimplifyResult sr = sat::inprocess(cnf, {});
    benchmark::DoNotOptimize(sr.stats.clausesAfter);
  }
  state.counters["clauses"] = static_cast<double>(cnf.numClauses());
}
BENCHMARK_CAPTURE(BM_Inprocess, rw48x48, 48, 48, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Inprocess, pe4x3, 4, 3, false)
    ->Unit(benchmark::kMillisecond);

void BM_SatRandom3Sat(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  Rng rng(n * 31 + 7);
  prop::Cnf cnf;
  cnf.numVars = n;
  const unsigned m = static_cast<unsigned>(n * 4.1);  // mostly satisfiable
  for (unsigned i = 0; i < m; ++i) {
    prop::Clause c;
    for (int j = 0; j < 3; ++j) {
      const int v = 1 + static_cast<int>(rng.below(n));
      c.push_back(rng.coin() ? v : -v);
    }
    cnf.addClause(c);
  }
  for (auto _ : state) {
    const sat::Result r = sat::solveCnf(cnf);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(100)->Arg(150);

void BM_SatPigeonhole(benchmark::State& state) {
  const unsigned holes = static_cast<unsigned>(state.range(0));
  prop::Cnf cnf;
  const unsigned pigeons = holes + 1;
  auto var = [&](unsigned p, unsigned h) {
    return static_cast<prop::CnfLit>(p * holes + h + 1);
  };
  cnf.numVars = pigeons * holes;
  for (unsigned p = 0; p < pigeons; ++p) {
    prop::Clause c;
    for (unsigned h = 0; h < holes; ++h) c.push_back(var(p, h));
    cnf.addClause(c);
  }
  for (unsigned h = 0; h < holes; ++h)
    for (unsigned p1 = 0; p1 < pigeons; ++p1)
      for (unsigned p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.addClause({-var(p1, h), -var(p2, h)});
  for (auto _ : state) {
    const sat::Result r = sat::solveCnf(cnf);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7);

void BM_EndToEndVerify(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  core::VerifyRequest req;
  req.robSize = n;
  req.issueWidth = 4;
  for (auto _ : state) {
    const core::VerifyReport rep = core::verify(req);
    benchmark::DoNotOptimize(rep.outcome.verdict);
  }
}
BENCHMARK(BM_EndToEndVerify)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
