#include "chain.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bdd/check.hpp"
#include "core/diagram.hpp"
#include "core/request.hpp"
#include "evc/translate.hpp"
#include "models/ooo.hpp"
#include "models/spec.hpp"
#include "rewrite/engine.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using namespace velev;
using core::Engine;
using core::Verdict;

double SpanLog::sinceOrigin(Clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

int SpanLog::begin(std::string name, int parent, std::uint64_t input) {
  spans_.push_back(
      {std::move(name), sinceOrigin(Clock::now()), 0, parent, input});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int span) { spans_[span].end = sinceOrigin(Clock::now()); }

int SpanLog::add(std::string name, Clock::time_point start,
                 Clock::time_point end, int parent, std::uint64_t input) {
  spans_.push_back({std::move(name), sinceOrigin(start), sinceOrigin(end),
                    parent, input});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_us\": %.1f, \"end_us\": %.1f, "
                 "\"parent\": %d, \"input\": %llu}%s\n",
                 s.name.c_str(), s.start * 1e6, s.end * 1e6, s.parent,
                 static_cast<unsigned long long>(s.input),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

core::VerifyReport verifyInput(const Input& in) {
  if (in.jobs <= 1) return core::verify(in.req);
  core::VerifyOptions opts = in.req.options();
  opts.jobs = in.jobs;
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, in.req.config(), in.req.bug);
  auto spec = models::buildSpec(cx, isa);
  return core::verifyWith(cx, isa, *impl, *spec, opts);
}

namespace {

/// Run one layer call inside a span, adding its duration to `seconds`.
template <typename Call>
auto layer(SpanLog& log, int parent, std::uint64_t input, const char* name,
           double& seconds, Call&& call) {
  struct Close {
    SpanLog& log;
    int span;
    double& seconds;
    ~Close() {
      log.end(span);
      seconds += log.seconds(span);
    }
  } close{log, log.begin(name, parent, input), seconds};
  return call();
}

Verdict budgetVerdict(BudgetKind kind) {
  return kind == BudgetKind::Memory ? Verdict::MemOut : Verdict::Timeout;
}

bool conclusive(Verdict v) {
  return v == Verdict::Correct || v == Verdict::CounterexampleFound;
}

struct Models {
  models::Isa isa;
  std::unique_ptr<models::OoOProcessor> impl;
  std::unique_ptr<models::SpecProcessor> spec;
};

// The body of core::verifyWith, one public layer call at a time.
void chainBody(const Input& in, SpanLog& log, int root, ChainResult& out) {
  core::VerifyOptions opts = in.req.options();
  opts.jobs = in.jobs;
  core::VerifyReport& rep = out.report;
  LayerSeconds& t = out.seconds;
  const std::uint64_t id = in.id;
  rep.engine = opts.engine;

  BudgetGovernor gov(opts.budget);
  eufm::Context cx;
  const Models m = layer(log, root, id, "models.build", t.models, [&] {
    models::Isa isa = models::Isa::declare(cx);
    auto impl = models::buildOoO(cx, isa, in.req.config(), in.req.bug);
    auto spec = models::buildSpec(cx, isa);
    return Models{isa, std::move(impl), std::move(spec)};
  });
  cx.setBudget(&gov);
  std::unique_ptr<ThreadPool> pool;
  if (opts.jobs > 1) pool = std::make_unique<ThreadPool>(opts.jobs);

  const auto finish = [&](Verdict v) {
    rep.outcome.verdict = v;
    rep.outcome.peakArenaBytes =
        std::max(rep.outcome.peakArenaBytes, gov.peakArenaBytes());
    rep.cxStats = core::scanContext(cx);
    cx.setBudget(nullptr);
  };

  const core::Diagram d = layer(log, root, id, "tlsim.sim", t.sim, [&] {
    return core::buildDiagram(cx, *m.impl, *m.spec, opts.sim);
  });
  rep.simStats = d.implSimStats;

  eufm::Expr correctness = d.correctness;
  evc::TranslateOptions topts;
  topts.ufScheme = opts.ufScheme;
  topts.emitCnf = opts.engine != Engine::Bdd;
  topts.pool = pool.get();

  if (opts.strategy == core::Strategy::RewritingPlusPositiveEquality) {
    const rewrite::RewriteResult rw =
        layer(log, root, id, "rewrite", t.rewrite, [&] {
          return rewrite::rewriteRobUpdates(cx, m.isa, m.impl->init,
                                            m.impl->config, d.implRegFile,
                                            d.specRegFile, pool.get());
        });
    rep.rewriteStats = rw.stats;
    if (!rw.ok) {
      rep.outcome.failedSlice = rw.failedSlice;
      rep.outcome.reason = rw.message;
      return finish(Verdict::RewriteMismatch);
    }
    rep.updatesRemoved = rw.updatesRemoved;
    eufm::Expr c = cx.mkFalse();
    for (unsigned i = 0; i < d.specPc.size(); ++i)
      c = cx.mkOr(c, cx.mkAnd(cx.mkEq(d.implPc, d.specPc[i]),
                              cx.mkEq(rw.implRegFile, rw.specRegFile[i])));
    correctness = c;
    topts.conservativeMemory = true;
  }

  const evc::Translation tr =
      layer(log, root, id, "evc.translate", t.translate,
            [&] { return evc::translate(cx, correctness, topts); });
  rep.evcStats = tr.stats;

  const auto inprocess = [&] {
    return layer(log, root, id, "sat.inprocess", t.inprocess, [&] {
      return sat::inprocess(tr.cnf, opts.inprocess, nullptr, &gov);
    });
  };
  const auto cdcl = [&](const prop::Cnf& cnf) {
    return layer(log, root, id, "sat.cdcl", t.cdcl, [&] {
      return sat::solveCnf(cnf, nullptr, &rep.satStats,
                           opts.budget.satConflicts, nullptr, &gov);
    });
  };

  if (opts.skipSat) {
    if (opts.engine != Engine::Bdd && opts.inprocess.enabled) {
      rep.inprocessStats = inprocess().stats;
      rep.inprocessed = true;
    }
    return finish(Verdict::Inconclusive);
  }

  std::optional<Verdict> satSide, bddSide;
  if (opts.engine != Engine::Bdd) {
    sat::Result r = sat::Result::Unknown;
    if (opts.inprocess.enabled) {
      const sat::SimplifyResult sr = inprocess();
      rep.inprocessStats = sr.stats;
      rep.inprocessed = true;
      r = cdcl(sr.cnf);
      if (sr.provedUnsat) r = sat::Result::Unsat;
    } else {
      r = cdcl(tr.cnf);
    }
    rep.outcome.satResult = r;
    satSide = r == sat::Result::Unsat ? Verdict::Correct
              : r == sat::Result::Sat ? Verdict::CounterexampleFound
              : gov.exceeded()        ? budgetVerdict(gov.exceededKind())
                                      : Verdict::Inconclusive;
  }
  if (opts.engine != Engine::Sat) {
    BudgetGovernor sibling(opts.budget);
    bdd::CheckOptions copts;
    copts.governor = opts.engine == Engine::Both ? &sibling : &gov;
    const bdd::CheckResult cr = layer(log, root, id, "bdd.check", t.bdd, [&] {
      return bdd::checkValidity(*tr.pctx, tr.validityRoot,
                                tr.transitivityClauses(), copts);
    });
    rep.bddStats = cr.stats;
    rep.outcome.peakArenaBytes = std::max(rep.outcome.peakArenaBytes,
                                          copts.governor->peakArenaBytes());
    bddSide = cr.status == bdd::CheckStatus::Valid ? Verdict::Correct
              : cr.status == bdd::CheckStatus::Falsifiable
                  ? Verdict::CounterexampleFound
                  : budgetVerdict(cr.tripKind);
  }
  if (satSide && bddSide && conclusive(*satSide) && conclusive(*bddSide) &&
      *satSide != *bddSide)
    throw std::runtime_error("engine disagreement in the layer chain");
  const Verdict chosen = satSide && conclusive(*satSide)   ? *satSide
                         : bddSide && conclusive(*bddSide) ? *bddSide
                         : satSide                         ? *satSide
                                                           : *bddSide;
  finish(chosen);
}

}  // namespace

ChainResult runChain(const Input& in, SpanLog& log) {
  ChainResult out;
  const int root = log.begin("input", -1, in.id);
  try {
    chainBody(in, log, root, out);
  } catch (...) {
    log.end(root);
    throw;
  }
  log.end(root);
  out.wallSeconds = log.seconds(root);
  return out;
}

}  // namespace perfbench
