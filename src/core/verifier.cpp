#include "core/verifier.hpp"

#include <algorithm>
#include <memory>

#include "bdd/check.hpp"
#include "rewrite/engine.hpp"
#include "support/mem.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace velev::core {

using eufm::Expr;

const char* strategyName(Strategy s) { return names::nameOf(s); }

std::optional<Strategy> strategyFromName(std::string_view name) {
  return names::fromName<Strategy>(name);
}

const char* engineName(Engine e) { return names::nameOf(e); }

std::optional<Engine> engineFromName(std::string_view name) {
  return names::fromName<Engine>(name);
}

const char* verdictName(Verdict v) { return names::nameOf(v); }

std::optional<Verdict> verdictFromName(std::string_view name) {
  return names::fromName<Verdict>(name);
}

int verdictExitCode(Verdict v) {
  switch (v) {
    case Verdict::Correct:
      return 0;
    case Verdict::CounterexampleFound:
    case Verdict::RewriteMismatch:
      return 1;
    case Verdict::Inconclusive:
    case Verdict::Skipped:
      return 3;
    case Verdict::Timeout:
    case Verdict::MemOut:
      return 4;
  }
  return 3;
}

namespace {

Verdict budgetVerdict(BudgetKind kind) {
  return kind == BudgetKind::Memory ? Verdict::MemOut : Verdict::Timeout;
}

/// Scoped attachment of the run's governor to the shared context: restores
/// whatever was attached before even when a stage throws.
class ScopedContextBudget {
 public:
  ScopedContextBudget(eufm::Context& cx, BudgetGovernor& gov)
      : cx_(cx), prior_(cx.budgetGovernor()) {
    cx_.setBudget(&gov);
  }
  ~ScopedContextBudget() { cx_.setBudget(prior_); }

 private:
  eufm::Context& cx_;
  BudgetGovernor* prior_;
};

}  // namespace

// One linear scan of the DAG — done once at the end of a run, so the
// interning hot path stays counter-free.
ContextStats scanContext(const eufm::Context& cx) {
  ContextStats s;
  s.nodes = cx.numNodes();
  s.arenaBytes = cx.memoryBytes();
  for (Expr e = 0; e < cx.numNodes(); ++e) {
    const eufm::Kind k = cx.kind(e);
    if (k == eufm::Kind::Read) ++s.memoryReads;
    else if (k == eufm::Kind::Write) ++s.memoryWrites;
  }
  return s;
}

std::vector<std::pair<std::string, std::uint64_t>> reportCounters(
    const VerifyReport& rep) {
  const evc::TranslationStats& ev = rep.evcStats;
  const rewrite::RewriteStats& rw = rep.rewriteStats;
  const sat::Stats& sa = rep.satStats;
  std::vector<std::pair<std::string, std::uint64_t>> counters = {
      {"tlsim.cycles", rep.simStats.cycles},
      {"tlsim.signal_evals", rep.simStats.signalEvals},
      {"eufm.nodes", rep.cxStats.nodes},
      {"eufm.memory_reads", rep.cxStats.memoryReads},
      {"eufm.memory_writes", rep.cxStats.memoryWrites},
      {"eufm.arena_bytes", rep.cxStats.arenaBytes},
      {"rewrite.updates_removed", rep.updatesRemoved},
      {"rewrite.rules_fired", rw.rulesFired()},
      {"rewrite.slices_checked", rw.slicesChecked},
      {"rewrite.context_checks", rw.contextChecks},
      {"rewrite.moves_applied", rw.movesApplied},
      {"rewrite.merges_applied", rw.mergesApplied},
      {"rewrite.forwarding_matches", rw.forwardingMatches},
      {"rewrite.slice_nodes_total", rw.sliceNodesTotal},
      {"rewrite.slice_nodes_max", rw.sliceNodesMax},
      {"evc.eij_vars", ev.eijVars},
      {"evc.other_primary_vars", ev.otherPrimaryVars},
      {"evc.p_equations", ev.pEquations},
      {"evc.g_equations", ev.gEquations},
      {"evc.g_vars", ev.gVars},
      {"evc.memory_equations", ev.memoryEquations},
      {"evc.fresh_term_vars", ev.freshTermVars},
      {"evc.fresh_bool_vars", ev.freshBoolVars},
      {"evc.transitivity_fill_in_edges", ev.transitivity.fillInEdges},
      {"evc.transitivity_triangles", ev.transitivity.triangles},
      {"evc.transitivity_clauses", ev.transitivity.clauses},
      {"cnf.vars", ev.cnfVars},
      {"cnf.clauses", ev.cnfClauses},
      {"sat.decisions", sa.decisions},
      {"sat.propagations", sa.propagations},
      {"sat.conflicts", sa.conflicts},
      {"sat.learnts", sa.learnts},
      {"sat.restarts", sa.restarts},
  };
  if (rep.inprocessed) {
    const sat::InprocessStats& ip = rep.inprocessStats;
    counters.emplace_back("sat.inprocess.rounds", ip.rounds);
    counters.emplace_back("sat.inprocess.clauses_before", ip.clausesBefore);
    counters.emplace_back("sat.inprocess.clauses_after", ip.clausesAfter);
    counters.emplace_back("sat.inprocess.clauses_removed", ip.clausesRemoved);
    counters.emplace_back("sat.inprocess.clauses_strengthened",
                          ip.clausesStrengthened);
    counters.emplace_back("sat.inprocess.lits_removed", ip.litsRemoved);
    counters.emplace_back("sat.inprocess.vars_eliminated", ip.varsEliminated);
    counters.emplace_back("sat.inprocess.vars_substituted",
                          ip.varsSubstituted);
    counters.emplace_back("sat.inprocess.failed_literals", ip.failedLiterals);
    counters.emplace_back("sat.inprocess.reconstruction_depth",
                          ip.reconstructionDepth);
  }
  if (rep.engine != Engine::Sat) {
    const bdd::BddStats& bs = rep.bddStats;
    counters.emplace_back("bdd.nodes_peak", bs.nodesPeak);
    counters.emplace_back("bdd.cache_hits", bs.cacheHits);
    counters.emplace_back("bdd.cache_lookups", bs.cacheLookups);
    counters.emplace_back("bdd.reorderings", bs.reorderings);
    counters.emplace_back("bdd.gc_runs", bs.gcRuns);
  }
  return counters;
}

VerifyReport verifyWith(eufm::Context& cx, const models::Isa& isa,
                        models::OoOProcessor& impl,
                        models::SpecProcessor& spec,
                        const VerifyOptions& opts) {
  VerifyReport rep;
  rep.engine = opts.engine;
  BudgetGovernor gov(opts.budget);
  ScopedContextBudget attach(cx, gov);

  // Intra-cell threads (jobs > 1) for the rewrite slice loop and the CNF
  // build. Results are identical without a pool, so nothing downstream needs
  // to know whether it existed.
  std::unique_ptr<ThreadPool> pool;
  if (opts.jobs > 1) pool = std::make_unique<ThreadPool>(opts.jobs);

  // `stage` points at the StageSeconds slot of the phase in flight, so a
  // budget trip attributes the partial time to the stage that overran.
  Timer timer;
  double* stage = &rep.outcome.seconds.sim;

  auto finish = [&](Verdict v) -> VerifyReport& {
    *stage += timer.seconds();
    rep.outcome.verdict = v;
    // max, not assign: Engine::Both folds its sibling governor's peak in
    // before finishing.
    rep.outcome.peakArenaBytes =
        std::max(rep.outcome.peakArenaBytes, gov.peakArenaBytes());
    rep.outcome.rssHighWaterKb = rssHighWaterKb();
    rep.cxStats = scanContext(cx);
    // Publish the canonical counter block on the attached collector (if
    // any), so the manifest and the stage tree show it without the caller
    // having to re-derive it from the report.
    if (trace::Collector* c = trace::active())
      for (const auto& [name, value] : reportCounters(rep))
        c->setCounter(name, value);
    return rep;
  };

  try {
    // 1. Symbolic simulation of the commutative diagram.
    Diagram d = [&] {
      TRACE_SPAN("verify.sim");
      return buildDiagram(cx, impl, spec, opts.sim);
    }();
    rep.simStats = d.implSimStats;
    rep.outcome.seconds.sim = timer.seconds();

    Expr correctness = d.correctness;
    evc::TranslateOptions topts;
    topts.ufScheme = opts.ufScheme;
    // The Bdd-only engine consumes the AIG directly — skip Tseitin and emit
    // just the transitivity side clauses, unless the caller wants the CNF.
    // Sat and Both need the full CNF.
    topts.emitCnf = opts.engine != Engine::Bdd || opts.cnfOut != nullptr;
    topts.pool = pool.get();

    // 2. Rewriting rules (optional): prove & remove the updates of the
    //    instructions initially in the ROB, then re-assemble the correctness
    //    formula from the simplified Register File expressions.
    if (opts.strategy == Strategy::RewritingPlusPositiveEquality) {
      timer.reset();
      stage = &rep.outcome.seconds.rewrite;
      rewrite::RewriteResult rw = [&] {
        TRACE_SPAN("verify.rewrite");
        return rewrite::rewriteRobUpdates(cx, isa, impl.init, impl.config,
                                          d.implRegFile, d.specRegFile,
                                          pool.get());
      }();
      rep.rewriteStats = rw.stats;
      rep.outcome.seconds.rewrite = timer.seconds();
      if (!rw.ok) {
        rep.outcome.failedSlice = rw.failedSlice;
        rep.outcome.reason = rw.message;
        timer.reset();
        return finish(Verdict::RewriteMismatch);
      }
      rep.updatesRemoved = rw.updatesRemoved;
      Expr c = cx.mkFalse();
      for (unsigned m = 0; m < d.specPc.size(); ++m) {
        const Expr eqPc = cx.mkEq(d.implPc, d.specPc[m]);
        const Expr eqRf = cx.mkEq(rw.implRegFile, rw.specRegFile[m]);
        c = cx.mkOr(c, cx.mkAnd(eqPc, eqRf));
      }
      correctness = c;
      topts.conservativeMemory = true;
    }

    // 3. EUFM -> propositional -> CNF via Positive Equality.
    timer.reset();
    stage = &rep.outcome.seconds.translate;
    evc::Translation tr = [&] {
      TRACE_SPAN("verify.translate");
      return evc::translate(cx, correctness, topts);
    }();
    rep.evcStats = tr.stats;
    rep.outcome.seconds.translate = timer.seconds();
    if (opts.cnfOut != nullptr) *opts.cnfOut = tr.cnf;

    // 4. Decision engine(s): the design is correct iff the negated formula
    //    is unsatisfiable — by CNF + CDCL, by ROBDD reduction to the false
    //    terminal, or by both with a cross-check.
    if (opts.skipSat) {
      // Timing benches stop before CDCL, but the inprocessing pipeline
      // still runs (attributed to the SAT stage) so the before/after CNF
      // sizes land in the report — Table 4's encoding-size comparison.
      if (opts.engine != Engine::Bdd && opts.inprocess.enabled) {
        timer.reset();
        stage = &rep.outcome.seconds.sat;
        {
          TRACE_SPAN("verify.sat");
          rep.inprocessStats =
              sat::inprocess(tr.cnf, opts.inprocess, nullptr, &gov).stats;
        }
        rep.inprocessed = true;
        rep.outcome.seconds.sat = timer.seconds();
      }
      timer.reset();
      return finish(Verdict::Inconclusive);
    }

    struct EngineVerdict {
      Verdict verdict = Verdict::Inconclusive;
      std::string reason;
      bool conclusive() const {
        return verdict == Verdict::Correct ||
               verdict == Verdict::CounterexampleFound;
      }
    };
    std::optional<EngineVerdict> satSide, bddSide;

    if (opts.engine != Engine::Bdd) {
      timer.reset();
      stage = &rep.outcome.seconds.sat;
      {
        TRACE_SPAN("verify.sat");
        // An identical earlier solve replays from the memo (sat/memo.hpp),
        // stats and all; only untripped runs store. A memory budget turns
        // the memo off: a replay skips the SAT stage's arena charge, and
        // the key has no memory term. So does a proof: a replay logs none.
        sat::SolveMemo* memo =
            opts.budget.memoryBytes == 0 && opts.proof == nullptr
                ? opts.satMemo
                : nullptr;
        const std::uint64_t mkey =
            memo != nullptr ? sat::SolveMemo::key(tr.cnf, opts.inprocess,
                                                  opts.budget.satConflicts)
                            : 0;
        const std::optional<sat::SolveMemo::Entry> replay =
            memo != nullptr ? memo->find(mkey) : std::nullopt;
        if (replay.has_value()) {
          rep.outcome.satResult = replay->result;
          rep.satStats = replay->stats;
          rep.inprocessStats = replay->inprocessStats;
          rep.inprocessed = replay->inprocessed;
          trace::counterAdd("sat.memo.hits", 1);
        } else {
          rep.outcome.satResult = sat::solveCnfInprocessed(
              tr.cnf, opts.inprocess, nullptr, &rep.satStats,
              opts.budget.satConflicts, opts.proof, &gov,
              &rep.inprocessStats);
          rep.inprocessed = opts.inprocess.enabled;
          if (memo != nullptr && !gov.exceeded())
            memo->store(mkey, {rep.outcome.satResult, rep.satStats,
                               rep.inprocessStats, rep.inprocessed});
        }
      }
      rep.outcome.seconds.sat = timer.seconds();
      EngineVerdict ev;
      switch (rep.outcome.satResult) {
        case sat::Result::Unsat:
          ev.verdict = Verdict::Correct;
          break;
        case sat::Result::Sat:
          ev.verdict = Verdict::CounterexampleFound;
          break;
        case sat::Result::Unknown:
          // Either the governor stopped the solver (budget verdict) or the
          // SAT conflict budget ran out (the classic Inconclusive).
          if (gov.exceeded()) {
            ev.verdict = budgetVerdict(gov.exceededKind());
            ev.reason = gov.exceededReason();
          } else {
            ev.verdict = Verdict::Inconclusive;
            ev.reason = "SAT conflict budget exhausted";
          }
          break;
      }
      satSide = ev;
    }

    if (opts.engine != Engine::Sat) {
      timer.reset();
      stage = &rep.outcome.seconds.bdd;
      // Under Both the BDD engine runs on a sibling governor armed from the
      // same budget, so the SAT side's consumption (already charged to
      // `gov`) cannot pre-trip the BDD side; Bdd-only shares the run's
      // governor like any other stage.
      BudgetGovernor sibling(opts.budget);
      BudgetGovernor& bddGov = opts.engine == Engine::Both ? sibling : gov;
      bdd::CheckOptions copts;
      copts.governor = &bddGov;
      bdd::CheckResult cr;
      {
        TRACE_SPAN("verify.bdd");
        cr = bdd::checkValidity(*tr.pctx, tr.validityRoot,
                                tr.transitivityClauses(), copts);
      }
      rep.outcome.seconds.bdd = timer.seconds();
      rep.bddStats = cr.stats;
      rep.outcome.peakArenaBytes =
          std::max(rep.outcome.peakArenaBytes, bddGov.peakArenaBytes());
      EngineVerdict ev;
      switch (cr.status) {
        case bdd::CheckStatus::Valid:
          ev.verdict = Verdict::Correct;
          break;
        case bdd::CheckStatus::Falsifiable:
          ev.verdict = Verdict::CounterexampleFound;
          break;
        case bdd::CheckStatus::Unknown:
          ev.verdict = budgetVerdict(cr.tripKind);
          ev.reason = cr.reason;
          break;
      }
      bddSide = ev;
    }
    timer.reset();

    if (satSide && bddSide && satSide->conclusive() &&
        bddSide->conclusive() && satSide->verdict != bddSide->verdict) {
      // A sound disagreement between two independent decision procedures
      // on the same formula is a library bug, never a verdict.
      throw InternalError(
          std::string("engine disagreement: SAT says ") +
          verdictName(satSide->verdict) + " but BDD says " +
          verdictName(bddSide->verdict));
    }

    // Prefer a conclusive answer (they agree when both are conclusive);
    // otherwise fall back to whichever engine ran, SAT side first.
    const EngineVerdict& chosen =
        satSide && satSide->conclusive()   ? *satSide
        : bddSide && bddSide->conclusive() ? *bddSide
        : satSide                          ? *satSide
                                           : *bddSide;
    rep.outcome.reason = chosen.reason;
    return finish(chosen.verdict);
  } catch (const BudgetExceeded& e) {
    rep.outcome.reason = e.what();
    return finish(budgetVerdict(e.kind()));
  }
}

}  // namespace velev::core
