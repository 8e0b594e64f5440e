#include "sat/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <future>

#include "support/hash.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace velev::sat {

Options portfolioInstanceOptions(const PortfolioOptions& opts, unsigned i) {
  Options o = opts.base;
  if (i == 0) return o;  // deterministic baseline configuration
  o.seed = mix64(opts.baseSeed + i);
  o.randomInitPhase = (i % 2) == 1;
  o.randomDecisionFreq = 0.01 * static_cast<double>(1 + i % 4);
  o.lubyUnit = std::max(64, opts.base.lubyUnit >> (i % 3));
  return o;
}

Result solvePortfolio(const prop::Cnf& cnf, const PortfolioOptions& opts,
                      PortfolioReport* report) {
  const unsigned k = std::max(1u, opts.instances);
  Timer timer;

  // Shared inprocessing front end: simplify once, race everyone on the
  // result. Assumption variables are frozen so the simplified CNF stays
  // equisatisfiable under the assumptions.
  const prop::Cnf* problem = &cnf;
  SimplifyResult simplified;
  Proof inprocessProof;
  if (opts.inprocess.enabled) {
    std::vector<std::uint32_t> frozen;
    frozen.reserve(opts.assumptions.size());
    for (const prop::CnfLit a : opts.assumptions)
      frozen.push_back(static_cast<std::uint32_t>(a > 0 ? a : -a));
    simplified = inprocess(cnf, opts.inprocess,
                           opts.wantProof ? &inprocessProof : nullptr,
                           opts.budget, frozen);
    problem = &simplified.cnf;
    if (report) report->inprocessStats = simplified.stats;
    // When the pipeline refutes the formula outright, the simplified CNF
    // contains the empty clause and every instance below returns Unsat on
    // load — the race still runs so per-seed stats, the winner, and the
    // combined proof are reported uniformly on every path.
  }

  // Per-instance state: written only by the owning task, read after join.
  struct Slot {
    Result result = Result::Unknown;
    Stats stats;
    std::vector<bool> model;
    Proof proof;
    prop::Clause failed;
  };
  std::vector<Slot> slots(k);
  std::atomic<bool> cancel{false};
  std::atomic<int> winner{-1};

  // Pool workers have no trace collector attached; carry the caller's over
  // so per-instance spans land in the same (mutex-protected) collector.
  trace::Collector* collector = trace::active();
  auto runInstance = [&, collector, problem](unsigned i) {
    trace::Use tracing(collector);
    TRACE_SPAN("sat.instance");
    Slot& slot = slots[i];
    Solver solver(portfolioInstanceOptions(opts, i));
    if (opts.wantProof) solver.setProof(&slot.proof);
    solver.setCancel(&cancel);
    solver.setBudget(opts.budget);
    solver.ensureVars(problem->numVars);
    bool ok = true, aborted = false;
    std::size_t loaded = 0;
    for (const auto& c : problem->clauses) {
      if (solver.cancelled() ||
          ((++loaded & 0xfffu) == 0 && solver.pollBudget())) {
        aborted = true;
        break;
      }
      if (!solver.addClause(c)) {
        ok = false;
        break;
      }
    }
    const Result r =
        aborted ? Result::Unknown
        : ok    ? solver.solve(opts.assumptions, opts.conflictBudget)
                : Result::Unsat;
    slot.stats = solver.stats();
    if (r == Result::Sat) {
      slot.model.assign(problem->numVars + 1, false);
      for (std::uint32_t v = 1; v <= problem->numVars; ++v)
        slot.model[v] = solver.modelValue(v);
    }
    if (r == Result::Unsat) slot.failed = solver.failedAssumptions();
    slot.result = r;
    if (r != Result::Unknown) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, static_cast<int>(i)))
        cancel.store(true, std::memory_order_relaxed);
    }
  };

  if (k == 1) {
    runInstance(0);
  } else {
    ThreadPool pool(k);
    std::vector<std::future<void>> done;
    done.reserve(k);
    for (unsigned i = 0; i < k; ++i)
      done.push_back(pool.submit([&runInstance, i] { runInstance(i); }));
    for (auto& f : done) f.get();
  }

  const int w = winner.load();
  if (report) {
    report->result = w >= 0 ? slots[static_cast<unsigned>(w)].result
                            : Result::Unknown;
    report->winner = w;
    report->instanceStats.clear();
    report->instanceSeeds.clear();
    report->instanceStats.reserve(k);
    report->instanceSeeds.reserve(k);
    for (unsigned i = 0; i < k; ++i) {
      report->instanceStats.push_back(slots[i].stats);
      report->instanceSeeds.push_back(portfolioInstanceOptions(opts, i).seed);
    }
    if (w >= 0) {
      Slot& ws = slots[static_cast<unsigned>(w)];
      report->winnerSeed =
          portfolioInstanceOptions(opts, static_cast<unsigned>(w)).seed;
      report->winnerStats = ws.stats;
      report->model = std::move(ws.model);
      report->failedAssumptions = std::move(ws.failed);
      if (ws.result == Result::Sat && opts.inprocess.enabled)
        simplified.recon.extend(report->model);
      if (opts.wantProof && opts.inprocess.enabled) {
        // The combined proof (inprocessing derivations, then the winner's
        // learnt clauses) certifies against the ORIGINAL formula.
        report->proof = std::move(inprocessProof);
        for (auto& step : ws.proof.steps)
          report->proof.steps.push_back(std::move(step));
      } else {
        report->proof = std::move(ws.proof);
      }
    }
    report->seconds = timer.seconds();
  }
  return w >= 0 ? slots[static_cast<unsigned>(w)].result : Result::Unknown;
}

}  // namespace velev::sat
