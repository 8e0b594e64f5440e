// The paper's headline claim: rewriting rules give up to FIVE orders of
// magnitude speedup over Positive Equality alone (ROB size 8, width 8:
// 38,708 s -> 0.35 s on their 336 MHz machine).
//
// On modern hardware the same-shape comparison is run at the largest size
// where the PE-only flow still terminates in reasonable time (default:
// ROB size 4, width 4; REPRO_FULL attempts 8/8 with a large budget). The
// quantity reported is the end-to-end verification time of each strategy
// and their ratio.
//
// Part 2 measures the OTHER axis of speed — hardware parallelism: the
// default verification grid (rewriting strategy) is run once sequentially
// and once with the grid runner's cells on `--jobs N` threads (default:
// min(4, hardware threads); REPRO_JOBS overrides). Cell-by-cell
// verdicts must be identical; the wall-clock ratio is the parallel
// speedup. Each run shares one SAT solve memo across its cells: at jobs 1
// every cell after the first of its width replays SAT, while concurrent
// cells can both miss, so the two runs do different amounts of SAT work.
// Machine-readable results land in BENCH_speedup_headline.json.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/grid_runner.hpp"
#include "core/verifier.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

using namespace velev;

namespace {

double runStrategy(const models::OoOConfig& cfg, core::Strategy strategy,
                   std::int64_t budget, bool* completed,
                   core::VerifyReport* out = nullptr) {
  core::VerifyRequest req;
  req.robSize = cfg.robSize;
  req.issueWidth = cfg.issueWidth;
  req.strategy = strategy;
  req.satConflictBudget = budget;
  Timer t;
  const core::VerifyReport rep = core::verify(req);
  *completed = rep.verdict() == core::Verdict::Correct;
  if (out) *out = rep;
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  const unsigned jobs = bench::parseJobs(
      argc, argv, std::min(4u, ThreadPool::hardwareThreads()));
  bench::JsonReport json("speedup_headline", jobs);
  const models::OoOConfig cfg =
      bench::fullScale() ? models::OoOConfig{8, 8} : models::OoOConfig{4, 4};
  const std::int64_t budget = bench::fullScale() ? 50000000 : 3000000;

  std::printf(
      "Headline experiment (paper Sect. 7.2): rewriting rules vs Positive "
      "Equality alone,\nROB size %u, issue/retire width %u\n\n",
      cfg.robSize, cfg.issueWidth);

  bool rwOk = false, peOk = false;
  core::VerifyReport rwRep;
  const double rwTime = runStrategy(
      cfg, core::Strategy::RewritingPlusPositiveEquality, -1, &rwOk, &rwRep);
  std::printf(
      "rewriting + Positive Equality : %8.3f s  (%s; sim %.3f, rewrite "
      "%.3f, translate %.3f, SAT %.3f)\n",
      rwTime, rwOk ? "correct" : "PROBLEM", rwRep.simSeconds(),
      rwRep.rewriteSeconds(), rwRep.translateSeconds(), rwRep.satSeconds());
  bench::writeStandardBench(json, cfg, "headline-rewrite", rwRep, rwTime);

  core::VerifyReport peRep;
  const double peTime = runStrategy(cfg, core::Strategy::PositiveEqualityOnly,
                                    budget, &peOk, &peRep);
  bench::writeStandardBench(json, cfg, "headline-pe-only", peRep, peTime);
  if (peOk) {
    std::printf("Positive Equality only        : %8.3f s  (correct)\n",
                peTime);
    std::printf("\nspeedup from rewriting rules  : %10.0fx  (~%.1f orders "
                "of magnitude)\n",
                peTime / rwTime, std::log10(peTime / rwTime));
  } else {
    std::printf(
        "Positive Equality only        : >%7.3f s  (conflict budget %lld "
        "exhausted)\n",
        peTime, static_cast<long long>(budget));
    std::printf(
        "\nspeedup from rewriting rules  : >%9.0fx  (>%.1f orders of "
        "magnitude; lower bound)\n",
        peTime / rwTime, std::log10(peTime / rwTime));
  }
  json.note("rewrite_vs_pe_speedup", peTime / rwTime);
  std::printf(
      "\n(paper, 336 MHz Sun4: 38,708 s -> 0.35 s at size 8 / width 8 — "
      "5 orders of magnitude)\n");

  // ---- part 2: parallel grid runner scaling -------------------------------
  std::vector<unsigned> sizes = {16, 32, 64, 128};
  std::vector<unsigned> widths = {1, 2, 4};
  if (bench::fullScale()) sizes.push_back(250);
  core::VerifyRequest gridBase;
  gridBase.strategy = core::Strategy::RewritingPlusPositiveEquality;
  const std::vector<core::VerifyRequest> cells =
      core::makeGridRequests(sizes, widths, gridBase);

  core::GridRunOptions gopts;
  gopts.jobs = 1;
  Timer tSeq;
  const auto seq = core::runGrid(cells, gopts);
  const double seqSec = tSeq.seconds();
  for (const auto& r : seq) json.add(r, "grid-jobs1");

  gopts.jobs = jobs;
  Timer tPar;
  const auto par = core::runGrid(cells, gopts);
  const double parSec = tPar.seconds();
  for (const auto& r : par) json.add(r, "grid-jobsN");

  bool verdictsMatch = true;
  for (std::size_t i = 0; i < cells.size(); ++i)
    verdictsMatch &= seq[i].response.verdict == par[i].response.verdict;

  std::printf(
      "\nParallel grid runner (%zu cells, rewriting strategy, sizes up to "
      "%u):\n  sequential        : %8.3f s\n  %2u jobs           : %8.3f s\n"
      "  parallel speedup  : %8.2fx on %u hardware threads\n"
      "  verdicts identical: %s\n",
      cells.size(), sizes.back(), seqSec, jobs, parSec, seqSec / parSec,
      ThreadPool::hardwareThreads(), verdictsMatch ? "yes" : "NO!");
  json.note("grid_cells", static_cast<double>(cells.size()));
  json.note("grid_sequential_seconds", seqSec);
  json.note("grid_parallel_seconds", parSec);
  json.note("grid_parallel_speedup", seqSec / parSec);
  json.note("verdicts_identical", verdictsMatch ? 1 : 0);
  json.write();
  return verdictsMatch ? 0 : 1;
}
