// Table 1 — CPU time for symbolically simulating the out-of-order
// implementation and the specification when generating the EUFM correctness
// formula, over a grid of ROB sizes × issue/retire widths.
//
// Also reports the cone-of-influence ablation (DESIGN.md decision #2): the
// paper notes that restricting evaluation to the active completion slice's
// cone was necessary to simulate large reorder buffers; rerun two
// configurations in naive full-evaluation mode to show the gap.
//
// Grid cells are independent; `--jobs N` (or REPRO_JOBS) runs them in one
// parallelFor on N threads — each cell builds its OWN eufm::Context (the
// one-context-per-cell ownership rule). Machine-readable results land in
// BENCH_table1_symsim.json.
#include <cstdio>

#include "bench_util.hpp"
#include "core/diagram.hpp"
#include "models/spec.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

using namespace velev;

namespace {

double simulateOnce(unsigned n, unsigned k, bool coi,
                    std::uint64_t* evals = nullptr) {
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k});
  auto spec = models::buildSpec(cx, isa);
  tlsim::SimOptions opts;
  opts.coneOfInfluence = coi;
  Timer t;
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec, opts);
  const double secs = t.seconds();
  if (evals)
    *evals = d.implSimStats.signalEvals + d.flushSimStats.signalEvals;
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  const unsigned jobs = bench::parseJobs(argc, argv);
  const auto sizes = bench::robSizes();
  const auto widths = bench::issueWidths();
  bench::JsonReport json("table1_symsim", jobs);

  // Simulate every valid (n, k) cell, then print in table order.
  struct Cell {
    unsigned n, k;
    double seconds = 0;
  };
  std::vector<Cell> cells;
  for (unsigned n : sizes)
    for (unsigned k : widths)
      if (k <= n) cells.push_back(Cell{n, k});
  const ThreadPool pool(jobs);
  parallelFor(&pool, cells.size(), [&](std::size_t i) {
    cells[i].seconds = simulateOnce(cells[i].n, cells[i].k, true);
  });

  bench::printHeader(
      "Table 1: symbolic simulation time [s] to generate the EUFM "
      "correctness formula\n(rows: ROB size, columns: issue/retire width; "
      "'-' = width exceeds ROB size)",
      "size\\width", widths);
  std::size_t idx = 0;
  for (unsigned n : sizes) {
    bench::printRowLabel(n);
    for (unsigned k : widths) {
      if (k > n) {
        bench::printDash();
        continue;
      }
      const double secs = cells[idx++].seconds;
      bench::printCell(secs);
      bench::JsonCell jc;
      jc.robSize = n;
      jc.issueWidth = k;
      jc.label = "symsim";
      jc.verdict = "simulated";
      jc.wallSeconds = secs;
      jc.memHighWaterKb = rssHighWaterKb();
      json.add(jc);
    }
    bench::endRow();
  }

  std::printf(
      "\nAblation: cone-of-influence (event-driven) vs naive full "
      "re-evaluation\n%10s | %12s | %12s | %10s\n",
      "config", "COI [s]", "naive [s]", "speedup");
  struct Cfg {
    unsigned n, k;
  };
  std::vector<Cfg> ablate = {{16, 2}, {32, 4}, {64, 4}};
  if (bench::fullScale()) ablate.push_back({128, 8});
  for (const Cfg c : ablate) {
    std::uint64_t evalsCoi = 0, evalsNaive = 0;
    const double tc = simulateOnce(c.n, c.k, true, &evalsCoi);
    const double tn = simulateOnce(c.n, c.k, false, &evalsNaive);
    std::printf("%4ux%-5u | %12.3f | %12.3f | %9.1fx   (signal evals: %llu vs %llu)\n",
                c.n, c.k, tc, tn, tn / (tc > 0 ? tc : 1e-9),
                static_cast<unsigned long long>(evalsCoi),
                static_cast<unsigned long long>(evalsNaive));
    bench::JsonCell jc;
    jc.robSize = c.n;
    jc.issueWidth = c.k;
    jc.label = "ablation-naive";
    jc.verdict = "simulated";
    jc.wallSeconds = tn;
    json.add(jc);
  }
  json.write();
  return 0;
}
