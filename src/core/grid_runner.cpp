#include "core/grid_runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>

#include "core/result_store.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace velev::core {

namespace {

GridCell gridCell(const VerifyRequest& req) {
  return GridCell{req.robSize, req.issueWidth, req.bug};
}

/// File stem shared by the two per-cell output files.
std::string cellFileStem(const GridCell& cell, std::size_t index) {
  return "cell_" + std::to_string(index) + "_" +
         std::to_string(cell.robSize) + "x" +
         std::to_string(cell.issueWidth);
}

/// Write the two per-cell trace artifacts. Each worker writes only its own
/// cell's files (distinct names), so no cross-thread coordination needed.
void writeCellTrace(const std::string& dir, std::size_t index,
                    const GridCellResult& res, const VerifyRequest& req,
                    const trace::Collector& collector) {
  const std::string stem = dir + "/" + cellFileStem(res.cell, index);
  if (std::ofstream os(stem + ".trace.json"); os)
    collector.writeChromeTrace(os);
  if (std::ofstream os(stem + ".manifest.json"); os)
    trace::writeManifest(os, cellManifestData(res, req, "velev_grid"),
                         &collector);
}

/// One attempt of a cell: the store's answer under the request's key when
/// it has one (`*restored` stays true), else a fresh verification, stored.
VerifyResponse attempt(const VerifyRequest& req, const GridRunOptions& opts,
                       sat::SolveMemo& memo, ResultStore* store,
                       bool* restored) {
  if (store != nullptr)
    if (const VerifyResponse* hit = store->find(req.cacheKeyHex())) {
      VerifyResponse resp = *hit;
      resp.id = req.id;
      return resp;
    }
  *restored = false;
  VerifyOptions vopts = req.options();
  vopts.satMemo = &memo;
  // Intra-cell parallelism: semantically invisible (identical verdicts
  // and counters), so layering it on here never perturbs a stored answer.
  if (opts.cellJobs > 1) vopts.jobs = opts.cellJobs;
  Timer t;
  // verify() builds a fresh context per call: the one-Context-per-cell rule.
  const VerifyReport rep = verify(req, vopts);
  VerifyResponse resp = VerifyResponse::fromReport(req, rep, t.seconds());
  if (store != nullptr) store->put(resp);
  return resp;
}

GridCellResult runCell(const VerifyRequest& req, const GridRunOptions& opts,
                       std::size_t index, sat::SolveMemo& memo,
                       ResultStore* store) {
  GridCellResult res;
  res.cell = gridCell(req);
  bool restored = true;
  // One Collector per cell, mirroring the one-Context-per-cell rule: the
  // attachment is thread-local, so concurrent cells never share a sink.
  trace::Collector collector;
  const bool traced = !opts.traceDir.empty();
  {
    trace::Use tracing(traced ? &collector : nullptr);
    res.response = attempt(req, opts, memo, store, &restored);
    if (opts.fallback == FallbackPolicy::RetryWithRewriting &&
        res.response.budgetExceeded() &&
        req.strategy == Strategy::PositiveEqualityOnly) {
      // The retry is its own request, so the store keeps the PE-only answer
      // and the retry's apart under their own keys.
      res.fellBack = true;
      res.firstVerdict = res.response.verdict;
      res.wallSeconds = res.response.wallSeconds;
      VerifyRequest retry = req;
      retry.strategy = Strategy::RewritingPlusPositiveEquality;
      res.response = attempt(retry, opts, memo, store, &restored);
    }
  }
  res.wallSeconds += res.response.wallSeconds;
  res.restored = restored;
  if (traced && !restored)
    writeCellTrace(opts.traceDir, index, res, req, collector);
  return res;
}

/// Config-block value over a possibly heterogeneous grid: the shared name
/// when every request agrees, "mixed" otherwise.
template <class Get>
std::string sharedOrMixed(std::span<const VerifyRequest> reqs, Get get) {
  if (reqs.empty()) return "none";
  const std::string first = get(reqs.front());
  for (const VerifyRequest& r : reqs.subspan(1))
    if (get(r) != first) return "mixed";
  return first;
}

/// The whole-grid roll-up: per-stage seconds and counters summed over the
/// cells, verdict "correct" only if every cell is.
void writeGridManifest(const std::string& dir, const GridRunOptions& opts,
                       std::span<const VerifyRequest> reqs,
                       std::span<const GridCellResult> results,
                       const trace::Collector* gridCollector = nullptr) {
  trace::ManifestData m;
  m.tool = "velev_grid";
  m.config.emplace_back("cells", std::to_string(results.size()));
  m.config.emplace_back("jobs", std::to_string(opts.jobs));
  if (opts.cellJobs > 1)
    m.config.emplace_back("cell_jobs", std::to_string(opts.cellJobs));
  if (!opts.cacheDir.empty()) m.config.emplace_back("cache_dir", opts.cacheDir);
  m.config.emplace_back("strategy", sharedOrMixed(reqs, [](const auto& r) {
                          return std::string(strategyName(r.strategy));
                        }));
  m.config.emplace_back("engine", sharedOrMixed(reqs, [](const auto& r) {
                          return std::string(engineName(r.engine));
                        }));
  m.config.emplace_back(
      "fallback", opts.fallback == FallbackPolicy::RetryWithRewriting
                      ? "retry-with-rewriting"
                      : "none");
  m.config.emplace_back("inprocess", sharedOrMixed(reqs, [](const auto& r) {
                          return std::string(r.inprocess ? "true" : "false");
                        }));
  if (!reqs.empty()) {
    // Budget block: the shared budget on homogeneous grids; the first
    // request's on mixed ones (the per-cell manifests carry the exact
    // values).
    const ResourceBudget b = reqs.front().budget();
    m.budgetWallSeconds = b.wallSeconds;
    m.budgetMemoryBytes = b.memoryBytes;
    m.budgetSatConflicts = b.satConflicts;
  }

  StageSeconds total;
  std::map<std::string, std::uint64_t> counters;
  if (!opts.cacheDir.empty()) {
    std::uint64_t restored = 0;
    for (const GridCellResult& r : results) restored += r.restored ? 1 : 0;
    counters["grid.restored"] = restored;
  }
  Verdict worst = Verdict::Correct;
  for (const GridCellResult& r : results) {
    const VerifyResponse& resp = r.response;
    total.sim += resp.seconds.sim;
    total.rewrite += resp.seconds.rewrite;
    total.translate += resp.seconds.translate;
    total.sat += resp.seconds.sat;
    total.bdd += resp.seconds.bdd;
    m.peakArenaBytes = std::max(m.peakArenaBytes, resp.peakArenaBytes);
    m.rssHighWaterKb = std::max(m.rssHighWaterKb, resp.rssHighWaterKb);
    for (const auto& [name, value] : resp.counters) counters[name] += value;
    if (resp.verdict != Verdict::Correct && worst == Verdict::Correct)
      worst = resp.verdict;
  }
  m.verdict = verdictName(worst);
  m.stageSeconds = {{"sim", total.sim},
                    {"rewrite", total.rewrite},
                    {"translate", total.translate},
                    {"sat", total.sat},
                    {"bdd", total.bdd}};
  m.counters.assign(counters.begin(), counters.end());
  if (std::ofstream os(dir + "/manifest.json"); os)
    trace::writeManifest(os, m, gridCollector);
}

}  // namespace

std::vector<GridCellResult> runGrid(std::span<const VerifyRequest> requests,
                                    const GridRunOptions& opts) {
  std::vector<GridCellResult> results(requests.size());
  const bool traced = !opts.traceDir.empty();
  if (traced) std::filesystem::create_directories(opts.traceDir);

  // Grid-level collector: the store opens on the calling thread, outside
  // any cell's collector, so its store.* span and counters get their own
  // sink, folded into the merged manifest below.
  trace::Collector gridCollector;
  std::optional<ResultStore> store;
  if (!opts.cacheDir.empty()) {
    trace::Use use(traced ? &gridCollector : nullptr);
    store.emplace(opts.cacheDir);
  }
  ResultStore* const storePtr = store.has_value() ? &*store : nullptr;

  // One solve memo for the whole call, shared by every cell (fallback
  // retries included) at any `jobs`: a Table 5 column replays one SAT solve
  // with counters identical to fresh ones. Concurrent cells may both miss.
  sat::SolveMemo memo;

  // One index per cell, on up to `jobs` threads.
  const ThreadPool pool(opts.jobs);
  parallelFor(&pool, requests.size(), [&](std::size_t i) {
    results[i] = runCell(requests[i], opts, i, memo, storePtr);
  });
  if (traced)
    writeGridManifest(opts.traceDir, opts, requests, results, &gridCollector);
  return results;
}

trace::ManifestData cellManifestData(const GridCellResult& res,
                                     const VerifyRequest& req,
                                     std::string_view tool) {
  trace::ManifestData m;
  m.tool = std::string(tool);
  m.config.emplace_back("rob_size", std::to_string(req.robSize));
  m.config.emplace_back("issue_width", std::to_string(req.issueWidth));
  m.config.emplace_back("strategy", strategyName(req.strategy));
  m.config.emplace_back("engine", engineName(req.engine));
  m.config.emplace_back("uf_scheme", evc::ufSchemeName(req.ufScheme));
  if (req.bug.kind != models::BugKind::None) {
    m.config.emplace_back(
        "bug_kind", std::to_string(static_cast<unsigned>(req.bug.kind)));
    m.config.emplace_back("bug_index", std::to_string(req.bug.index));
  }
  if (res.fellBack)
    m.config.emplace_back("first_verdict", verdictName(res.firstVerdict));
  const ResourceBudget b = req.budget();
  m.budgetWallSeconds = b.wallSeconds;
  m.budgetMemoryBytes = b.memoryBytes;
  m.budgetSatConflicts = b.satConflicts;
  const VerifyResponse& resp = res.response;
  m.verdict = verdictName(resp.verdict);
  m.reason = resp.reason;
  m.stageSeconds = {{"sim", resp.seconds.sim},
                    {"rewrite", resp.seconds.rewrite},
                    {"translate", resp.seconds.translate},
                    {"sat", resp.seconds.sat},
                    {"bdd", resp.seconds.bdd}};
  m.peakArenaBytes = resp.peakArenaBytes;
  m.rssHighWaterKb = resp.rssHighWaterKb;
  m.counters = resp.counters;
  return m;
}

std::vector<GridCell> makeGrid(std::span<const unsigned> sizes,
                               std::span<const unsigned> widths) {
  std::vector<GridCell> cells;
  cells.reserve(sizes.size() * widths.size());
  for (unsigned n : sizes)
    for (unsigned k : widths)
      if (k >= 1 && k <= n) cells.push_back(GridCell{n, k, {}});
  return cells;
}

std::vector<VerifyRequest> makeGridRequests(std::span<const unsigned> sizes,
                                            std::span<const unsigned> widths,
                                            const VerifyRequest& base) {
  std::vector<VerifyRequest> reqs;
  reqs.reserve(sizes.size() * widths.size());
  for (unsigned n : sizes)
    for (unsigned k : widths)
      if (k >= 1 && k <= n) {
        VerifyRequest r = base;
        r.robSize = n;
        r.issueWidth = k;
        reqs.push_back(r);
      }
  return reqs;
}

}  // namespace velev::core
