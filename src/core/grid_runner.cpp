#include "core/grid_runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include "support/json.hpp"
#include "support/mem.hpp"
#include "support/timer.hpp"

namespace velev::core {

namespace {

/// One scheduled cell: the configuration plus its fully expanded options.
/// The public request-based runGrid() lowers every request to one of
/// these.
struct GridJob {
  GridCell cell;
  VerifyOptions vopts;
};

/// One cell end to end: fresh context + models, then verifyWith (which
/// arms the governor) — the one-Context-per-cell rule.
VerifyReport verifyCell(const models::OoOConfig& cfg,
                        const models::BugSpec& bug,
                        const VerifyOptions& opts) {
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, cfg, bug);
  auto spec = models::buildSpec(cx, isa);
  return verifyWith(cx, isa, *impl, *spec, opts);
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
                    const GridCellResult& res, const VerifyOptions& vopts,
                    const trace::Collector& collector) {
  const std::string stem = dir + "/" + cellFileStem(res.cell, index);
  if (std::ofstream os(stem + ".trace.json"); os)
    collector.writeChromeTrace(os);
  if (std::ofstream os(stem + ".manifest.json"); os)
    trace::writeManifest(os, cellManifestData(res, vopts, "velev_grid"),
                         &collector);
}

GridCellResult skippedCell(const GridCell& cell) {
  GridCellResult res;
  res.cell = cell;
  res.skipped = true;
  res.report.outcome.verdict = Verdict::Skipped;
  res.report.outcome.reason = "cancelled before the cell started";
  return res;
}

// ---- checkpoint / resume ----------------------------------------------------

/// Inverse of reportCounters(): rebuild the typed stat sub-structs of a
/// VerifyReport from the canonical counter block, so a restored cell's
/// report answers the same questions a fresh one does. The two functions
/// round-trip exactly: derived counters (rewrite.rules_fired) are
/// recomputed from their restored terms, the sat.inprocess.* block's
/// presence restores `inprocessed`, and the bdd.* block is keyed off the
/// separately recorded engine.
void applyCounters(VerifyReport& rep,
                   const std::map<std::string, std::uint64_t>& c) {
  auto u64 = [&](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };
  auto u32 = [&](const char* k) { return static_cast<unsigned>(u64(k)); };
  rep.simStats.cycles = u64("tlsim.cycles");
  rep.simStats.signalEvals = u64("tlsim.signal_evals");
  rep.cxStats.nodes = u64("eufm.nodes");
  rep.cxStats.memoryReads = u64("eufm.memory_reads");
  rep.cxStats.memoryWrites = u64("eufm.memory_writes");
  rep.cxStats.arenaBytes = u64("eufm.arena_bytes");
  rep.updatesRemoved = u32("rewrite.updates_removed");
  rewrite::RewriteStats& rw = rep.rewriteStats;
  rw.slicesChecked = u32("rewrite.slices_checked");
  rw.contextChecks = u32("rewrite.context_checks");
  rw.movesApplied = u32("rewrite.moves_applied");
  rw.mergesApplied = u32("rewrite.merges_applied");
  rw.forwardingMatches = u32("rewrite.forwarding_matches");
  rw.sliceNodesTotal = u64("rewrite.slice_nodes_total");
  rw.sliceNodesMax = u64("rewrite.slice_nodes_max");
  evc::TranslationStats& ev = rep.evcStats;
  ev.eijVars = u32("evc.eij_vars");
  ev.otherPrimaryVars = u32("evc.other_primary_vars");
  ev.pEquations = u32("evc.p_equations");
  ev.gEquations = u32("evc.g_equations");
  ev.gVars = u32("evc.g_vars");
  ev.memoryEquations = u32("evc.memory_equations");
  ev.freshTermVars = u32("evc.fresh_term_vars");
  ev.freshBoolVars = u32("evc.fresh_bool_vars");
  ev.transitivity.fillInEdges = u32("evc.transitivity_fill_in_edges");
  ev.transitivity.triangles = u32("evc.transitivity_triangles");
  ev.transitivity.clauses = u32("evc.transitivity_clauses");
  ev.cnfVars = u64("cnf.vars");
  ev.cnfClauses = u64("cnf.clauses");
  sat::Stats& sa = rep.satStats;
  sa.decisions = u64("sat.decisions");
  sa.propagations = u64("sat.propagations");
  sa.conflicts = u64("sat.conflicts");
  sa.learnts = u64("sat.learnts");
  sa.restarts = u64("sat.restarts");
  if (c.count("sat.inprocess.rounds") != 0) {
    rep.inprocessed = true;
    sat::InprocessStats& ip = rep.inprocessStats;
    ip.rounds = u64("sat.inprocess.rounds");
    ip.clausesBefore = u64("sat.inprocess.clauses_before");
    ip.clausesAfter = u64("sat.inprocess.clauses_after");
    ip.clausesRemoved = u64("sat.inprocess.clauses_removed");
    ip.clausesStrengthened = u64("sat.inprocess.clauses_strengthened");
    ip.litsRemoved = u64("sat.inprocess.lits_removed");
    ip.varsEliminated = u64("sat.inprocess.vars_eliminated");
    ip.varsSubstituted = u64("sat.inprocess.vars_substituted");
    ip.failedLiterals = u64("sat.inprocess.failed_literals");
    ip.reconstructionDepth = u64("sat.inprocess.reconstruction_depth");
  }
  if (rep.engine != Engine::Sat) {
    bdd::BddStats& bs = rep.bddStats;
    bs.nodesPeak = u64("bdd.nodes_peak");
    bs.cacheHits = u64("bdd.cache_hits");
    bs.cacheLookups = u64("bdd.cache_lookups");
    bs.reorderings = u64("bdd.reorderings");
    bs.gcRuns = u64("bdd.gc_runs");
  }
}

/// One completed cell as recorded in checkpoint.json: everything needed to
/// reconstruct its GridCellResult without re-verifying. Keyed by the
/// request's content-addressed cacheKeyHex(), never by grid index — a
/// resumed sweep may reorder, extend or truncate the request list and
/// still restore exactly the cells whose requests are unchanged.
struct CheckpointRecord {
  std::string key;
  std::string verdict;
  std::string reason;
  unsigned failedSlice = 0;
  bool fellBack = false;
  std::string firstVerdict;
  std::string engine;
  double wallSeconds = 0;
  StageSeconds seconds;
  std::uint64_t peakArenaBytes = 0;
  std::uint64_t rssHighWaterKb = 0;
  std::map<std::string, std::uint64_t> counters;
};

CheckpointRecord makeRecord(const std::string& key,
                            const GridCellResult& res) {
  CheckpointRecord r;
  r.key = key;
  r.verdict = verdictName(res.report.outcome.verdict);
  r.reason = res.report.outcome.reason;
  r.failedSlice = res.report.outcome.failedSlice;
  r.fellBack = res.fellBack;
  r.firstVerdict = verdictName(res.firstVerdict);
  r.engine = engineName(res.report.engine);
  r.wallSeconds = res.wallSeconds;
  r.seconds = res.report.outcome.seconds;
  r.peakArenaBytes = res.report.outcome.peakArenaBytes;
  r.rssHighWaterKb = res.report.outcome.rssHighWaterKb;
  for (const auto& [name, value] : reportCounters(res.report))
    r.counters.emplace(name, value);
  return r;
}

/// Rebuild a finished GridCellResult from its record (resume path).
GridCellResult restoredResult(const GridCell& cell,
                              const CheckpointRecord& r) {
  GridCellResult res;
  res.cell = cell;
  res.restored = true;
  res.wallSeconds = r.wallSeconds;
  res.memHighWaterKb = r.rssHighWaterKb;
  res.fellBack = r.fellBack;
  if (auto v = verdictFromName(r.firstVerdict)) res.firstVerdict = *v;
  if (auto v = verdictFromName(r.verdict)) res.report.outcome.verdict = *v;
  if (auto e = engineFromName(r.engine)) res.report.engine = *e;
  res.report.outcome.reason = r.reason;
  res.report.outcome.failedSlice = r.failedSlice;
  res.report.outcome.seconds = r.seconds;
  res.report.outcome.peakArenaBytes = r.peakArenaBytes;
  res.report.outcome.rssHighWaterKb = r.rssHighWaterKb;
  applyCounters(res.report, r.counters);
  return res;
}

/// The checkpoint file of one grid run: an append-only (by key) record set
/// rewritten wholesale — write to `<path>.tmp`, then rename over the
/// target, so a SIGKILL mid-write leaves the previous complete version in
/// place and never a torn file. All mutation is serialized on one mutex;
/// saves happen at cell granularity (seconds of work), so contention is
/// irrelevant next to durability.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string path) : path_(std::move(path)) {}

  /// Load an existing checkpoint (resume). Malformed JSON, a missing file
  /// or a version mismatch all mean "restore nothing" — resume is an
  /// optimization, never a correctness risk, so a bad file degrades to a
  /// full re-run rather than an error.
  std::size_t load() {
    std::ifstream is(path_);
    if (!is) return 0;
    std::stringstream ss;
    ss << is.rdbuf();
    const std::optional<JsonValue> v = parseJson(ss.str());
    if (!v || v->uintAt("version") != kGridCheckpointSchemaVersion) return 0;
    const JsonValue* cells = v->find("cells");
    if (cells == nullptr || !cells->isArray()) return 0;
    for (const JsonValue& c : cells->array) {
      CheckpointRecord r;
      r.key = c.stringAt("key");
      r.verdict = c.stringAt("verdict");
      if (r.key.empty() || !verdictFromName(r.verdict)) continue;
      r.reason = c.stringAt("reason");
      r.failedSlice = static_cast<unsigned>(c.uintAt("failed_slice"));
      if (const JsonValue* fb = c.find("fell_back"))
        r.fellBack = fb->isBool() && fb->boolean;
      r.firstVerdict = c.stringAt("first_verdict");
      if (r.firstVerdict.empty())
        r.firstVerdict = verdictName(Verdict::Inconclusive);
      r.engine = c.stringAt("engine");
      r.wallSeconds = c.numberAt("wall_seconds");
      if (const JsonValue* s = c.find("seconds")) {
        r.seconds.sim = s->numberAt("sim");
        r.seconds.rewrite = s->numberAt("rewrite");
        r.seconds.translate = s->numberAt("translate");
        r.seconds.sat = s->numberAt("sat");
        r.seconds.bdd = s->numberAt("bdd");
      }
      r.peakArenaBytes = c.uintAt("peak_arena_bytes");
      r.rssHighWaterKb = c.uintAt("rss_high_water_kb");
      if (const JsonValue* k = c.find("counters"); k && k->isObject())
        for (const auto& [name, val] : k->object)
          if (val.isNumber() && val.number >= 0)
            r.counters[name] = static_cast<std::uint64_t>(val.number);
      add(std::move(r), /*persist=*/false);
    }
    return records_.size();
  }

  const CheckpointRecord* findRecord(const std::string& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &records_[it->second];
  }

  /// Record one finished cell and (by default) rewrite the file. Records
  /// loaded at resume time are kept, so a checkpoint accumulates across
  /// partial sweeps over overlapping request sets.
  void add(CheckpointRecord rec, bool persist = true) {
    std::lock_guard<std::mutex> lk(mutex_);
    const auto it = index_.find(rec.key);
    if (it != index_.end()) {
      records_[it->second] = std::move(rec);
    } else {
      index_.emplace(rec.key, records_.size());
      records_.push_back(std::move(rec));
    }
    if (persist) writeLocked();
  }

 private:
  void writeLocked() {
    TRACE_SPAN("grid.checkpoint.save");
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream os(tmp);
      if (!os) return;
      JsonWriter w(os);
      w.beginObject();
      w.kv("version", kGridCheckpointSchemaVersion);
      w.kv("tool", "velev_grid");
      w.key("cells");
      w.beginArray();
      for (const CheckpointRecord& r : records_) {
        w.beginObject();
        w.kv("key", r.key);
        w.kv("verdict", r.verdict);
        if (!r.reason.empty()) w.kv("reason", r.reason);
        w.kv("failed_slice", r.failedSlice);
        w.kv("fell_back", r.fellBack);
        if (r.fellBack) w.kv("first_verdict", r.firstVerdict);
        w.kv("engine", r.engine);
        w.kv("wall_seconds", r.wallSeconds);
        w.key("seconds");
        w.beginObject();
        w.kv("sim", r.seconds.sim);
        w.kv("rewrite", r.seconds.rewrite);
        w.kv("translate", r.seconds.translate);
        w.kv("sat", r.seconds.sat);
        w.kv("bdd", r.seconds.bdd);
        w.endObject();
        w.kv("peak_arena_bytes", r.peakArenaBytes);
        w.kv("rss_high_water_kb", r.rssHighWaterKb);
        w.key("counters");
        w.beginObject();
        for (const auto& [name, value] : r.counters) w.kv(name, value);
        w.endObject();
        w.endObject();
      }
      w.endArray();
      w.endObject();
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path_, ec);
    trace::counterAdd("grid.checkpoint.saves", 1);
  }

  std::string path_;
  std::mutex mutex_;
  std::vector<CheckpointRecord> records_;
  std::map<std::string, std::size_t> index_;
};

GridCellResult runCell(const GridJob& job, const GridRunOptions& opts,
                       std::size_t index, sat::SolveMemo& memo) {
  GridCellResult res;
  res.cell = job.cell;
  Timer t;
  // One Collector per cell, mirroring the one-Context-per-cell rule: the
  // attachment is thread-local, so concurrent cells never share a sink.
  trace::Collector collector;
  const bool traced = !opts.traceDir.empty();
  {
    trace::Use tracing(traced ? &collector : nullptr);
    // verifyCell() builds a fresh eufm::Context and arms a fresh
    // BudgetGovernor for this cell (the one-context-per-cell ownership
    // rule; see the header), so budgets are strictly per cell.
    const models::OoOConfig cfg{job.cell.robSize, job.cell.issueWidth};
    VerifyOptions vopts = job.vopts;
    vopts.satMemo = &memo;
    // Intra-cell parallelism: semantically invisible (identical verdicts
    // and counters), so layering it on here never perturbs a checkpoint.
    if (opts.cellJobs > 1) vopts.jobs = opts.cellJobs;
    res.report = verifyCell(cfg, job.cell.bug, vopts);

    if (opts.fallback == FallbackPolicy::RetryWithRewriting &&
        res.report.outcome.budgetExceeded() &&
        job.vopts.strategy == Strategy::PositiveEqualityOnly) {
      res.fellBack = true;
      res.firstVerdict = res.report.outcome.verdict;
      VerifyOptions retry = vopts;
      retry.strategy = Strategy::RewritingPlusPositiveEquality;
      res.report = verifyCell(cfg, job.cell.bug, retry);
    }
  }

  res.wallSeconds = t.seconds();
  res.memHighWaterKb = rssHighWaterKb();
  if (traced) writeCellTrace(opts.traceDir, index, res, job.vopts, collector);
  return res;
}

/// Config-block value over a possibly heterogeneous grid: the shared name
/// when every job agrees, "mixed" otherwise.
template <class Get>
std::string sharedOrMixed(std::span<const GridJob> jobs, Get get) {
  if (jobs.empty()) return "none";
  const std::string first = get(jobs.front());
  for (const GridJob& j : jobs.subspan(1))
    if (get(j) != first) return "mixed";
  return first;
}

/// The whole-grid roll-up: per-stage seconds and counters summed over the
/// cells, verdict "correct" only if every non-skipped cell is.
void writeGridManifest(const std::string& dir, const GridRunOptions& opts,
                       std::span<const GridJob> jobs,
                       std::span<const GridCellResult> results,
                       const trace::Collector* gridCollector = nullptr) {
  trace::ManifestData m;
  m.tool = "velev_grid";
  m.config.emplace_back("cells", std::to_string(results.size()));
  m.config.emplace_back("jobs", std::to_string(opts.jobs));
  if (opts.cellJobs > 1)
    m.config.emplace_back("cell_jobs", std::to_string(opts.cellJobs));
  if (!opts.checkpointPath.empty()) {
    m.config.emplace_back("checkpoint", opts.checkpointPath);
    m.config.emplace_back("resume", opts.resume ? "true" : "false");
  }
  m.config.emplace_back("strategy", sharedOrMixed(jobs, [](const GridJob& j) {
                          return std::string(strategyName(j.vopts.strategy));
                        }));
  m.config.emplace_back("engine", sharedOrMixed(jobs, [](const GridJob& j) {
                          return std::string(engineName(j.vopts.engine));
                        }));
  m.config.emplace_back(
      "fallback", opts.fallback == FallbackPolicy::RetryWithRewriting
                      ? "retry-with-rewriting"
                      : "none");
  m.config.emplace_back(
      "inprocess", sharedOrMixed(jobs, [](const GridJob& j) {
        return std::string(j.vopts.inprocess.enabled ? "true" : "false");
      }));
  if (!jobs.empty()) {
    // Budget block: the shared budget on homogeneous grids; the first
    // job's on mixed ones (the per-cell manifests carry the exact values).
    m.budgetWallSeconds = jobs.front().vopts.budget.wallSeconds;
    m.budgetMemoryBytes = jobs.front().vopts.budget.memoryBytes;
    m.budgetSatConflicts = jobs.front().vopts.budget.satConflicts;
  }

  StageSeconds total;
  std::map<std::string, std::uint64_t> counters;
  if (!opts.checkpointPath.empty()) {
    std::uint64_t restored = 0;
    for (const GridCellResult& r : results) restored += r.restored ? 1 : 0;
    counters["grid.checkpoint.restored"] = restored;
  }
  Verdict worst = Verdict::Correct;
  for (const GridCellResult& r : results) {
    const StageSeconds& s = r.report.outcome.seconds;
    total.sim += s.sim;
    total.rewrite += s.rewrite;
    total.translate += s.translate;
    total.sat += s.sat;
    total.bdd += s.bdd;
    m.peakArenaBytes =
        std::max(m.peakArenaBytes,
                 static_cast<std::uint64_t>(r.report.outcome.peakArenaBytes));
    m.rssHighWaterKb =
        std::max(m.rssHighWaterKb,
                 static_cast<std::uint64_t>(r.report.outcome.rssHighWaterKb));
    for (const auto& [name, value] : reportCounters(r.report))
      counters[name] += value;
    if (r.report.outcome.verdict != Verdict::Correct &&
        worst == Verdict::Correct)
      worst = r.report.outcome.verdict;
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

std::vector<GridCellResult> runGridImpl(std::span<const GridJob> jobs,
                                        const GridRunOptions& opts,
                                        CancelToken* cancel,
                                        std::span<const std::string> keys = {}) {
  std::vector<GridCellResult> results(jobs.size());
  const bool traced = !opts.traceDir.empty();
  if (traced) std::filesystem::create_directories(opts.traceDir);

  // Grid-level collector: checkpoint I/O happens on the scheduler thread
  // (or a finishing worker) outside any cell's collector scope, so the
  // grid.checkpoint.* spans and counters get their own sink, folded into
  // the merged manifest below.
  trace::Collector gridCollector;

  // Checkpointing needs a stable per-cell identity, which only the
  // request-based overload supplies (keys parallel to jobs).
  std::unique_ptr<CheckpointStore> ckpt;
  // Restored records are COPIED out of the store: add() on a freshly
  // finished cell may reallocate the store's record vector while restored
  // cells are still waiting to be materialized.
  std::vector<std::optional<CheckpointRecord>> restoredRec(jobs.size());
  if (!opts.checkpointPath.empty() && keys.size() == jobs.size()) {
    ckpt = std::make_unique<CheckpointStore>(opts.checkpointPath);
    if (opts.resume) {
      trace::Use use(traced ? &gridCollector : nullptr);
      TRACE_SPAN("grid.checkpoint.load");
      ckpt->load();
      std::uint64_t restored = 0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (const CheckpointRecord* rec = ckpt->findRecord(keys[i])) {
          restoredRec[i] = *rec;
          ++restored;
        }
      }
      trace::counterSet("grid.checkpoint.restored", restored);
    }
  }

  // Persist every completed verdict — conclusive, budget-tripped or
  // mismatch alike; Skipped cells never enter the file, so a cancelled
  // sweep resumes exactly them. Restored cells are already on disk.
  auto persistCell = [&](std::size_t i) {
    if (ckpt == nullptr || results[i].restored || results[i].skipped) return;
    trace::Use use(traced ? &gridCollector : nullptr);
    ckpt->add(makeRecord(keys[i], results[i]));
  };

  // One solve memo for the whole call, shared by every cell (fallback
  // retries included) at any `jobs`: a Table 5 column replays one SAT solve
  // with counters identical to fresh ones. Concurrent cells may both miss.
  sat::SolveMemo memo;

  if (opts.jobs <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (restoredRec[i].has_value()) {
        results[i] = restoredResult(jobs[i].cell, *restoredRec[i]);
        continue;
      }
      if (cancel != nullptr && cancel->cancelled()) {
        results[i] = skippedCell(jobs[i].cell);
        continue;
      }
      results[i] = runCell(jobs[i], opts, i, memo);
      persistCell(i);
    }
    if (traced)
      writeGridManifest(opts.traceDir, opts, jobs, results, &gridCollector);
    return results;
  }

  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(opts.jobs, std::max<std::size_t>(1, jobs.size())));
  ThreadPool pool(workers);
  const CancelToken token = cancel != nullptr ? *cancel : CancelToken();
  std::vector<std::pair<std::size_t, std::future<void>>> done;
  done.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (restoredRec[i].has_value()) {
      results[i] = restoredResult(jobs[i].cell, *restoredRec[i]);
      continue;
    }
    done.emplace_back(i, pool.submit(token, [&, i] {
      results[i] = runCell(jobs[i], opts, i, memo);
      persistCell(i);
    }));
  }
  for (auto& [i, f] : done) {
    try {
      f.get();
    } catch (const CancelledError&) {
      results[i] = skippedCell(jobs[i].cell);
    }
  }
  if (traced)
    writeGridManifest(opts.traceDir, opts, jobs, results, &gridCollector);
  return results;
}

}  // namespace

std::vector<GridCellResult> runGrid(std::span<const VerifyRequest> requests,
                                    const GridRunOptions& opts,
                                    CancelToken* cancel) {
  std::vector<GridJob> jobs;
  jobs.reserve(requests.size());
  for (const VerifyRequest& req : requests)
    jobs.push_back(GridJob{GridCell{req.robSize, req.issueWidth, req.bug},
                           req.options()});
  // Checkpoint identity: the content-addressed cache key (request fields +
  // gitDescribe), never the grid index — see GridRunOptions::checkpointPath.
  std::vector<std::string> keys;
  if (!opts.checkpointPath.empty()) {
    keys.reserve(requests.size());
    for (const VerifyRequest& req : requests)
      keys.push_back(req.cacheKeyHex());
  }
  return runGridImpl(jobs, opts, cancel, keys);
}

trace::ManifestData cellManifestData(const GridCellResult& res,
                                     const VerifyOptions& opts,
                                     std::string_view tool) {
  trace::ManifestData m;
  m.tool = std::string(tool);
  m.config.emplace_back("rob_size", std::to_string(res.cell.robSize));
  m.config.emplace_back("issue_width", std::to_string(res.cell.issueWidth));
  m.config.emplace_back("strategy", strategyName(opts.strategy));
  m.config.emplace_back("engine", engineName(opts.engine));
  m.config.emplace_back("uf_scheme", evc::ufSchemeName(opts.ufScheme));
  if (res.cell.bug.kind != models::BugKind::None) {
    m.config.emplace_back(
        "bug_kind",
        std::to_string(static_cast<unsigned>(res.cell.bug.kind)));
    m.config.emplace_back("bug_index", std::to_string(res.cell.bug.index));
  }
  if (res.fellBack)
    m.config.emplace_back("first_verdict", verdictName(res.firstVerdict));
  m.budgetWallSeconds = opts.budget.wallSeconds;
  m.budgetMemoryBytes = opts.budget.memoryBytes;
  m.budgetSatConflicts = opts.budget.satConflicts;
  m.verdict = verdictName(res.report.outcome.verdict);
  m.reason = res.report.outcome.reason;
  const StageSeconds& s = res.report.outcome.seconds;
  m.stageSeconds = {{"sim", s.sim},
                    {"rewrite", s.rewrite},
                    {"translate", s.translate},
                    {"sat", s.sat},
                    {"bdd", s.bdd}};
  m.peakArenaBytes = res.report.outcome.peakArenaBytes;
  m.rssHighWaterKb = res.report.outcome.rssHighWaterKb;
  m.counters = reportCounters(res.report);
  return m;
}

trace::ManifestData cellManifestData(const GridCellResult& res,
                                     const VerifyRequest& req,
                                     std::string_view tool) {
  return cellManifestData(res, req.options(), tool);
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
