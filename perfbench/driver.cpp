// perfbench_driver — one workload of the repository benchmark, in its own
// process. Built and launched by run.py (see README.md):
//
//   perfbench_driver --workload wide_issue --seed 1 --seconds 10 --trace 0
//   perfbench_driver --workload serve_mix --seed 1 --list-inputs
//
// --trace 0 measures the end-to-end metrics: set-up is repeated and its
// median reported, then whole passes over the workload's inputs run until
// --seconds have elapsed. --trace 1 instead re-executes every input as the
// chain of layer calls in chain.hpp, checks that the chain reproduces the
// untraced verdict and counter block exactly, and reports per-layer
// metrics. Either way every answer is checked against the input's known
// answer. The last stdout line is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Exit code: 0 when every check passed, 1 when any answer, gate or fidelity
// check failed, 2 on usage errors.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "chain.hpp"
#include "core/request.hpp"
#include "daemon.hpp"
#include "inputs.hpp"
#include "support/json.hpp"
#include "support/mem.hpp"
#include "support/timer.hpp"

namespace perfbench {
namespace {

using namespace velev;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// A batch set-up takes milliseconds, so its median needs many samples.
constexpr unsigned kBatchSetups = 25;
constexpr unsigned kServeSetups = 3;
constexpr unsigned kServeClients = 2;
// The daemon's memory grows with every cached miss, so its peak is read
// after a fixed number of passes, not after however many fit the window.
constexpr std::size_t kServeRssPasses = 5;
constexpr const char* kServeJobs = "2";
constexpr const char* kOutDir = ".bench_build/perfbench-out";
constexpr const char* kRunDir = ".bench_build/perfbench-run";
constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  Workload workload = Workload::WideIssue;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool listOnly = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};
using Metrics = std::vector<Metric>;

/// attempted / failed over every verification asked for, plus the checks
/// that belong to no single input (seed discipline, trace fidelity, cache
/// equivalence).
class Tally {
 public:
  void attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    if (++failed_ <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  void gate(bool ok, const std::string& what) {
    if (ok) return;
    gatesOk_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  bool correct() const { return failed_ == 0 && gatesOk_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool gatesOk_ = true;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string describe(const Input& in) {
  return "input " + std::to_string(in.id) + " " +
         compactJson(in.req.toJson(false));
}

// ---- batch workloads -------------------------------------------------------

struct BatchSetup {
  std::vector<Input> inputs;
  std::size_t refCnfVars = 0;
  std::size_t refCnfClauses = 0;
};

/// Inputs from the seed (generated twice: the lists must be identical), a
/// warm-up verification, and for rob_scale the Table 5 reference sizes.
BatchSetup setUpBatch(const Options& o, Tally& tally) {
  BatchSetup s;
  s.inputs = batchInputs(o.workload, o.seed);
  tally.gate(listInputs(s.inputs) ==
                 listInputs(batchInputs(o.workload, o.seed)),
             "the same seed gave two different input lists");
  Input warm;
  warm.req.robSize = 16;
  warm.req.issueWidth = 4;
  tally.gate(verifyInput(warm).verdict() == core::Verdict::Correct,
             "warm-up cell 16x4 is not correct");
  if (o.workload == Workload::RobScale) {
    const core::VerifyReport ref = core::verify(sizeReferenceRequest());
    s.refCnfVars = ref.evcStats.cnfVars;
    s.refCnfClauses = ref.evcStats.cnfClauses;
    tally.gate(ref.evcStats.eijVars == 0,
               "size reference cell has e_ij variables");
  }
  return s;
}

/// Known answer, time limit and, on rob_scale's bug-free cell, the Table 5
/// invariants: no e_ij variables and the CNF of the wide_issue cell.
bool checkBatch(const Options& o, const BatchSetup& s, const Input& in,
                const core::VerifyReport& rep, double seconds,
                std::string* why) {
  if (!matchesExpect(in.expect, rep.verdict(), rep.outcome.failedSlice, why))
    return false;
  if (seconds > kInputTimeLimitSeconds) {
    *why = "over the time limit";
    return false;
  }
  if (o.workload == Workload::RobScale &&
      in.req.bug.kind == models::BugKind::None) {
    if (rep.evcStats.eijVars != 0) {
      *why = "e_ij variables on the rewritten formula";
      return false;
    }
    if (rep.evcStats.cnfVars != s.refCnfVars ||
        rep.evcStats.cnfClauses != s.refCnfClauses) {
      *why = "CNF size differs from the wide_issue cell of the same width";
      return false;
    }
  }
  return true;
}

/// Per-layer totals of one traced pass. Work counts and seconds are summed
/// over the pass; sizes (nodes, bytes, CNF, BDD peak) are the largest input.
struct LayerAgg {
  double models = 0, sim = 0, rewrite = 0, unattributed = 0, translate = 0,
         inprocess = 0, cdcl = 0, bdd = 0, traced = 0, untraced = 0;
  std::uint64_t signalEvals = 0, slices = 0, rules = 0, nodes = 0, arena = 0,
                cnfVars = 0, cnfClauses = 0, eij = 0, transitivity = 0,
                clausesBefore = 0, clausesAfter = 0, conflicts = 0,
                propagations = 0, bddPeak = 0, bddHits = 0, bddLookups = 0;

  /// `untracedWall`: the same input through verifyInput().
  void add(double untracedWall, const ChainResult& c) {
    const core::VerifyReport& r = c.report;
    const LayerSeconds& l = c.seconds;
    models += l.models;
    sim += l.sim;
    rewrite += l.rewrite;
    translate += l.translate;
    inprocess += l.inprocess;
    cdcl += l.cdcl;
    bdd += l.bdd;
    // The input's root span minus its layer spans.
    unattributed += c.wallSeconds - (l.models + l.sim + l.rewrite +
                                     l.translate + l.inprocess + l.cdcl + l.bdd);
    traced += c.wallSeconds;
    untraced += untracedWall;
    signalEvals += r.simStats.signalEvals;
    slices += r.rewriteStats.slicesChecked;
    rules += r.rewriteStats.rulesFired();
    nodes = std::max<std::uint64_t>(nodes, r.cxStats.nodes);
    arena = std::max<std::uint64_t>(arena, r.cxStats.arenaBytes);
    cnfVars = std::max<std::uint64_t>(cnfVars, r.evcStats.cnfVars);
    cnfClauses = std::max<std::uint64_t>(cnfClauses, r.evcStats.cnfClauses);
    eij = std::max<std::uint64_t>(eij, r.evcStats.eijVars);
    transitivity = std::max<std::uint64_t>(
        transitivity, r.evcStats.transitivity.clauses);
    if (r.inprocessed) {
      clausesBefore += r.inprocessStats.clausesBefore;
      clausesAfter += r.inprocessStats.clausesAfter;
    }
    conflicts += r.satStats.conflicts;
    propagations += r.satStats.propagations;
    bddPeak = std::max<std::uint64_t>(bddPeak, r.bddStats.nodesPeak);
    bddHits += r.bddStats.cacheHits;
    bddLookups += r.bddStats.cacheLookups;
  }

  Metrics metrics() const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"tlsim.sim_s", sim, "s", ""},
        {"tlsim.signal_evals", d(signalEvals), "count", ""},
        {"tlsim.evals_per_s", ratio(d(signalEvals), sim), "1/s", ""},
        {"rewrite.rewrite_s", rewrite, "s", ""},
        {"rewrite.slices_checked", d(slices), "count", ""},
        {"rewrite.rules_fired", d(rules), "count", ""},
        {"rewrite.slice_ms", 1e3 * ratio(rewrite, d(slices)), "ms", ""},
        {"core.unattributed_s", unattributed, "s", ""},
        {"models.build_s", models, "s", ""},
        {"eufm.nodes", d(nodes), "count", ""},
        {"eufm.arena_bytes", d(arena), "bytes", ""},
        {"evc.translate_s", translate, "s", ""},
        {"cnf.vars", d(cnfVars), "count", ""},
        {"cnf.clauses", d(cnfClauses), "count", ""},
        {"evc.eij_vars", d(eij), "count", ""},
        {"evc.transitivity_clauses", d(transitivity), "count", ""},
        {"sat.inprocess_s", inprocess, "s", ""},
        {"sat.inprocess.kept_frac", ratio(d(clausesAfter), d(clausesBefore)),
         "ratio", ""},
        {"sat.cdcl_s", cdcl, "s", ""},
        {"sat.conflicts", d(conflicts), "count", ""},
        {"sat.propagations", d(propagations), "count", ""},
        {"sat.props_per_s", ratio(d(propagations), cdcl), "1/s", ""},
        {"bdd.check_s", bdd, "s", ""},
        {"bdd.nodes_peak", d(bddPeak), "count", ""},
        {"bdd.cache_hit_frac", ratio(d(bddHits), d(bddLookups)), "ratio", ""},
        {"trace.overhead_s", traced - untraced, "s",
         "traced minus untraced wall of the same inputs"},
    };
  }
};

/// Metric-by-metric median over passes.
Metrics medianOver(const std::vector<Metrics>& passes) {
  Metrics out = passes.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const Metrics& p : passes) v.push_back(p[i].value);
    out[i].value = median(v);
  }
  return out;
}

/// The untraced reference and the traced chain of one input: both checked
/// against the known answer, and the chain against the reference exactly.
void traceInput(const Options& o, const BatchSetup& s, const Input& in,
                Tally& tally, SpanLog& log, LayerAgg& agg) {
  std::string why;
  try {
    const Timer t;
    const core::VerifyReport ref = verifyInput(in);
    const double refWall = t.seconds();
    tally.attempt(checkBatch(o, s, in, ref, refWall, &why),
                  describe(in) + ": " + why);
    const ChainResult chain = runChain(in, log);
    const bool same =
        chain.report.verdict() == ref.verdict() &&
        chain.report.outcome.failedSlice == ref.outcome.failedSlice &&
        core::reportCounters(chain.report) == core::reportCounters(ref);
    tally.gate(same, "layer chain does not reproduce core::verify on " +
                         describe(in));
    agg.add(refWall, chain);
  } catch (const std::exception& e) {
    tally.attempt(false, describe(in) + ": " + e.what());
  }
}

/// The serve.* metrics of a workload that never touches the daemon.
Metrics zeroServeMetrics() {
  return {
      {"serve.hit_frac", 0, "ratio", ""},
      {"serve.hit_ms", 0, "ms", ""},
      {"serve.miss_ms", 0, "ms", ""},
      {"serve.job_ms", 0, "ms", ""},
      {"serve.overhead_ms", 0, "ms", ""},
      {"serve.coalesced", 0, "count", ""},
      {"serve.errors", 0, "count", ""},
      {"serve.admission_rejects", 0, "count", ""},
  };
}

Metrics runBatch(const Options& o, Tally& tally) {
  // Set-up runs once before every pass as well as up front, so its median
  // samples the whole window rather than one moment of machine load.
  std::vector<double> setups;
  const auto timedSetUp = [&] {
    const Timer t;
    BatchSetup s = setUpBatch(o, tally);
    setups.push_back(t.seconds());
    return s;
  };
  BatchSetup setup;
  for (unsigned i = 0; i < kBatchSetups; ++i) setup = timedSetUp();
  // The inputs run one after another on this thread: side by side they
  // would measure how the machine schedules more threads than it has cores.
  // Each input's time is its median over passes, so one stalled pass cannot
  // become the p99 of a handful of inputs, and wall_s is the sum of those.
  std::size_t passes = 0;
  std::vector<std::vector<double>> perInput(setup.inputs.size());
  std::uint64_t peakArena = 0;
  const Timer window;
  do {
    if (passes > 0) timedSetUp();
    for (std::size_t i = 0; i < setup.inputs.size(); ++i) {
      const Input& in = setup.inputs[i];
      std::string why;
      bool ok = false;
      const Timer t;
      try {
        const core::VerifyReport rep = verifyInput(in);
        const double seconds = t.seconds();
        perInput[i].push_back(seconds);
        peakArena =
            std::max<std::uint64_t>(peakArena, rep.outcome.peakArenaBytes);
        ok = checkBatch(o, setup, in, rep, seconds, &why);
      } catch (const std::exception& e) {
        why = e.what();
      }
      tally.attempt(ok, describe(in) + ": " + why);
    }
    ++passes;
  } while (window.seconds() < o.seconds);

  std::vector<double> latencies;
  double pass = 0;
  for (const std::vector<double>& v : perInput) {
    latencies.push_back(median(v));
    pass += latencies.back();
  }
  const std::string n = "median over " + std::to_string(passes) +
                        " passes of each of " +
                        std::to_string(latencies.size()) + " inputs";
  return {
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"wall_s", pass, "s", "sum of the inputs' times; " + n},
      {"latency_p50_ms", 1e3 * percentile(latencies, 0.5), "ms",
       n + "; the middle input"},
      {"latency_p99_ms", 1e3 * percentile(latencies, 0.99), "ms",
       n + "; the slowest input"},
      {"peak_rss_mb", static_cast<double>(rssHighWaterKb()) / 1024.0, "MiB",
       "VmHWM of the verifying process"},
      {"peak_arena_mb", static_cast<double>(peakArena) / kMiB, "MiB",
       "max peak_arena_bytes over inputs"},
  };
}

Metrics runBatchTraced(const Options& o, Tally& tally, SpanLog& log) {
  const BatchSetup setup = setUpBatch(o, tally);
  std::vector<Metrics> passes;
  const Timer window;
  do {
    LayerAgg agg;
    for (const Input& in : setup.inputs)
      traceInput(o, setup, in, tally, log, agg);
    passes.push_back(agg.metrics());
  } while (window.seconds() < o.seconds);
  Metrics out = medianOver(passes);
  for (Metric& m : zeroServeMetrics()) out.push_back(std::move(m));
  return out;
}

// ---- serve_mix -------------------------------------------------------------

struct Answer {
  std::size_t index = 0;  // into the request list
  Clock::time_point start, end;
  std::optional<core::VerifyResponse> resp;
  std::string transportError;

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

std::unique_ptr<Daemon> startDaemon(const std::string& runDir) {
  const std::string journal = runDir + "/journal";
  const std::string socket = runDir + "/serve.sock";
  fs::remove_all(journal);
  fs::remove(socket);
  return std::make_unique<Daemon>(
      PERFBENCH_SERVE_BIN,
      std::vector<std::string>{"--socket", socket, "--jobs", kServeJobs,
                               "--cache", "1000000", "--cache-dir", journal,
                               "--quiet"},
      socket);
}

/// Closed loop: kServeClients connections, each sending its next request
/// only after the previous answer arrived; client c takes requests c,
/// c + kServeClients, ...
std::vector<Answer> roundTrips(const Daemon& daemon,
                             const std::vector<Input>& reqs) {
  std::vector<std::vector<Answer>> perClient(kServeClients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kServeClients; ++c)
    threads.emplace_back([&, c] {
      std::string err;
      std::optional<serve::Client> client = daemon.connect(&err);
      for (std::size_t i = c; i < reqs.size(); i += kServeClients) {
        Answer a;
        a.index = i;
        a.start = Clock::now();
        if (client.has_value()) a.resp = client->roundTrip(reqs[i].req, &err);
        a.end = Clock::now();
        if (!a.resp.has_value()) a.transportError = err;
        perClient[c].push_back(std::move(a));
      }
    });
  for (std::thread& t : threads) t.join();
  std::vector<Answer> all;
  for (auto& v : perClient)
    for (Answer& a : v) all.push_back(std::move(a));
  std::sort(all.begin(), all.end(), [](const Answer& a, const Answer& b) {
    return a.index < b.index;
  });
  return all;
}

void checkAnswer(const Input& in, const Answer& a, Tally& tally) {
  std::string why;
  if (!a.resp.has_value()) why = "no answer: " + a.transportError;
  else if (!a.resp->error.empty()) why = "error response: " + a.resp->error;
  else if (a.resp->id != in.req.id) why = "response id mismatch";
  else if (a.seconds() > kInputTimeLimitSeconds) why = "over the time limit";
  else matchesExpect(in.expect, a.resp->verdict, a.resp->failedSlice, &why);
  tally.attempt(why.empty(), describe(in) + ": " + why);
}

struct ServeCounters {
  std::uint64_t coalesced = 0, errors = 0, admissionRejects = 0;
};

ServeCounters readStats(const Daemon& daemon, Tally& tally,
                        const std::string& snapshotPath) {
  ServeCounters sc;
  std::string err;
  std::optional<serve::Client> client = daemon.connect(&err);
  std::optional<std::string> line;
  if (client.has_value()) line = client->roundTripLine(R"({"op":"stats"})", &err);
  std::optional<JsonValue> v;
  if (line.has_value()) v = parseJson(*line, &err);
  const JsonValue* counters = v.has_value() ? v->find("counters") : nullptr;
  tally.gate(counters != nullptr, "stats op failed: " + err);
  if (counters == nullptr) return sc;
  std::printf("serve stats: %s\n", line->c_str());
  if (std::FILE* f = std::fopen(snapshotPath.c_str(), "w")) {
    std::fprintf(f, "%s\n", line->c_str());
    std::fclose(f);
  }
  sc.coalesced = counters->uintAt("serve.cache.coalesced_total");
  sc.errors = counters->uintAt("serve.jobs.failed") +
              counters->uintAt("serve.requests.bad");
  sc.admissionRejects = counters->uintAt("serve.admission.rejected");
  tally.gate(sc.errors == 0, "the daemon counted failed jobs or bad requests");
  return sc;
}

/// A seeded sample of distinct cells (hot and fresh): the daemon's cached
/// answer must equal a fresh in-process core::verify in verdict and
/// counters. In a traced run each is also re-run as the layer chain.
void checkSample(const Options& o, const Daemon& daemon,
                 const std::vector<Input>& pool,
                 const std::vector<Input>& fresh, Tally& tally, SpanLog* log,
                 LayerAgg* agg) {
  SeedRng rng(o.seed * 0x9e3779b97f4a7c15ull + 0x5a3c);
  std::vector<Input> sample;
  std::vector<Input> hot;
  for (const Input& in : pool)
    if (in.req.strategy == core::Strategy::RewritingPlusPositiveEquality)
      hot.push_back(in);
  const auto pick = [&](std::vector<Input> from, std::size_t count) {
    for (std::size_t i = 0; i < count && !from.empty(); ++i) {
      const std::size_t j = rng.below(from.size());
      sample.push_back(from[j]);
      from.erase(from.begin() + static_cast<std::ptrdiff_t>(j));
    }
  };
  pick(hot, 4);
  pick(fresh, 8);

  std::string err;
  std::optional<serve::Client> client = daemon.connect(&err);
  tally.gate(client.has_value(), "cannot connect for the sample: " + err);
  if (!client.has_value()) return;
  BatchSetup none;
  for (const Input& in : sample) {
    const std::optional<core::VerifyResponse> cached =
        client->roundTrip(in.req, &err);
    const Timer t;
    const core::VerifyReport rep = verifyInput(in);
    const double wall = t.seconds();
    std::string why;
    tally.attempt(checkBatch(o, none, in, rep, wall, &why),
                  describe(in) + ": " + why);
    tally.gate(cached.has_value() && cached->error.empty() &&
                   cached->verdict == rep.verdict() &&
                   cached->failedSlice == rep.outcome.failedSlice &&
                   cached->counters == core::reportCounters(rep),
               "cached answer differs from a fresh verify on " +
                   describe(in));
    if (log != nullptr) {
      try {
        const ChainResult chain = runChain(in, *log);
        tally.gate(chain.report.verdict() == rep.verdict() &&
                       core::reportCounters(chain.report) ==
                           core::reportCounters(rep),
                   "layer chain does not reproduce core::verify on " +
                       describe(in));
        agg->add(wall, chain);
      } catch (const std::exception& e) {
        tally.gate(false, "layer chain threw on " + describe(in) + ": " +
                              e.what());
      }
    }
  }
}

Metrics runServe(const Options& o, Tally& tally, SpanLog* log) {
  const std::string runDir =
      std::string(kRunDir) + "/" + std::to_string(getpid());
  fs::create_directories(runDir);

  // Set-up: generate the traffic (twice, for the seed-discipline check),
  // start a fresh daemon and warm its cache with the hot pool. Repeated;
  // the last daemon serves the measured passes.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::optional<ServeTraffic> traffic;
  // Like the daemon's RSS, the arena peak covers a fixed set of cells: the
  // hot pool and the fresh cells of the first kServeRssPasses passes.
  std::uint64_t peakArena = 0;
  const auto arena = [&](const Answer& a) {
    if (a.resp.has_value() && a.resp->error.empty())
      peakArena = std::max(peakArena, a.resp->peakArenaBytes);
  };
  const unsigned setupCount = log != nullptr ? 1 : kServeSetups;
  for (unsigned i = 0; i < setupCount; ++i) {
    if (daemon) daemon->stop();
    const Timer t;
    traffic.emplace(o.seed);
    ServeTraffic twin(o.seed);
    tally.gate(listInputs(traffic->hotPool()) == listInputs(twin.hotPool()) &&
                   listInputs(ServeTraffic(o.seed).nextPass()) ==
                       listInputs(twin.nextPass()),
               "the same seed gave two different request streams");
    daemon = startDaemon(runDir);
    if (!daemon->ok()) {
      tally.gate(false, "velev_serve: " + daemon->error());
      return {};
    }
    const std::vector<Input>& pool = traffic->hotPool();
    const std::vector<Answer> warm = roundTrips(*daemon, pool);
    peakArena = 0;
    for (const Answer& a : warm) {
      checkAnswer(pool[a.index], a, tally);
      arena(a);
    }
    setups.push_back(t.seconds());
  }

  std::vector<double> passes, latencies, hitLat, missLat, jobMs, overheadMs;
  std::vector<Input> fresh;
  std::size_t rssKb = 0;
  const Timer window;
  do {
    const std::vector<Input> reqs = traffic->nextPass();
    const Timer pass;
    const std::vector<Answer> answers = roundTrips(*daemon, reqs);
    passes.push_back(pass.seconds());
    if (passes.size() == kServeRssPasses) rssKb = daemon->rssHighWaterKb();
    for (const Answer& a : answers) {
      const Input& in = reqs[a.index];
      checkAnswer(in, a, tally);
      latencies.push_back(a.seconds());
      if (log != nullptr) log->add("serve.request", a.start, a.end, -1, in.id);
      if (passes.size() <= kServeRssPasses) arena(a);
      if (!a.resp.has_value() || !a.resp->error.empty()) continue;
      if (a.resp->cached) {
        hitLat.push_back(a.seconds());
      } else {
        missLat.push_back(a.seconds());
        jobMs.push_back(1e3 * a.resp->wallSeconds);
        overheadMs.push_back(1e3 * (a.seconds() - a.resp->wallSeconds));
        fresh.push_back(in);
      }
    }
  } while (window.seconds() < o.seconds && traffic->passesLeft() > 0);
  if (traffic->passesLeft() == 0)
    std::fprintf(stderr,
                 "perfbench: the fresh cells ran out after %zu passes; "
                 "the window ended early\n",
                 passes.size());

  const std::string tag = std::string(kOutDir) + "/serve_mix-" +
                          std::to_string(o.seed) +
                          (log != nullptr ? "-trace" : "");
  const ServeCounters sc = readStats(*daemon, tally, tag + ".stats.json");
  LayerAgg agg;
  checkSample(o, *daemon, traffic->hotPool(), fresh, tally, log, &agg);
  if (passes.size() < kServeRssPasses) rssKb = daemon->rssHighWaterKb();
  daemon->stop();
  fs::remove_all(runDir);

  if (log != nullptr) {
    Metrics out = agg.metrics();
    const double n = static_cast<double>(latencies.size());
    out.insert(out.end(),
               {
                   {"serve.hit_frac", ratio(static_cast<double>(hitLat.size()), n),
                    "ratio", ""},
                   {"serve.hit_ms", 1e3 * median(hitLat), "ms", ""},
                   {"serve.miss_ms", 1e3 * median(missLat), "ms", ""},
                   {"serve.job_ms", median(jobMs), "ms", ""},
                   {"serve.overhead_ms", median(overheadMs), "ms", ""},
                   {"serve.coalesced", static_cast<double>(sc.coalesced),
                    "count", ""},
                   {"serve.errors", static_cast<double>(sc.errors), "count",
                    ""},
                   {"serve.admission_rejects",
                    static_cast<double>(sc.admissionRejects), "count", ""},
               });
    return out;
  }
  const std::string n = std::to_string(latencies.size()) + " requests";
  return {
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) +
           " daemon start + cache warm-ups"},
      {"wall_s", median(passes), "s",
       "median of " + std::to_string(passes.size()) + " passes of " +
           std::to_string(ServeTraffic::kRequestsPerPass) + " requests"},
      {"latency_p50_ms", 1e3 * percentile(latencies, 0.5), "ms",
       "round trip, " + n},
      {"latency_p99_ms", 1e3 * percentile(latencies, 0.99), "ms",
       "round trip, " + n},
      {"peak_rss_mb", static_cast<double>(rssKb) / 1024.0, "MiB",
       "VmHWM of the daemon after set-up and " +
           std::to_string(std::min<std::size_t>(passes.size(),
                                                kServeRssPasses)) +
           " passes"},
      {"peak_arena_mb", static_cast<double>(peakArena) / kMiB, "MiB",
       "max peak_arena_bytes over the hot pool and the first " +
           std::to_string(std::min<std::size_t>(passes.size(),
                                                kServeRssPasses)) +
           " passes"},
  };
}

// ---- output ----------------------------------------------------------------

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void printResult(const Options& o, const Tally& tally, const Metrics& metrics) {
  std::printf("perfbench %s seed %llu trace %d\n", workloadName(o.workload),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  for (const Metric& m : metrics)
    std::printf("  %-26s %14.6g %-5s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("  %-26s %14.6g %-5s %llu of %llu attempted\n", "failed_frac",
              ratio(static_cast<double>(tally.failed()),
                    static_cast<double>(tally.attempted())),
              "ratio", static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));
  std::string json = std::string("{\"correct\": ") +
                     (tally.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted()) +
                     ", \"failed\": " + std::to_string(tally.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "wide_issue|rob_scale|pe_only|serve_mix --seed N "
               "[--seconds S] [--trace 0|1] [--list-inputs]\n",
               msg.c_str());
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        const std::string name = value();
        const auto w = workloadFromName(name);
        if (!w.has_value()) usage("unknown workload " + name);
        o.workload = *w;
        haveWorkload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (a == "--list-inputs") {
        o.listOnly = true;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return o;
}

int run(const Options& o) {
  if (o.listOnly) {
    if (o.workload == Workload::ServeMix) {
      ServeTraffic traffic(o.seed);
      std::printf("# fresh cells for %zu passes\n", traffic.passesLeft());
      std::fputs(listInputs(traffic.hotPool()).c_str(), stdout);
      std::fputs(listInputs(traffic.nextPass()).c_str(), stdout);
    } else {
      std::fputs(listInputs(batchInputs(o.workload, o.seed)).c_str(), stdout);
    }
    return 0;
  }
  fs::create_directories(kOutDir);
  Tally tally;
  SpanLog log;
  Metrics metrics;
  const bool serve = o.workload == Workload::ServeMix;
  if (!o.trace)
    metrics = serve ? runServe(o, tally, nullptr) : runBatch(o, tally);
  else
    metrics = serve ? runServe(o, tally, &log) : runBatchTraced(o, tally, log);
  if (o.trace) {
    const std::string path = std::string(kOutDir) + "/" +
                             workloadName(o.workload) + "-" +
                             std::to_string(o.seed) + ".spans.json";
    tally.gate(log.write(path), "cannot write " + path);
    // A traced run that failed any check reports no per-layer numbers.
    if (!tally.correct()) metrics.clear();
  }
  printResult(o, tally, metrics);
  return tally.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const perfbench::Options o = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
