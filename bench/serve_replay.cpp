// Replay benchmark for the velev_serve daemon: drives a VerifyServer (its
// jobs in velev_serve worker processes, as in the daemon) with a skewed
// stream of >= 1000 requests drawn from a pool of ~56 distinct small cells
// (both strategies, both engines, bug injections, UF-scheme and simulation
// variants), from several client threads at once — the serving path minus
// the socket.
//
// Four checks gate the exit code:
//   * pass 1 measures cold throughput and per-request latency percentiles
//     (most requests hit or coalesce; every distinct cell is verified
//     exactly once);
//   * an equivalence sweep asks the server for every distinct cell again
//     and compares the cached answer against a fresh in-process
//     core::verify() of the same request — verdict and the full canonical
//     counter block must match exactly (a cache that changes answers is
//     worse than no cache);
//   * pass 2 replays the identical stream and must be served >= 90% from
//     the cache;
//   * pass 3 restarts the server (a NEW VerifyServer over the same
//     --cache-dir result store) and replays the stream again: >= 90% must
//     be served warm from the persisted cache, with every answer still
//     identical to the fresh verification of pass 1.
// Every pass also gates on ZERO error responses: a request answered with
// an InternalError (or any error) fails the bench even if throughput and
// hit rates look fine — the retry machinery exists so clients never see
// one. Any failed check exits 1. Results land in BENCH_serve.json: one
// cell per distinct pool request (the standard ReportCell schema) plus
// throughput, latency and hit-rate notes.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/request.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"

namespace velev {
namespace {

// The distinct request pool: small cells only (seconds each at most), no
// wall-clock timeouts — every outcome is deterministic and cacheable.
std::vector<core::VerifyRequest> buildPool() {
  std::vector<core::VerifyRequest> pool;
  const auto add = [&pool](core::VerifyRequest req) {
    if (!req.validate().has_value()) pool.push_back(req);
  };
  const unsigned sizes[] = {2, 3, 4, 5, 6, 8};
  const unsigned widths[] = {1, 2};

  for (unsigned n : sizes)
    for (unsigned k : widths) {
      if (k > n) continue;
      core::VerifyRequest req;
      req.robSize = n;
      req.issueWidth = k;
      add(req);  // rewriting + SAT, the default path

      core::VerifyRequest bug = req;  // a counterexample per cell
      bug.bug = {models::BugKind::ForwardingWrongOperand, 1};
      add(bug);

      if (n <= 4) {  // PE-only blows up steeply; keep it tiny
        core::VerifyRequest pe = req;
        pe.strategy = core::Strategy::PositiveEqualityOnly;
        add(pe);
      }
      if (n <= 3) {  // cross-checked SAT + BDD
        core::VerifyRequest both = req;
        both.engine = core::Engine::Both;
        add(both);
      }
      if (n >= 3) {
        core::VerifyRequest alu = req;
        alu.bug = {models::BugKind::AluWrongOpcode, 1};
        add(alu);
      }
      if (n >= 4) {  // translation-only cells
        core::VerifyRequest skip = req;
        skip.skipSat = true;
        add(skip);
      }
    }
  for (unsigned n : {2u, 3u}) {  // UF-scheme ablation cells
    core::VerifyRequest req;
    req.robSize = n;
    req.issueWidth = 1;
    req.strategy = core::Strategy::PositiveEqualityOnly;
    req.ufScheme = evc::UfScheme::Ackermann;
    add(req);
  }
  for (unsigned n : {3u, 4u}) {  // naive (no cone-of-influence) simulation
    core::VerifyRequest req;
    req.robSize = n;
    req.issueWidth = 2;
    req.coneOfInfluence = false;
    add(req);
  }
  return pool;
}

/// Deterministic skewed draw sequence: an LCG squashed quadratically so
/// low pool indices are hot (a few cells dominate, the tail is rare) —
/// the access pattern a result cache exists for.
std::vector<std::size_t> buildDraws(std::size_t count, std::size_t poolSize) {
  std::vector<std::size_t> draws(count);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < count; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(x >> 33) / 2147483648.0;
    draws[i] = std::min(poolSize - 1,
                        static_cast<std::size_t>(u * u * poolSize));
  }
  return draws;
}

double percentileMs(std::vector<double>& sortedSeconds, double p) {
  if (sortedSeconds.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sortedSeconds.size() - 1));
  return sortedSeconds[idx] * 1000.0;
}

/// One replay pass: `clients` threads round-robin the draw sequence
/// through handleLine, recording per-request wall seconds. Error responses
/// are COUNTED (into *errorResponses), not short-circuited — the zero-error
/// gate wants the total, and a lost request must not hide behind an early
/// return. Returns all latencies (unsorted).
std::vector<double> replay(serve::VerifyServer& server,
                           const std::vector<core::VerifyRequest>& pool,
                           const std::vector<std::size_t>& draws,
                           unsigned clients, std::size_t* errorResponses,
                           bool* ok) {
  std::vector<std::vector<double>> perThread(clients);
  std::vector<std::size_t> perThreadErrors(clients, 0);
  std::vector<std::string> firstError(clients);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < clients; ++t)
    threads.emplace_back([&, t] {
      perThread[t].reserve(draws.size() / clients + 1);
      for (std::size_t i = t; i < draws.size(); i += clients) {
        core::VerifyRequest req = pool[draws[i]];
        req.id = i + 1;
        const Timer timer;
        const std::string line =
            server.handleLine(compactJson(req.toJson()));
        perThread[t].push_back(timer.seconds());
        std::string perr;
        const auto resp = core::VerifyResponse::parse(line, &perr);
        std::string why;
        if (!resp.has_value()) why = "unparsable response: " + perr;
        else if (!resp->error.empty()) why = "server error: " + resp->error;
        else if (resp->id != i + 1) why = "response id mismatch";
        if (!why.empty()) {
          ++perThreadErrors[t];
          if (firstError[t].empty()) firstError[t] = why;
        }
      }
    });
  for (auto& t : threads) t.join();
  std::vector<double> latencies;
  for (const auto& v : perThread)
    latencies.insert(latencies.end(), v.begin(), v.end());
  std::size_t total = 0;
  for (unsigned t = 0; t < clients; ++t) {
    total += perThreadErrors[t];
    if (!firstError[t].empty())
      std::fprintf(stderr, "replay client %u: %zu bad responses (first: %s)\n",
                   t, perThreadErrors[t], firstError[t].c_str());
  }
  if (errorResponses != nullptr) *errorResponses = total;
  if (total > 0) {
    std::fprintf(stderr,
                 "zero-error gate FAILED: %zu of %zu requests answered with "
                 "an error\n",
                 total, draws.size());
    *ok = false;
  }
  return latencies;
}

}  // namespace
}  // namespace velev

int main(int argc, char** argv) {
  using namespace velev;

  const unsigned jobs = bench::parseJobs(argc, argv, 4);
  const unsigned clients = jobs * 2;
  const std::size_t kRequests = bench::fullScale() ? 10000 : 1000;

  const std::vector<core::VerifyRequest> pool = buildPool();
  const std::vector<std::size_t> draws = buildDraws(kRequests, pool.size());
  std::printf("serve_replay: %zu requests over %zu distinct cells, "
              "%u clients, %u jobs\n",
              kRequests, pool.size(), clients, jobs);

  // The result store lives in a scratch directory under the working
  // directory; a fresh run never inherits a previous store.
  const std::string cacheDir = "serve_replay_cache";
  std::filesystem::remove_all(cacheDir);

  serve::ServerOptions opts;
  opts.jobs = jobs;  // worker processes
  opts.workerExecutable = VELEV_SERVE_BIN;
  opts.cacheDir = cacheDir;
  auto server = std::make_unique<serve::VerifyServer>(opts);
  bench::JsonReport json("serve", jobs);
  bool ok = true;

  // ---- pass 1: cold cache --------------------------------------------------
  const Timer pass1Timer;
  std::size_t pass1Errors = 0;
  std::vector<double> latencies =
      replay(*server, pool, draws, clients, &pass1Errors, &ok);
  const double pass1Wall = pass1Timer.seconds();
  std::sort(latencies.begin(), latencies.end());
  const auto cold = server->cacheStats();
  std::printf("pass 1 (cold): %.2f s, %.0f req/s | p50 %.2f ms  p90 %.2f ms "
              "p99 %.2f ms | %llu misses, %llu hits, %llu coalesced\n",
              pass1Wall, static_cast<double>(kRequests) / pass1Wall,
              percentileMs(latencies, 0.5), percentileMs(latencies, 0.9),
              percentileMs(latencies, 0.99),
              static_cast<unsigned long long>(cold.misses),
              static_cast<unsigned long long>(cold.hits),
              static_cast<unsigned long long>(cold.coalesced));

  // ---- equivalence: cached answers vs fresh in-process verification --------
  // The fresh answers are kept: pass 3 re-checks the store-restored cache
  // against them without verifying everything a second time.
  std::vector<core::Verdict> freshVerdicts(pool.size());
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
      freshCounters(pool.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    core::VerifyRequest req = pool[i];
    req.id = 100000 + i;
    std::string perr;
    const auto resp = core::VerifyResponse::parse(
        server->handleLine(compactJson(req.toJson())), &perr);
    if (!resp.has_value() || !resp->error.empty()) {
      std::fprintf(stderr, "equivalence cell %zu: no answer (%s%s)\n", i,
                   perr.c_str(), resp ? resp->error.c_str() : "");
      ++mismatches;
      continue;
    }
    const Timer freshTimer;
    const core::VerifyReport rep = core::verify(req);
    const double freshWall = freshTimer.seconds();
    freshVerdicts[i] = rep.verdict();
    freshCounters[i] = core::reportCounters(rep);
    if (resp->verdict != rep.verdict() ||
        resp->counters != core::reportCounters(rep)) {
      std::fprintf(stderr,
                   "equivalence cell %zu (N=%u k=%u %s): cached %s != "
                   "fresh %s or counters differ\n",
                   i, req.robSize, req.issueWidth,
                   core::strategyName(req.strategy),
                   core::verdictName(resp->verdict),
                   core::verdictName(rep.verdict()));
      ++mismatches;
    }
    const std::string label = std::string(core::strategyName(req.strategy)) +
                              "/" + core::engineName(req.engine) +
                              (req.bug.kind == models::BugKind::None
                                   ? ""
                                   : std::string("/") +
                                         models::bugKindName(req.bug.kind));
    bench::writeStandardBench(json, req.config(), label, rep, freshWall);
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "equivalence FAILED: %zu of %zu cached answers differ from "
                 "fresh verification\n",
                 mismatches, pool.size());
    ok = false;
  } else {
    std::printf("equivalence: all %zu cached answers identical to fresh "
                "in-process verification\n",
                pool.size());
  }

  // ---- pass 2: warm cache — must be served from it -------------------------
  const auto before = server->cacheStats();
  const Timer pass2Timer;
  std::size_t pass2Errors = 0;
  std::vector<double> warmLat =
      replay(*server, pool, draws, clients, &pass2Errors, &ok);
  const double pass2Wall = pass2Timer.seconds();
  std::sort(warmLat.begin(), warmLat.end());
  const auto after = server->cacheStats();
  const double hitRate =
      static_cast<double>(after.hits - before.hits) /
      static_cast<double>(kRequests);
  std::printf("pass 2 (warm): %.2f s, %.0f req/s | p50 %.3f ms  p99 %.3f ms "
              "| hit rate %.1f%%\n",
              pass2Wall, static_cast<double>(kRequests) / pass2Wall,
              percentileMs(warmLat, 0.5), percentileMs(warmLat, 0.99),
              hitRate * 100.0);
  if (hitRate < 0.90) {
    std::fprintf(stderr,
                 "hit-rate FAILED: %.1f%% of the warm replay came from the "
                 "cache (>= 90%% required)\n",
                 hitRate * 100.0);
    ok = false;
  }

  // ---- pass 3: warm RESTART — the result store must carry the warm set -----
  server->stop();
  server.reset();  // the old daemon is gone; only the result store survives
  server = std::make_unique<serve::VerifyServer>(opts);
  const std::uint64_t restored =
      server->collector().counter("store.restored");
  const Timer pass3Timer;
  std::size_t pass3Errors = 0;
  std::vector<double> restartLat =
      replay(*server, pool, draws, clients, &pass3Errors, &ok);
  const double pass3Wall = pass3Timer.seconds();
  std::sort(restartLat.begin(), restartLat.end());
  const auto restart = server->cacheStats();
  const double restartHitRate = static_cast<double>(restart.hits) /
                                static_cast<double>(kRequests);
  std::printf("pass 3 (restart): restored %llu entries | %.2f s, "
              "%.0f req/s | p50 %.3f ms | hit rate %.1f%%\n",
              static_cast<unsigned long long>(restored), pass3Wall,
              static_cast<double>(kRequests) / pass3Wall,
              percentileMs(restartLat, 0.5), restartHitRate * 100.0);
  if (restartHitRate < 0.90) {
    std::fprintf(stderr,
                 "restart hit-rate FAILED: %.1f%% of the post-restart replay "
                 "came from the persisted cache (>= 90%% required)\n",
                 restartHitRate * 100.0);
    ok = false;
  }
  // Restored answers must still equal the fresh verifications of pass 1.
  std::size_t restartMismatches = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    core::VerifyRequest req = pool[i];
    req.id = 200000 + i;
    std::string perr;
    const auto resp = core::VerifyResponse::parse(
        server->handleLine(compactJson(req.toJson())), &perr);
    if (!resp.has_value() || !resp->error.empty() ||
        resp->verdict != freshVerdicts[i] ||
        resp->counters != freshCounters[i]) {
      std::fprintf(stderr,
                   "restart equivalence cell %zu (N=%u k=%u %s): restored "
                   "answer differs from pass-1 fresh verification\n",
                   i, req.robSize, req.issueWidth,
                   core::strategyName(req.strategy));
      ++restartMismatches;
    }
  }
  if (restartMismatches > 0) {
    std::fprintf(stderr,
                 "restart equivalence FAILED: %zu of %zu restored answers "
                 "differ\n",
                 restartMismatches, pool.size());
    ok = false;
  } else {
    std::printf("restart equivalence: all %zu store-restored answers "
                "identical to fresh verification\n",
                pool.size());
  }

  json.note("requests", static_cast<double>(kRequests));
  json.note("distinct_cells", static_cast<double>(pool.size()));
  json.note("clients", clients);
  json.note("pass1_wall_seconds", pass1Wall);
  json.note("pass1_requests_per_second",
            static_cast<double>(kRequests) / pass1Wall);
  json.note("pass1_p50_ms", percentileMs(latencies, 0.5));
  json.note("pass1_p90_ms", percentileMs(latencies, 0.9));
  json.note("pass1_p99_ms", percentileMs(latencies, 0.99));
  json.note("pass2_wall_seconds", pass2Wall);
  json.note("pass2_requests_per_second",
            static_cast<double>(kRequests) / pass2Wall);
  json.note("pass2_p50_ms", percentileMs(warmLat, 0.5));
  json.note("pass2_p99_ms", percentileMs(warmLat, 0.99));
  json.note("pass2_hit_rate", hitRate);
  json.note("pass3_wall_seconds", pass3Wall);
  json.note("pass3_hit_rate", restartHitRate);
  json.note("pass3_restored_entries", static_cast<double>(restored));
  json.note("error_responses",
            static_cast<double>(pass1Errors + pass2Errors + pass3Errors));
  json.note("cache_entries", static_cast<double>(after.entries));
  json.note("cache_evictions", static_cast<double>(after.evictions));
  json.note("equivalence_mismatches",
            static_cast<double>(mismatches + restartMismatches));
  json.write();

  return ok ? 0 : 1;
}
