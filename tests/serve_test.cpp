// Tests for the velev_serve surface: the schema-versioned
// VerifyRequest/VerifyResponse JSON round trip (strict parsing — unknown
// fields, bad versions, unknown enum names and numbers a field cannot hold
// are rejected), the content-addressed ResultCache (hit/owner/joined,
// coalescing, LRU, the uncacheable-Timeout policy), the result store that
// persists it (and the grid's results), the VerifyServer driven through
// handleLine (caching, coalescing under concurrency, budget verdicts and
// their exit codes, malformed-line handling, control ops), the socket
// client against a live server, and the worker pool every job runs in
// (fault injection, descriptor hygiene) — cached answers must be identical
// to a fresh in-process verification.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/grid_runner.hpp"
#include "core/request.hpp"
#include "core/result_store.hpp"
#include "sat/memo.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"

namespace velev {
namespace {

core::VerifyRequest smallRequest(std::uint64_t id = 1) {
  core::VerifyRequest req;
  req.id = id;
  req.robSize = 3;
  req.issueWidth = 2;
  return req;
}

/// Options for a server whose jobs run in velev_serve worker processes —
/// the only way a VerifyServer runs a job.
serve::ServerOptions serverOptions() {
  serve::ServerOptions opts;
  opts.workerExecutable = VELEV_SERVE_BIN;
  return opts;
}

/// Fresh (empty) scratch directory under the system temp dir.
std::string freshDir(const char* name) {
  const auto p = std::filesystem::temp_directory_path() /
                 (std::string("velev_serve_test_") + name + "_" +
                  std::to_string(::getpid()));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

/// Poll `pred` (1 ms cadence) until true or the deadline passes.
bool waitFor(const std::function<bool()>& pred, double seconds = 20) {
  Timer t;
  while (t.seconds() < seconds) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// PIDs of our direct children running in `--worker` mode (Linux /proc).
std::vector<pid_t> workerPids() {
  std::vector<pid_t> pids;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.empty() ||
        name.find_first_not_of("0123456789") != std::string::npos)
      continue;
    std::ifstream cmdline(it->path() / "cmdline");
    std::string args((std::istreambuf_iterator<char>(cmdline)),
                     std::istreambuf_iterator<char>());
    if (args.find("--worker") == std::string::npos) continue;
    std::ifstream stat(it->path() / "stat");
    pid_t pid = 0, ppid = 0;
    std::string comm, state;
    stat >> pid >> comm >> state >> ppid;
    if (stat && ppid == ::getpid()) pids.push_back(pid);
  }
  return pids;
}

// ---- request schema ---------------------------------------------------------

TEST(ServeRequest, JsonRoundTripPreservesEveryField) {
  core::VerifyRequest req;
  req.id = 42;
  req.robSize = 16;
  req.issueWidth = 4;
  req.bug = {models::BugKind::ForwardingWrongOperand, 7};
  req.strategy = core::Strategy::PositiveEqualityOnly;
  req.engine = core::Engine::Both;
  req.ufScheme = evc::UfScheme::Ackermann;
  req.skipSat = true;
  req.coneOfInfluence = false;
  req.inprocess = false;
  req.timeoutSeconds = 12.5;
  req.memoryBudgetBytes = 1 << 20;
  req.satConflictBudget = 9999;

  std::string err;
  const auto back = core::VerifyRequest::parse(req.toJson(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, req);
  EXPECT_EQ(back->id, 42u);
  EXPECT_EQ(back->bug.kind, models::BugKind::ForwardingWrongOperand);
  EXPECT_EQ(back->bug.index, 7u);
  EXPECT_EQ(back->satConflictBudget, 9999);
}

TEST(ServeRequest, DefaultsRoundTripAndFieldsAreOptional) {
  // All fields except "version" are optional: the minimal object is the
  // default request.
  std::string err;
  const auto req = core::VerifyRequest::parse("{\"version\": 1}", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(*req, core::VerifyRequest{});
}

TEST(ServeRequest, RejectsUnknownField) {
  std::string err;
  const auto req = core::VerifyRequest::parse(
      "{\"version\": 1, \"rob_size\": 2, \"bogus_knob\": true}", &err);
  EXPECT_FALSE(req.has_value());
  EXPECT_NE(err.find("bogus_knob"), std::string::npos) << err;
}

TEST(ServeRequest, RejectsMissingOrMismatchedVersion) {
  std::string err;
  EXPECT_FALSE(core::VerifyRequest::parse("{\"rob_size\": 2}", &err)
                   .has_value());
  EXPECT_NE(err.find("version"), std::string::npos) << err;
  EXPECT_FALSE(
      core::VerifyRequest::parse("{\"version\": 999}", &err).has_value());
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(ServeRequest, RejectsUnknownEnumNames) {
  std::string err;
  EXPECT_FALSE(core::VerifyRequest::parse(
                   "{\"version\": 1, \"strategy\": \"telepathy\"}", &err)
                   .has_value());
  EXPECT_FALSE(core::VerifyRequest::parse(
                   "{\"version\": 1, \"engine\": \"abacus\"}", &err)
                   .has_value());
  EXPECT_FALSE(core::VerifyRequest::parse(
                   "{\"version\": 1, \"bug_kind\": \"gremlin\"}", &err)
                   .has_value());
}

TEST(ServeRequest, ValidateRejectsOutOfRangeValues) {
  core::VerifyRequest req;
  req.robSize = 0;
  EXPECT_TRUE(req.validate().has_value());
  req = {};
  req.robSize = 2;
  req.issueWidth = 4;  // width > size
  EXPECT_TRUE(req.validate().has_value());
  req = {};
  req.bug = {models::BugKind::ForwardingWrongOperand, 100000};
  EXPECT_TRUE(req.validate().has_value());
  EXPECT_FALSE(smallRequest().validate().has_value());
  // The ROB size is bounded before anything is keyed or built.
  req = {};
  req.robSize = core::kMaxRobSize + 1;  // 4097
  EXPECT_TRUE(req.validate().has_value());
  req.robSize = core::kMaxRobSize;  // 4096
  EXPECT_FALSE(req.validate().has_value());

  // The wire parser refuses an integer its field cannot hold exactly,
  // before any cast: no wrap-around onto another cell's cache key, no
  // truncated fraction, no out-of-range (undefined) float-to-int cast.
  for (const char* text :
       {"{\"version\": 1, \"rob_size\": 4294967298}",
        "{\"version\": 1, \"rob_size\": 2.7}",
        "{\"version\": 1, \"rob_size\": 1e30}",
        "{\"version\": 1, \"rob_size\": 8, \"issue_width\": 4294967297}",
        "{\"version\": 1, \"bug_kind\": \"fwd\", \"bug_index\": 4294967298}",
        "{\"version\": 1, \"id\": -1}",
        "{\"version\": 1, \"memory_budget_bytes\": 1.5}",
        "{\"version\": 1, \"memory_budget_bytes\": 18446744073709551616}",
        "{\"version\": 1, \"sat_conflict_budget\": -1e30}",
        "{\"version\": 1e30}"}) {
    std::string err;
    EXPECT_FALSE(core::VerifyRequest::parse(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
  // The widest value the field can hold passes the range check and then
  // fails the bound; the bound itself parses.
  std::string err;
  EXPECT_FALSE(core::VerifyRequest::parse(
                   "{\"version\": 1, \"rob_size\": 4294967295}", &err)
                   .has_value());
  EXPECT_EQ(err, "need 1 <= rob_size <= 4096");
  const auto widest = core::VerifyRequest::parse(
      "{\"version\": 1, \"rob_size\": 4096, \"sat_conflict_budget\": -1}",
      &err);
  ASSERT_TRUE(widest.has_value()) << err;
  EXPECT_EQ(widest->robSize, 4096u);
}

TEST(ServeRequest, CacheKeyIgnoresIdButTracksSemantics) {
  core::VerifyRequest a = smallRequest(1);
  core::VerifyRequest b = smallRequest(2);
  EXPECT_EQ(a.cacheKey(), b.cacheKey());  // id is not content
  b.robSize = 4;
  EXPECT_NE(a.cacheKey(), b.cacheKey());
  core::VerifyRequest c = smallRequest(1);
  c.inprocess = false;
  EXPECT_NE(a.cacheKey(), c.cacheKey());
  EXPECT_EQ(a.cacheKeyHex().size(), 16u);
}

// ---- response schema --------------------------------------------------------

TEST(ServeResponse, JsonRoundTrip) {
  core::VerifyResponse resp;
  resp.id = 7;
  resp.cached = true;
  resp.cacheKey = "00deadbeef00cafe";
  resp.verdict = core::Verdict::RewriteMismatch;
  resp.reason = "slice 3 does not conform";
  resp.failedSlice = 3;
  resp.exitCode = 1;
  resp.wallSeconds = 0.25;
  resp.seconds.sim = 0.1;
  resp.seconds.sat = 0.05;
  resp.peakArenaBytes = 12345;
  resp.rssHighWaterKb = 6789;
  resp.counters = {{"sat.conflicts", 11}, {"tlsim.cycles", 5}};

  std::string err;
  const auto back = core::VerifyResponse::parse(resp.toJson(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->id, 7u);
  EXPECT_TRUE(back->cached);
  EXPECT_EQ(back->cacheKey, "00deadbeef00cafe");
  EXPECT_EQ(back->verdict, core::Verdict::RewriteMismatch);
  EXPECT_EQ(back->failedSlice, 3u);
  EXPECT_EQ(back->exitCode, 1);
  EXPECT_DOUBLE_EQ(back->seconds.sim, 0.1);
  EXPECT_EQ(back->counters, resp.counters);

  // A damaged answer is refused, not read with wrong numbers: counters are
  // non-negative integers, stage_seconds members are numbers named after a
  // stage, and integer fields must fit their type exactly.
  const std::string head =
      "{\"version\": 1, \"cache_key\": \"00deadbeef00cafe\", ";
  for (const char* tail :
       {"\"counters\": {\"sat.conflicts\": \"7\"}}",
        "\"counters\": {\"sat.conflicts\": -5}}",
        "\"counters\": {\"sat.conflicts\": 2.5}}",
        "\"counters\": {\"sat.conflicts\": 1e30}}",
        "\"failed_slice\": 4294967298}", "\"exit_code\": 1e30}",
        "\"peak_arena_bytes\": -1}", "\"stage_seconds\": {\"sat\": \"0.5\"}}",
        "\"stage_seconds\": {\"warp\": 0.5}}"}) {
    EXPECT_FALSE(core::VerifyResponse::parse(head + tail, &err).has_value())
        << tail;
    EXPECT_FALSE(err.empty()) << tail;
  }
}

TEST(ServeResponse, ErrorResponseRoundTrip) {
  const core::VerifyResponse err = core::VerifyResponse::makeError(9, "nope");
  EXPECT_EQ(err.exitCode, 2);
  std::string perr;
  const auto back = core::VerifyResponse::parse(err.toJson(), &perr);
  ASSERT_TRUE(back.has_value()) << perr;
  EXPECT_EQ(back->id, 9u);
  EXPECT_EQ(back->error, "nope");
  EXPECT_EQ(back->exitCode, 2);
}

TEST(ServeResponse, CompactJsonIsOneWireLine) {
  const core::VerifyRequest req = smallRequest();
  const std::string wire = compactJson(req.toJson());
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  std::string err;
  const auto back = core::VerifyRequest::parse(wire, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, req);
}

// ---- result cache -----------------------------------------------------------

TEST(ServeCache, OwnerFulfillThenHit) {
  serve::ResultCache cache(8);
  core::VerifyResponse out;
  EXPECT_EQ(cache.claim(1, &out, nullptr), serve::ResultCache::Claim::Owner);

  core::VerifyResponse resp;
  resp.verdict = core::Verdict::Correct;
  cache.fulfill(1, resp, /*cacheable=*/true);

  EXPECT_EQ(cache.claim(1, &out, nullptr), serve::ResultCache::Claim::Hit);
  EXPECT_EQ(out.verdict, core::Verdict::Correct);
  EXPECT_TRUE(out.cached);  // hits are marked as cache copies

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(ServeCache, JoinersCoalesceOntoOneOwner) {
  serve::ResultCache cache(8);
  core::VerifyResponse out;
  ASSERT_EQ(cache.claim(5, &out, nullptr), serve::ResultCache::Claim::Owner);

  std::vector<core::VerifyResponse> delivered;
  for (int i = 0; i < 3; ++i) {
    const auto claim = cache.claim(
        5, &out, [&](const core::VerifyResponse& r) { delivered.push_back(r); });
    EXPECT_EQ(claim, serve::ResultCache::Claim::Joined);
  }
  EXPECT_TRUE(delivered.empty());  // nothing fires before fulfill

  core::VerifyResponse resp;
  resp.verdict = core::Verdict::Correct;
  cache.fulfill(5, resp, true);

  ASSERT_EQ(delivered.size(), 3u);
  for (const auto& r : delivered) {
    EXPECT_EQ(r.verdict, core::Verdict::Correct);
    EXPECT_TRUE(r.cached);  // joiners' answers came from a job they didn't run
  }
  EXPECT_EQ(cache.stats().coalesced, 3u);
}

TEST(ServeCache, UncacheableFulfillWakesWaitersButStoresNothing) {
  serve::ResultCache cache(8);
  core::VerifyResponse out;
  ASSERT_EQ(cache.claim(9, &out, nullptr), serve::ResultCache::Claim::Owner);
  int fired = 0;
  ASSERT_EQ(cache.claim(9, &out,
                        [&](const core::VerifyResponse&) { ++fired; }),
            serve::ResultCache::Claim::Joined);

  core::VerifyResponse resp;
  resp.verdict = core::Verdict::Timeout;  // the daemon's uncacheable verdict
  cache.fulfill(9, resp, /*cacheable=*/false);

  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cache.stats().entries, 0u);  // no entry left behind
  // The next claim starts a fresh computation.
  EXPECT_EQ(cache.claim(9, &out, nullptr), serve::ResultCache::Claim::Owner);
  cache.abandon(9, resp);
}

TEST(ServeCache, LruEvictsOldestReadyEntry) {
  serve::ResultCache cache(2);
  core::VerifyResponse out, resp;
  resp.verdict = core::Verdict::Correct;
  for (std::uint64_t key : {1, 2, 3}) {
    ASSERT_EQ(cache.claim(key, &out, nullptr),
              serve::ResultCache::Claim::Owner);
    cache.fulfill(key, resp, true);
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  // Key 1 was least recently used; 2 and 3 survive.
  EXPECT_EQ(cache.claim(1, &out, nullptr), serve::ResultCache::Claim::Owner);
  cache.abandon(1, resp);
  EXPECT_EQ(cache.claim(2, &out, nullptr), serve::ResultCache::Claim::Hit);
  EXPECT_EQ(cache.claim(3, &out, nullptr), serve::ResultCache::Claim::Hit);
}

// ---- server, driven through handleLine --------------------------------------

core::VerifyResponse handle(serve::VerifyServer& server,
                            const core::VerifyRequest& req) {
  std::string err;
  const auto resp =
      core::VerifyResponse::parse(server.handleLine(compactJson(req.toJson())),
                                  &err);
  EXPECT_TRUE(resp.has_value()) << err;
  return resp.value_or(core::VerifyResponse{});
}

TEST(ServeServer, BadNumberFlagsExitTwoBeforeAnyWorkerStarts) {
  // No listener is given either, so a build that skipped the number check
  // still exits 2 (on the missing listener) before it sizes its pool.
  for (const char* flags :
       {"--jobs -1", "--jobs 257", "--jobs 2x", "--cache 0", "--port 70000",
        "--max-timeout 0", "--max-mem -5", "--max-queue 1.5"}) {
    const std::string cmd =
        std::string(VELEV_SERVE_BIN) + " " + flags + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << cmd;
    std::string output;
    char buf[512];
    while (fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd << "\n" << output;
    EXPECT_NE(output.find(" expects a number in "), std::string::npos)
        << cmd << "\n" << output;
  }
}

TEST(ServeServer, VerifiesCachesAndAnswersIdentically) {
  serve::VerifyServer server(serverOptions());
  const core::VerifyRequest req = smallRequest();

  const core::VerifyResponse fresh = handle(server, req);
  EXPECT_TRUE(fresh.error.empty()) << fresh.error;
  EXPECT_FALSE(fresh.cached);
  EXPECT_EQ(fresh.verdict, core::Verdict::Correct);
  EXPECT_EQ(fresh.exitCode, 0);
  EXPECT_EQ(fresh.cacheKey, req.cacheKeyHex());
  EXPECT_FALSE(fresh.counters.empty());

  const core::VerifyResponse hit = handle(server, req);
  EXPECT_TRUE(hit.cached);
  // The cached answer is the SAME result: verdict and the full canonical
  // counter block byte-identical to the fresh verification.
  EXPECT_EQ(hit.verdict, fresh.verdict);
  EXPECT_EQ(hit.counters, fresh.counters);
  EXPECT_EQ(hit.peakArenaBytes, fresh.peakArenaBytes);

  // And both match a fresh in-process core::verify of the same request.
  const core::VerifyReport rep = core::verify(req);
  EXPECT_EQ(fresh.verdict, rep.verdict());
  EXPECT_EQ(fresh.counters, core::reportCounters(rep));

  const auto cs = server.cacheStats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits, 1u);
}

TEST(ServeServer, ResponseIdEchoesRequestId) {
  serve::VerifyServer server(serverOptions());
  EXPECT_EQ(handle(server, smallRequest(11)).id, 11u);
  EXPECT_EQ(handle(server, smallRequest(22)).id, 22u);  // cache hit, new id
}

TEST(ServeServer, ConcurrentIdenticalRequestsShareOneJob) {
  serve::ServerOptions opts = serverOptions();
  opts.jobs = 4;
  serve::VerifyServer server(opts);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<core::VerifyResponse> resps(kClients);
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back(
        [&, i] { resps[i] = handle(server, smallRequest(i + 1)); });
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(resps[i].error.empty()) << resps[i].error;
    EXPECT_EQ(resps[i].verdict, core::Verdict::Correct);
    EXPECT_EQ(resps[i].id, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(resps[i].counters, resps[0].counters);
  }
  // All clients asked for one cell: exactly one miss ran a job; everyone
  // else coalesced onto it or hit the finished entry.
  const auto cs = server.cacheStats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits + cs.coalesced, kClients - 1u);
}

TEST(ServeServer, BudgetVerdictsCarryExitCodes) {
  serve::VerifyServer server(serverOptions());

  core::VerifyRequest timeout = smallRequest();
  timeout.strategy = core::Strategy::PositiveEqualityOnly;
  timeout.timeoutSeconds = 1e-9;
  const core::VerifyResponse t = handle(server, timeout);
  EXPECT_EQ(t.verdict, core::Verdict::Timeout);
  EXPECT_EQ(t.exitCode, 4);
  EXPECT_FALSE(t.reason.empty());

  // Wall-clock timeouts are nondeterministic and must NOT be cached: the
  // identical request runs again, fresh.
  const core::VerifyResponse t2 = handle(server, timeout);
  EXPECT_FALSE(t2.cached);
  EXPECT_EQ(server.cacheStats().entries, 0u);

  // MemOut trips on deterministic logical-arena accounting, so it IS
  // cacheable.
  core::VerifyRequest memout = smallRequest();
  memout.strategy = core::Strategy::PositiveEqualityOnly;
  memout.memoryBudgetBytes = 1000;
  const core::VerifyResponse m = handle(server, memout);
  EXPECT_EQ(m.verdict, core::Verdict::MemOut);
  EXPECT_EQ(m.exitCode, 4);
  const core::VerifyResponse m2 = handle(server, memout);
  EXPECT_TRUE(m2.cached);
  EXPECT_EQ(m2.verdict, core::Verdict::MemOut);
}

TEST(ServeServer, AdmissionCapsClampRequestBudgets) {
  serve::ServerOptions opts = serverOptions();
  opts.maxTimeoutSeconds = 1e-9;  // every admitted request gets this cap
  serve::VerifyServer server(opts);
  core::VerifyRequest req = smallRequest();
  req.strategy = core::Strategy::PositiveEqualityOnly;
  req.timeoutSeconds = 0;  // asks for unlimited; the cap clamps it
  const core::VerifyResponse resp = handle(server, req);
  EXPECT_EQ(resp.verdict, core::Verdict::Timeout);
  EXPECT_EQ(resp.exitCode, 4);
}

TEST(ServeServer, MalformedAndInvalidLinesGetErrorResponses) {
  serve::VerifyServer server(serverOptions());

  std::string err;
  auto resp = core::VerifyResponse::parse(server.handleLine("not json"), &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_FALSE(resp->error.empty());
  EXPECT_EQ(resp->exitCode, 2);

  // The id is salvaged from an otherwise-invalid request so the client can
  // still match the error to its request.
  resp = core::VerifyResponse::parse(
      server.handleLine(
          "{\"version\": 1, \"id\": 77, \"bogus_field\": true}"),
      &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_EQ(resp->id, 77u);
  EXPECT_FALSE(resp->error.empty());

  // Semantic validation failures answer the same way.
  resp = core::VerifyResponse::parse(
      server.handleLine("{\"version\": 1, \"id\": 5, \"rob_size\": 0}"),
      &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_EQ(resp->id, 5u);
  EXPECT_FALSE(resp->error.empty());
  EXPECT_EQ(resp->exitCode, 2);

  // An id no uint64 can hold is not salvaged (nor cast): the error goes to
  // id 0.
  resp = core::VerifyResponse::parse(
      server.handleLine("{\"version\": 1, \"id\": 1e30}"), &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_EQ(resp->id, 0u);
  EXPECT_FALSE(resp->error.empty());
}

TEST(ServeServer, ControlOpsAnswerInline) {
  serve::VerifyServer server(serverOptions());
  std::string err;

  const auto ping = parseJson(server.handleLine("{\"op\": \"ping\"}"), &err);
  ASSERT_TRUE(ping.has_value()) << err;
  ASSERT_NE(ping->find("ok"), nullptr);
  EXPECT_TRUE(ping->find("ok")->boolean);

  handle(server, smallRequest());
  const auto stats = parseJson(server.handleLine("{\"op\": \"stats\"}"), &err);
  ASSERT_TRUE(stats.has_value()) << err;
  const JsonValue* counters = stats->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->uintAt("serve.requests"), 1u);
  EXPECT_EQ(counters->uintAt("serve.cache.misses"), 1u);

  const auto bad = parseJson(server.handleLine("{\"op\": \"dance\"}"), &err);
  ASSERT_TRUE(bad.has_value()) << err;
  ASSERT_NE(bad->find("ok"), nullptr);
  EXPECT_FALSE(bad->find("ok")->boolean);
}

// ---- socket client against a live server ------------------------------------

TEST(ServeSocket, ClientRoundTripMatchesInProcessVerify) {
  const std::string path =
      "/tmp/velev_serve_test_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts = serverOptions();
  opts.unixSocketPath = path;
  opts.jobs = 2;
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  {
    auto client = serve::Client::connect("unix:" + path, &err);
    ASSERT_TRUE(client.has_value()) << err;

    core::VerifyRequest req = smallRequest(31);
    req.bug = {models::BugKind::ForwardingWrongOperand, 2};
    const auto resp = client->roundTrip(req, &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->id, 31u);
    EXPECT_FALSE(resp->cached);
    EXPECT_EQ(resp->verdict, core::Verdict::RewriteMismatch);
    EXPECT_EQ(resp->failedSlice, 2u);
    EXPECT_EQ(resp->exitCode, 1);

    // Same request again: a cache hit over the wire, same content as a
    // fresh in-process verification.
    const auto hit = client->roundTrip(req, &err);
    ASSERT_TRUE(hit.has_value()) << err;
    EXPECT_TRUE(hit->cached);
    EXPECT_EQ(hit->verdict, resp->verdict);
    EXPECT_EQ(hit->counters, resp->counters);

    const core::VerifyReport rep = core::verify(req);
    EXPECT_EQ(hit->verdict, rep.verdict());
    EXPECT_EQ(hit->counters, core::reportCounters(rep));
  }
  server.stop();
}

TEST(ServeSocket, EphemeralTcpPortServesRequests) {
  serve::ServerOptions opts = serverOptions();
  opts.tcpPort = 0;  // kernel-assigned loopback port
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_GT(server.tcpPort(), 0);

  {
    auto client = serve::Client::connect(
        "127.0.0.1:" + std::to_string(server.tcpPort()), &err);
    ASSERT_TRUE(client.has_value()) << err;
    const auto resp = client->roundTrip(smallRequest(3), &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->verdict, core::Verdict::Correct);
    EXPECT_EQ(resp->id, 3u);
  }
  server.stop();
}

TEST(ServeSocket, OverlongLineGetsOneErrorThenEof) {
  // A client that never sends '\n' must not grow the server's buffer: past
  // the 1 MiB line cap it gets one error line and the connection closes.
  serve::ServerOptions opts = serverOptions();
  opts.tcpPort = 0;
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.tcpPort()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // Sending stops at the first failure (the server shut the connection);
  // the send timeout bounds a send the server no longer reads.
  const timeval sendTimeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &sendTimeout, sizeof sendTimeout);
  std::thread sender([fd] {
    const std::string chunk(64 * 1024, 'x');
    for (int i = 0; i < 32; ++i)  // 2 MiB, no newline
      if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) <= 0) return;
  });

  std::string received;
  bool eof = false;
  const Timer t;
  while (!eof && t.seconds() < 10) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0)
      eof = true;
    else
      received.append(buf, static_cast<std::size_t>(n));
  }
  sender.join();
  ::close(fd);
  server.stop();

  EXPECT_TRUE(eof) << "no EOF after " << t.seconds() << " s";
  ASSERT_EQ(std::count(received.begin(), received.end(), '\n'), 1)
      << received;
  const auto resp = core::VerifyResponse::parse(received, &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_FALSE(resp->error.empty());
  EXPECT_EQ(resp->exitCode, 2);
}

/// Open descriptors of this process (the listing's own fd included, so two
/// counts compare).
std::size_t openFds() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// A plain unix-socket connection to `path` (no Client framing); -1 on
/// failure.
int connectUnixFd(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Read from `fd` until EOF or `seconds` pass; false on timeout.
bool readToEof(int fd, std::string* received, double seconds = 5) {
  const Timer t;
  while (t.seconds() < seconds) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return true;
    received->append(buf, static_cast<std::size_t>(n));
  }
  return false;
}

TEST(ServeSocket, ClosedConnectionsReleaseTheirDescriptors) {
  const std::string path =
      "/tmp/velev_serve_fds_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts = serverOptions();
  opts.unixSocketPath = path;
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const std::size_t before = openFds();
  for (int i = 0; i < 300; ++i) {
    auto client = serve::Client::connect("unix:" + path, &err);
    ASSERT_TRUE(client.has_value()) << "connection " << i << ": " << err;
    const auto pong = client->roundTripLine(R"({"op": "ping"})", &err);
    ASSERT_TRUE(pong.has_value()) << "connection " << i << ": " << err;
  }
  EXPECT_TRUE(waitFor([&] { return openFds() <= before; }, 2))
      << openFds() - before << " descriptors still open";
  EXPECT_EQ(server.collector().counter("serve.connections"), 300u);
  server.stop();
}

TEST(ServeSocket, ConnectionPastTheCapGetsOneErrorThenEof) {
  const std::string path =
      "/tmp/velev_serve_cap_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts = serverOptions();
  opts.unixSocketPath = path;
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // Fill the cap; a ping answered proves each connection was accepted.
  std::vector<serve::Client> clients;
  for (std::size_t i = 0; i < serve::VerifyServer::kMaxConnections; ++i) {
    auto client = serve::Client::connect("unix:" + path, &err);
    ASSERT_TRUE(client.has_value()) << err;
    ASSERT_TRUE(client->roundTripLine(R"({"op": "ping"})", &err).has_value())
        << "connection " << i << ": " << err;
    clients.push_back(std::move(*client));
  }

  // The connection past the cap is answered without asking anything.
  const int fd = connectUnixFd(path);
  ASSERT_GE(fd, 0);
  std::string received;
  EXPECT_TRUE(readToEof(fd, &received)) << "no EOF";
  ::close(fd);
  ASSERT_EQ(std::count(received.begin(), received.end(), '\n'), 1)
      << received;
  const auto resp = core::VerifyResponse::parse(received, &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_NE(resp->error.find("too many connections"), std::string::npos)
      << resp->error;
  EXPECT_EQ(resp->exitCode, 2);
  EXPECT_GE(server.collector().counter("serve.connections.rejected"), 1u);

  // The cap counts open connections: once one closes, a new one is served.
  clients.pop_back();
  EXPECT_TRUE(waitFor(
      [&] {
        auto again = serve::Client::connect("unix:" + path);
        return again.has_value() &&
               again->roundTripLine(R"({"op": "ping"})").has_value();
      },
      2));
  clients.clear();
  server.stop();
}

TEST(ServeSocket, ClientGoneBeforeItsAnswerStillReleasesItsDescriptor) {
  // A client pipelines a slow request and hangs up at once; the answer has
  // nowhere to go, and the connection's fd must still be closed once the
  // job is done.
  const std::string path =
      "/tmp/velev_serve_gone_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts = serverOptions();
  opts.unixSocketPath = path;
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const std::size_t before = openFds();
  core::VerifyRequest slow = smallRequest(7);
  slow.robSize = 3;
  slow.issueWidth = 3;
  slow.strategy = core::Strategy::PositiveEqualityOnly;  // ~0.5 s
  {
    const int fd = connectUnixFd(path);
    ASSERT_GE(fd, 0);
    const std::string line = compactJson(slow.toJson()) + "\n";
    ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(line.size()));
    ASSERT_TRUE(waitFor(
        [&] { return server.collector().counter("serve.jobs") >= 1; }));
    ::close(fd);
  }
  ASSERT_TRUE(waitFor(
      [&] {
        const serve::ResultCache::Stats cs = server.cacheStats();
        return cs.misses == 1 && cs.inflight == 0;
      },
      60));
  EXPECT_TRUE(waitFor([&] { return openFds() <= before; }, 2))
      << openFds() - before << " descriptors still open";
  server.stop();
}

// ---- per-worker solve memo --------------------------------------------------

TEST(ServeMemo, ReplaysStoredResultAndStats) {
  prop::Cnf cnf;
  cnf.numVars = 2;
  cnf.addClause({1, 2});
  cnf.addClause({-1});
  const std::uint64_t k =
      sat::SolveMemo::key(cnf, sat::InprocessOptions{}, -1);

  sat::SolveMemo memo;
  EXPECT_FALSE(memo.find(k).has_value());

  sat::SolveMemo::Entry e;
  e.result = sat::Result::Sat;
  e.stats.decisions = 7;
  e.stats.conflicts = 3;
  e.inprocessed = true;
  memo.store(k, e);

  const std::optional<sat::SolveMemo::Entry> hit = memo.find(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result, sat::Result::Sat);
  EXPECT_EQ(hit->stats.decisions, 7u);
  EXPECT_EQ(hit->stats.conflicts, 3u);
  EXPECT_TRUE(hit->inprocessed);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(ServeMemo, RefusesUnknownAndEvictsFifo) {
  sat::SolveMemo memo(2);

  // Unknown results (budget-tripped solves) are never memoized.
  memo.store(1, {});
  EXPECT_FALSE(memo.find(1).has_value());
  EXPECT_EQ(memo.size(), 0u);

  sat::SolveMemo::Entry e;
  e.result = sat::Result::Unsat;
  memo.store(1, e);
  memo.store(2, e);
  memo.store(3, e);  // FIFO: evicts key 1
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_FALSE(memo.find(1).has_value());
  EXPECT_TRUE(memo.find(2).has_value());
  EXPECT_TRUE(memo.find(3).has_value());
}

TEST(ServeMemo, KeyTracksCnfOptionsAndBudget) {
  prop::Cnf cnf;
  cnf.numVars = 2;
  cnf.addClause({1, -2});
  const std::uint64_t base =
      sat::SolveMemo::key(cnf, sat::InprocessOptions{}, -1);

  prop::Cnf bigger = cnf;
  bigger.addClause({2});
  EXPECT_NE(sat::SolveMemo::key(bigger, sat::InprocessOptions{}, -1), base);

  sat::InprocessOptions off;
  off.enabled = false;
  EXPECT_NE(sat::SolveMemo::key(cnf, off, -1), base);

  EXPECT_NE(sat::SolveMemo::key(cnf, sat::InprocessOptions{}, 100), base);
}

TEST(ServeMemo, VerifyWithMemoMatchesFreshVerify) {
  // The batching lane's correctness hinges on this: a memo-served solve is
  // bit-identical to a fresh one — verdict AND the canonical counters.
  const core::VerifyRequest req = smallRequest();
  const core::VerifyReport plain = core::verify(req);

  sat::SolveMemo memo;
  const core::VerifyReport first = core::verify(req, &memo);
  const core::VerifyReport second = core::verify(req, &memo);
  EXPECT_GE(memo.hits(), 1u);

  EXPECT_EQ(first.verdict(), plain.verdict());
  EXPECT_EQ(core::reportCounters(first), core::reportCounters(plain));
  EXPECT_EQ(second.verdict(), plain.verdict());
  EXPECT_EQ(core::reportCounters(second), core::reportCounters(plain));
}

TEST(ServeMemo, MemoryBudgetTurnsTheMemoOff) {
  // A replay skips the SAT stage's arena charge and the memo key has no
  // memory term, so under a memory budget a replay could say `correct`
  // where a fresh run says `memout`. Budget: one byte below 256x16's
  // unbudgeted arena peak, so a fresh 256x16 trips; 16x16 shares its
  // rewritten CNF (Table 5) and fits.
  core::VerifyRequest small = smallRequest();
  small.robSize = 16;
  small.issueWidth = 16;
  core::VerifyRequest big = small;
  big.robSize = 256;
  const std::size_t peak = core::verify(big).outcome.peakArenaBytes;
  small.memoryBudgetBytes = big.memoryBudgetBytes = peak - 1;

  // The fresh run trips in the SAT stage, after the translation: exactly
  // where a memo replay would have been served.
  const core::VerifyReport fresh = core::verify(big);
  ASSERT_EQ(fresh.verdict(), core::Verdict::MemOut);
  ASSERT_GT(fresh.evcStats.cnfClauses, 0u);
  ASSERT_GT(fresh.outcome.seconds.sat, 0.0);

  sat::SolveMemo memo;
  EXPECT_EQ(core::verify(small, &memo).verdict(), core::Verdict::Correct);
  const core::VerifyReport viaMemo = core::verify(big, &memo);
  EXPECT_EQ(viaMemo.verdict(), core::Verdict::MemOut);
  EXPECT_EQ(core::reportCounters(viaMemo), core::reportCounters(fresh));
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.hits(), 0u);
}

// ---- result store -----------------------------------------------------------
// The ServeJournal tests are named after the segment journal the result
// store (core/result_store.hpp) replaced.

/// A storable response under cache key `key` (as 16 hex digits).
core::VerifyResponse cacheableResponse(std::uint64_t key,
                                       std::uint64_t counterValue) {
  core::VerifyResponse r;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(key));
  r.cacheKey = hex;
  r.verdict = core::Verdict::Correct;
  r.exitCode = 0;
  r.counters = {{"slices", counterValue}};
  return r;
}

std::vector<std::string> storeLines(const std::string& dir) {
  std::ifstream in(std::filesystem::path(dir) / "results.jsonl");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ServeJournal, RoundTripAcrossRestart) {
  const std::string dir = freshDir("journal_rt");
  {
    core::ResultStore store(dir);
    EXPECT_TRUE(store.records().empty());
    EXPECT_TRUE(store.put(cacheableResponse(10, 4)));
    EXPECT_TRUE(store.put(cacheableResponse(20, 8)));
  }

  // "Restart": a fresh instance reads the directory back, in file order.
  core::ResultStore store2(dir);
  const auto& records = store2.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].cacheKey, cacheableResponse(10, 4).cacheKey);
  EXPECT_EQ(records[0].counters, cacheableResponse(10, 4).counters);
  EXPECT_EQ(records[1].cacheKey, cacheableResponse(20, 8).cacheKey);
  ASSERT_NE(store2.find(cacheableResponse(20, 8).cacheKey), nullptr);
  EXPECT_EQ(store2.find(cacheableResponse(30, 1).cacheKey), nullptr);

  // A later line wins on a repeated key.
  EXPECT_TRUE(store2.put(cacheableResponse(10, 99)));
  core::ResultStore store3(dir);
  ASSERT_EQ(store3.records().size(), 2u);
  const core::VerifyResponse* again =
      store3.find(cacheableResponse(10, 99).cacheKey);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->counters, cacheableResponse(10, 99).counters);
}

TEST(ServeJournal, TimeoutAndErrorNeverPersisted) {
  const std::string dir = freshDir("journal_policy");
  core::ResultStore store(dir);

  core::VerifyResponse timeout = cacheableResponse(1, 1);
  timeout.verdict = core::Verdict::Timeout;
  timeout.exitCode = 4;
  EXPECT_FALSE(store.put(timeout));
  core::VerifyResponse error = core::VerifyResponse::makeError(2, "boom");
  error.cacheKey = cacheableResponse(2, 0).cacheKey;
  EXPECT_FALSE(store.put(error));
  core::VerifyResponse skipped = cacheableResponse(3, 1);
  skipped.verdict = core::Verdict::Skipped;
  EXPECT_FALSE(store.put(skipped));
  core::VerifyResponse unkeyed = cacheableResponse(4, 1);
  unkeyed.cacheKey = "not-a-key";
  EXPECT_FALSE(store.put(unkeyed));
  EXPECT_EQ(storeLines(dir).size(), 1u);  // the header alone

  core::ResultStore store2(dir);
  EXPECT_TRUE(store2.records().empty());
}

TEST(ServeJournal, CorruptSegmentsDegradeToCold) {
  const std::string dir = freshDir("journal_corrupt");
  const std::string file = dir + "/results.jsonl";
  {
    core::ResultStore store(dir);
    store.put(cacheableResponse(10, 4));
    store.put(cacheableResponse(20, 8));
  }
  std::string intact;
  {
    std::ifstream in(file);
    std::stringstream ss;
    ss << in.rdbuf();
    intact = ss.str();
  }
  // The last record spans [lastStart, lastEnd); its '\n' ends the file.
  const std::size_t lastEnd = intact.size() - 1;
  const std::size_t lastStart = intact.rfind('\n', lastEnd - 1) + 1;
  auto reopenRestores = [&](const std::string& body,
                            std::vector<std::uint64_t> keys,
                            const std::string& what) {
    std::ofstream(file, std::ios::trunc) << body;
    {
      core::ResultStore store(dir);
      ASSERT_EQ(store.records().size(), keys.size()) << what;
      for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(store.records()[i].cacheKey,
                  cacheableResponse(keys[i], 0).cacheKey)
            << what;
      // A put after the fold reads back: the torn tail is gone.
      EXPECT_TRUE(store.put(cacheableResponse(99, 7))) << what;
    }
    core::ResultStore again(dir);
    keys.push_back(99);
    ASSERT_EQ(again.records().size(), keys.size()) << what;
    EXPECT_EQ(again.records().back().counters,
              cacheableResponse(99, 7).counters)
        << what;
  };

  // A write torn at every byte inside the last record: only it is lost.
  for (std::size_t cut = lastStart; cut < lastEnd; ++cut)
    reopenRestores(intact.substr(0, cut), {10},
                   "cut at " + std::to_string(cut));

  // A header from another build or schema drops the whole file.
  const std::string header = intact.substr(0, intact.find('\n'));
  const std::string records = intact.substr(intact.find('\n') + 1);
  const std::string version = std::to_string(core::kResponseSchemaVersion);
  reopenRestores("{\"version\": " + version +
                     ", \"git_describe\": \"some-other-build\"}\n" + records,
                 {}, "stale git_describe");
  reopenRestores("{\"version\": " + version + "0, \"git_describe\": \"" +
                     trace::gitDescribe() + "\"}\n" + records,
                 {}, "wrong version");
  reopenRestores(records, {}, "no header");

  // A garbage line costs that line only.
  reopenRestores(header + "\ngarbage {\n" + records, {10, 20}, "garbage line");
}

TEST(ServeJournal, CompactionFoldsSegments) {
  const std::string dir = freshDir("journal_compact");
  {
    core::ResultStore store(dir);
    for (std::uint64_t round = 1; round <= 3; ++round)
      for (std::uint64_t key = 1; key <= 4; ++key)
        store.put(cacheableResponse(key, key * 10 + round));
  }
  EXPECT_EQ(storeLines(dir).size(), 1u + 12u);  // appends only, until open

  // Opening folds: each repeated key collapses to its last value, and the
  // file holds the header plus exactly one line per key.
  core::ResultStore store(dir);
  ASSERT_EQ(store.records().size(), 4u);
  for (const core::VerifyResponse& r : store.records()) {
    const std::uint64_t key = std::stoull(r.cacheKey, nullptr, 16);
    EXPECT_EQ(r.counters, cacheableResponse(key, key * 10 + 3).counters);
  }
  const std::vector<std::string> lines = storeLines(dir);
  ASSERT_EQ(lines.size(), 1u + 4u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto rec = core::VerifyResponse::parse(lines[i]);
    ASSERT_TRUE(rec.has_value()) << lines[i];
    EXPECT_EQ(rec->cacheKey, store.records()[i - 1].cacheKey);
  }
}

TEST(ServeJournal, SeedPopulatesCacheWithoutTouchingTraffic) {
  serve::ResultCache cache(8);
  cache.seed(5, cacheableResponse(1, 4));
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 0u);  // seeding is startup, not traffic
  EXPECT_EQ(s.misses, 0u);

  core::VerifyResponse out;
  EXPECT_EQ(cache.claim(5, &out, nullptr), serve::ResultCache::Claim::Hit);
  EXPECT_TRUE(out.cached);
  EXPECT_EQ(out.verdict, core::Verdict::Correct);
  EXPECT_EQ(out.counters, cacheableResponse(1, 4).counters);

  // Duplicate seed is a no-op: the existing entry wins.
  cache.seed(5, cacheableResponse(2, 999));
  EXPECT_EQ(cache.claim(5, &out, nullptr), serve::ResultCache::Claim::Hit);
  EXPECT_EQ(out.counters, cacheableResponse(1, 4).counters);
}

TEST(ServePersist, WarmRestartServesFromJournal) {
  const std::string dir = freshDir("persist");
  const core::VerifyRequest req = smallRequest();
  core::VerifyRequest timeout = smallRequest(2);
  timeout.strategy = core::Strategy::PositiveEqualityOnly;
  timeout.timeoutSeconds = 1e-9;

  core::VerifyResponse fresh;
  {
    serve::ServerOptions opts = serverOptions();
    opts.cacheDir = dir;
    serve::VerifyServer a(opts);
    fresh = handle(a, req);
    EXPECT_TRUE(fresh.error.empty()) << fresh.error;
    EXPECT_EQ(fresh.verdict, core::Verdict::Correct);
    EXPECT_EQ(handle(a, timeout).verdict, core::Verdict::Timeout);
    a.stop();
  }

  serve::ServerOptions opts = serverOptions();
  opts.cacheDir = dir;
  serve::VerifyServer b(opts);
  EXPECT_GE(b.collector().counter("store.restored"), 1u);

  // The warm answer IS the persisted result: cached, verdict and counters
  // identical to the pre-restart fresh verification.
  const core::VerifyResponse warm = handle(b, req);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.verdict, fresh.verdict);
  EXPECT_EQ(warm.counters, fresh.counters);
  const auto cs = b.cacheStats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.misses, 0u);

  // The Timeout verdict was never persisted: after the restart its cell
  // runs fresh.
  timeout.id = 3;
  EXPECT_FALSE(handle(b, timeout).cached);
}

TEST(ServePersist, GridAndDaemonShareOneStore) {
  // One store, two tools: the cells a grid run stored are cache hits for a
  // daemon opened on the same directory, with the grid cell's verdict and
  // counter block.
  const std::string dir = freshDir("shared");
  const std::vector<core::VerifyRequest> cells = core::makeGridRequests(
      std::vector<unsigned>{3, 4}, std::vector<unsigned>{2});
  core::GridRunOptions gopts;
  gopts.cacheDir = dir;
  const auto grid = core::runGrid(cells, gopts);
  ASSERT_EQ(grid.size(), cells.size());

  serve::ServerOptions opts = serverOptions();
  opts.cacheDir = dir;
  serve::VerifyServer server(opts);
  EXPECT_EQ(server.collector().counter("store.restored"), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    core::VerifyRequest req = cells[i];
    req.id = 40 + i;
    const core::VerifyResponse resp = handle(server, req);
    EXPECT_TRUE(resp.cached) << "cell " << i;
    EXPECT_EQ(resp.id, req.id);
    EXPECT_EQ(resp.verdict, grid[i].response.verdict) << "cell " << i;
    EXPECT_EQ(resp.counters, grid[i].response.counters) << "cell " << i;
  }
  const auto cs = server.cacheStats();
  EXPECT_EQ(cs.hits, cells.size());
  EXPECT_EQ(cs.misses, 0u);
}

TEST(ServePersist, FallbackCellRestoresThroughTheStore) {
  // Calibrated like BudgetGrid.FallbackRetriesMemOutCellWithRewriting: the
  // PE-only attempt trips memout, its rewriting retry fits.
  core::VerifyRequest rw;
  rw.robSize = 16;
  rw.issueWidth = 2;
  const core::VerifyReport rwRep = core::verify(rw);
  ASSERT_EQ(rwRep.verdict(), core::Verdict::Correct);
  core::VerifyRequest pe = rw;
  pe.strategy = core::Strategy::PositiveEqualityOnly;
  pe.memoryBudgetBytes = rwRep.outcome.peakArenaBytes * 2;
  const std::vector<core::VerifyRequest> cells = {pe};

  const std::string dir = freshDir("fallback");
  core::GridRunOptions gopts;
  gopts.fallback = core::FallbackPolicy::RetryWithRewriting;
  gopts.cacheDir = dir;
  const auto first = core::runGrid(cells, gopts);
  const auto second = core::runGrid(cells, gopts);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_FALSE(first[0].restored);
  ASSERT_TRUE(first[0].fellBack);
  EXPECT_TRUE(second[0].restored);
  EXPECT_TRUE(second[0].fellBack);
  EXPECT_EQ(second[0].firstVerdict, core::Verdict::MemOut);
  EXPECT_EQ(second[0].response.verdict, core::Verdict::Correct);
  EXPECT_EQ(second[0].response.counters, first[0].response.counters);

  // Each attempt is stored under its own request, so a daemon on the same
  // store answers the PE-only request with memout, not the retry's correct.
  serve::ServerOptions opts = serverOptions();
  opts.cacheDir = dir;
  serve::VerifyServer server(opts);
  const core::VerifyResponse asPe = handle(server, pe);
  EXPECT_TRUE(asPe.cached);
  EXPECT_EQ(asPe.verdict, core::Verdict::MemOut);
  core::VerifyRequest retry = pe;
  retry.strategy = core::Strategy::RewritingPlusPositiveEquality;
  const core::VerifyResponse asRetry = handle(server, retry);
  EXPECT_TRUE(asRetry.cached);
  EXPECT_EQ(asRetry.verdict, core::Verdict::Correct);
  EXPECT_EQ(asRetry.counters, first[0].response.counters);
}

// ---- worker pool: fault injection -------------------------------------------

TEST(ServePool, CrashHookRequestIsRetriedOnSibling) {
  serve::ServerOptions opts = serverOptions();
  opts.jobs = 2;
  opts.workerCrashAfter = 1;  // slot 0 dies before answering its first job
  serve::VerifyServer server(opts);

  // The first request lands on the crashing worker, which _exit()s
  // mid-job; the supervisor retries it on the sibling. The client sees a
  // normal answer, never an error and never a hang.
  const core::VerifyResponse resp = handle(server, smallRequest());
  EXPECT_TRUE(resp.error.empty()) << resp.error;
  EXPECT_EQ(resp.verdict, core::Verdict::Correct);
  EXPECT_GE(server.collector().counter("serve.worker.crashes"), 1u);
  EXPECT_GE(server.collector().counter("serve.pool.retries"), 1u);

  // Cache integrity across the crash: the retried result was cached and is
  // identical to a fresh in-process verification.
  const core::VerifyReport rep = core::verify(smallRequest());
  EXPECT_EQ(resp.verdict, rep.verdict());
  EXPECT_EQ(resp.counters, core::reportCounters(rep));
  const core::VerifyResponse hit = handle(server, smallRequest(2));
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.counters, resp.counters);
}

TEST(ServePool, SigkilledWorkerMidSolveRecovers) {
  serve::ServerOptions opts = serverOptions();
  opts.jobs = 2;
  serve::VerifyServer server(opts);
  ASSERT_TRUE(waitFor([] { return workerPids().size() >= 2; }));

  constexpr int kJobs = 6;
  std::vector<std::thread> clients;
  std::vector<core::VerifyResponse> resps(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    core::VerifyRequest req = smallRequest(i + 1);
    req.robSize = 8 + static_cast<unsigned>(i);  // six distinct cells
    clients.emplace_back([&, req, i] { resps[i] = handle(server, req); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto pids = workerPids();
  ASSERT_FALSE(pids.empty());
  ASSERT_EQ(::kill(pids.front(), SIGKILL), 0);

  for (auto& t : clients) t.join();
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_TRUE(resps[i].error.empty()) << resps[i].error;
    EXPECT_EQ(resps[i].verdict, core::Verdict::Correct);
  }
  EXPECT_TRUE(waitFor([&] {
    return server.collector().counter("serve.worker.crashes") >= 1;
  }));
  EXPECT_TRUE(waitFor([&] {
    return server.collector().counter("serve.worker.respawns") >= 1;
  }));
}

TEST(ServePool, RetriesExhaustedAnswerErrorNeverHang) {
  serve::WorkerPoolOptions po;
  po.executable = VELEV_SERVE_BIN;
  po.processes = 1;
  po.maxRetries = 0;  // one crash is terminal for the request...
  po.crashAfter = 1;
  trace::Collector collector;
  serve::WorkerPool pool(po, collector);
  std::string err;
  ASSERT_TRUE(pool.start(&err)) << err;

  std::promise<core::VerifyResponse> p1;
  auto f1 = p1.get_future();
  pool.submit(smallRequest(),
              [&](const core::VerifyResponse& r) { p1.set_value(r); });
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);  // never a hung client
  const core::VerifyResponse r1 = f1.get();
  EXPECT_FALSE(r1.error.empty());
  EXPECT_EQ(r1.exitCode, 2);

  // ... but not for the slot: it respawns (without the crash hook) and the
  // next request succeeds.
  std::promise<core::VerifyResponse> p2;
  auto f2 = p2.get_future();
  pool.submit(smallRequest(2),
              [&](const core::VerifyResponse& r) { p2.set_value(r); });
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const core::VerifyResponse r2 = f2.get();
  EXPECT_TRUE(r2.error.empty()) << r2.error;
  EXPECT_EQ(r2.verdict, core::Verdict::Correct);

  pool.stop();
  const auto s = pool.stats();
  EXPECT_EQ(s.crashes, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_GE(s.respawns, 1u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(ServePool, UnparseableWorkerLineEndsTheWorkerAndNeverHangs) {
  // A fake worker that passes the ping handshake, then answers every
  // request with a line that is not a VerifyResponse. Each such line must
  // end the worker like a crash, so the request is retried once and then
  // answered with an error instead of staying in flight forever.
  const std::string script = freshDir("badline") + "/fake_worker.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\n"
           "# argv: --worker FD\n"
           "exec <&\"$2\" >&\"$2\"\n"
           "while IFS= read -r line; do\n"
           "  case \"$line\" in\n"
           "    *'\"op\"'*) echo '{\"ok\": true, \"op\": \"ping\"}' ;;\n"
           "    *) echo 'not a response' ;;\n"
           "  esac\n"
           "done\n";
  }
  std::filesystem::permissions(script, std::filesystem::perms::owner_all);

  serve::WorkerPoolOptions po;
  po.executable = script;
  po.processes = 1;
  po.maxRetries = 1;
  auto collector = std::make_unique<trace::Collector>();
  auto pool = std::make_unique<serve::WorkerPool>(po, *collector);
  std::string err;
  ASSERT_TRUE(pool->start(&err)) << err;

  auto answer = std::make_shared<std::promise<core::VerifyResponse>>();
  auto f = answer->get_future();
  pool->submit(smallRequest(), [answer](const core::VerifyResponse& r) {
    answer->set_value(r);
  });
  if (f.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // The pool's destructor would wait for the hung ticket forever: leak
    // the pool (and what its threads use) so the test fails, not hangs.
    (void)pool.release();
    (void)collector.release();
    FAIL() << "no answer within 10 s: the request is stuck in flight";
  }
  const core::VerifyResponse r = f.get();
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_GE(collector->counter("serve.worker.badline"), 2u);
  EXPECT_GE(collector->counter("serve.worker.crashes"), 2u);

  pool->stop();  // must return: nothing is left in flight
  const auto s = pool->stats();
  EXPECT_GE(s.crashes, 2u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(ServePool, OneWorkerAnswersATable5ColumnLikeFreshVerifies) {
  // Three cells of one Table 5 column (same issue width and options, ROB
  // 2, 3 and 4) through a single worker: its SolveMemo may replay the
  // column's shared CNF, and every answer must still be identical in
  // verdict and counters to a fresh core::verify of the same request.
  serve::ServerOptions opts = serverOptions();
  opts.jobs = 1;
  serve::VerifyServer server(opts);
  for (unsigned rob : {2u, 3u, 4u}) {
    core::VerifyRequest req = smallRequest(rob);
    req.robSize = rob;
    const core::VerifyResponse resp = handle(server, req);
    const core::VerifyReport rep = core::verify(req);
    EXPECT_TRUE(resp.error.empty()) << resp.error;
    EXPECT_FALSE(resp.cached);
    EXPECT_EQ(resp.verdict, rep.verdict()) << "ROB " << rob;
    EXPECT_EQ(resp.counters, core::reportCounters(rep)) << "ROB " << rob;
  }
}

/// Descriptor numbers open in process `pid` (Linux /proc).
std::vector<int> fdsOf(pid_t pid) {
  std::vector<int> fds;
  for (const auto& entry : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/fd"))
    fds.push_back(std::stoi(entry.path().filename().string()));
  return fds;
}

/// The socketpair fd a worker was started with: the argument after
/// `--worker` on its command line.
int workerFdArg(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/cmdline");
  std::vector<std::string> argv;
  for (std::string arg; std::getline(in, arg, '\0');) argv.push_back(arg);
  for (std::size_t i = 0; i + 1 < argv.size(); ++i)
    if (argv[i] == "--worker") return std::stoi(argv[i + 1]);
  return -1;
}

TEST(ServePool, RespawnedWorkerHoldsOnlyItsSocketpair) {
  // A worker (re)spawned while the daemon holds a listener, client
  // connections and the result store must inherit none of them: a
  // connection a worker still holds never reads EOF after the daemon
  // closes it.
  const std::string path =
      "/tmp/velev_serve_fdleak_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts = serverOptions();
  opts.unixSocketPath = path;
  opts.cacheDir = freshDir("fdleak");
  opts.jobs = 1;
  opts.workerCrashAfter = 1;  // the first request forces a respawn
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // Two clients connected before the respawn; a pong proves each was
  // accepted.
  auto client = serve::Client::connect("unix:" + path, &err);
  ASSERT_TRUE(client.has_value()) << err;
  ASSERT_TRUE(client->roundTripLine(R"({"op": "ping"})", &err).has_value())
      << err;
  const int idle = connectUnixFd(path);
  ASSERT_GE(idle, 0);
  const std::string ping = "{\"op\": \"ping\"}\n";
  ASSERT_EQ(::send(idle, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  char pong[256];
  ASSERT_GT(::recv(idle, pong, sizeof pong, 0), 0);

  const auto resp = client->roundTrip(smallRequest(), &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(resp->error.empty()) << resp->error;
  EXPECT_EQ(resp->verdict, core::Verdict::Correct);
  ASSERT_GE(server.collector().counter("serve.worker.respawns"), 1u);

  // The answer is written, so the respawned worker is idle in its read:
  // stdio and its socketpair end are all it holds.
  const std::vector<pid_t> pids = workerPids();
  ASSERT_EQ(pids.size(), 1u);
  const int sock = workerFdArg(pids.front());
  const std::vector<int> fds = fdsOf(pids.front());
  EXPECT_NE(std::find(fds.begin(), fds.end(), sock), fds.end());
  for (int fd : fds)
    EXPECT_TRUE(fd <= 2 || fd == sock) << "the worker holds fd " << fd;

  // The idle client sends one request and half-closes: the daemon answers
  // and closes its end, and with no worker holding a copy the client
  // reads EOF.
  const std::string line = compactJson(smallRequest(2).toJson()) + "\n";
  ASSERT_EQ(::send(idle, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  ::shutdown(idle, SHUT_WR);
  std::string received;
  EXPECT_TRUE(readToEof(idle, &received, 2)) << "no EOF within 2 s";
  ::close(idle);
  EXPECT_EQ(std::count(received.begin(), received.end(), '\n'), 1)
      << received;
  server.stop();
}

TEST(ServeServer, WithoutAWorkerExecutableStartFailsAndMissesAnswerErrors) {
  // There is no in-process fallback: a server that cannot spawn a worker
  // refuses to start, and a miss driven through handleLine answers an
  // error instead of verifying.
  serve::ServerOptions opts;
  opts.tcpPort = 0;
  serve::VerifyServer server(opts);
  std::string err;
  EXPECT_FALSE(server.start(&err));
  EXPECT_FALSE(err.empty());
  const core::VerifyResponse resp = handle(server, smallRequest(9));
  EXPECT_EQ(resp.id, 9u);
  EXPECT_FALSE(resp.error.empty());
  EXPECT_EQ(resp.exitCode, 2);
  EXPECT_EQ(server.cacheStats().entries, 0u);
}

TEST(ServeServer, MissesLeaveNoPerJobTraceInTheDaemon) {
  // Jobs run in worker processes: a miss adds no span to the daemon's
  // collector, and the stats op carries only the daemon's own serve.* and
  // store.* counters — no verify-level gauge of whichever job ran last.
  serve::ServerOptions opts = serverOptions();
  opts.cacheDir = freshDir("notrace");
  serve::VerifyServer server(opts);
  const std::size_t spansBefore = server.collector().spans().size();
  for (unsigned rob : {3u, 4u}) {
    core::VerifyRequest req = smallRequest(rob);
    req.robSize = rob;
    const core::VerifyResponse resp = handle(server, req);
    EXPECT_TRUE(resp.error.empty()) << resp.error;
    EXPECT_FALSE(resp.cached);
  }
  EXPECT_EQ(server.cacheStats().misses, 2u);
  EXPECT_EQ(server.collector().spans().size(), spansBefore);

  std::string err;
  const auto stats = parseJson(server.handleLine("{\"op\": \"stats\"}"), &err);
  ASSERT_TRUE(stats.has_value()) << err;
  const JsonValue* counters = stats->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->isObject());
  EXPECT_EQ(counters->uintAt("serve.jobs"), 2u);
  for (const auto& [name, value] : counters->object)
    EXPECT_TRUE(name.rfind("serve.", 0) == 0 || name.rfind("store.", 0) == 0)
        << name << " = " << value.number;
}

// ---- live-load admission control --------------------------------------------

TEST(ServeAdmission, QueueDepthCapRejectsUnderLoad) {
  // Timing-dependent (the slow job must still be pending when the probe
  // arrives), so the cell grows until the rejection is observed.
  bool rejected = false;
  for (unsigned rob : {32u, 64u, 128u, 256u, 512u}) {
    serve::ServerOptions opts = serverOptions();
    opts.jobs = 1;
    opts.maxQueueDepth = 1;
    serve::VerifyServer server(opts);

    core::VerifyRequest slow = smallRequest(1);
    slow.robSize = rob;
    slow.issueWidth = 4;
    core::VerifyResponse slowResp;
    std::thread t([&] { slowResp = handle(server, slow); });
    waitFor([&] { return server.collector().counter("serve.jobs") >= 1; });

    const core::VerifyResponse probe = handle(server, smallRequest(2));
    t.join();
    EXPECT_TRUE(slowResp.error.empty()) << slowResp.error;

    if (!probe.error.empty()) {
      rejected = true;
      EXPECT_NE(probe.error.find("admission"), std::string::npos)
          << probe.error;
      EXPECT_EQ(probe.exitCode, 2);
      EXPECT_GE(server.collector().counter("serve.admission.rejected"), 1u);
      // Nothing is permanently unservable: with the backlog drained, the
      // same cell is admitted and verified.
      const core::VerifyResponse again = handle(server, smallRequest(3));
      EXPECT_TRUE(again.error.empty()) << again.error;
      EXPECT_EQ(again.verdict, core::Verdict::Correct);
      break;
    }
  }
  EXPECT_TRUE(rejected);
}

TEST(ServeAdmission, PendingSecondsCapRejectsOverCommittedBudgets) {
  bool rejected = false;
  for (unsigned rob : {32u, 64u, 128u, 256u, 512u}) {
    serve::ServerOptions opts = serverOptions();
    opts.jobs = 2;
    opts.maxPendingSeconds = 5;
    serve::VerifyServer server(opts);

    // Admitted on an empty backlog (always admits), committing 4 of the
    // 5-second budget while it runs.
    core::VerifyRequest slow = smallRequest(1);
    slow.robSize = rob;
    slow.issueWidth = 4;
    slow.timeoutSeconds = 4;
    core::VerifyResponse slowResp;
    std::thread t([&] { slowResp = handle(server, slow); });
    waitFor([&] { return server.collector().counter("serve.jobs") >= 1; });

    // 4 + 2 > 5: over budget, rejected.
    core::VerifyRequest big = smallRequest(2);
    big.robSize = 4;
    big.timeoutSeconds = 2;
    const core::VerifyResponse probe = handle(server, big);

    if (!probe.error.empty()) {
      rejected = true;
      EXPECT_NE(probe.error.find("admission"), std::string::npos)
          << probe.error;
      // 4 + 0.5 <= 5: a cheaper request still fits.
      core::VerifyRequest small = smallRequest(3);
      small.timeoutSeconds = 0.5;
      const core::VerifyResponse ok = handle(server, small);
      EXPECT_TRUE(ok.error.empty()) << ok.error;
      t.join();
      break;
    }
    t.join();
  }
  EXPECT_TRUE(rejected);
}

}  // namespace
}  // namespace velev
