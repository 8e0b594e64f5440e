// velev_serve — the long-lived verification daemon.
//
//   $ velev_serve --socket /tmp/velev.sock
//   $ velev_serve --port 7341 --jobs 8
//   $ velev_serve --socket /tmp/velev.sock --jobs 4 --cache-dir /var/velev
//
// Listens on a unix-domain socket and/or 127.0.0.1 TCP for
// newline-delimited JSON verification requests (core::VerifyRequest,
// schema v1 — see docs/SERVICE.md) and answers each with a
// core::VerifyResponse line. Results are content-address cached: identical
// requests (same cell, same options, same binary) are answered from the
// cache, and concurrent identical requests coalesce onto one running job.
//
// The verifications run in --jobs N supervised worker PROCESSES (the
// daemon re-execs itself with --worker): a verification that crashes or is
// SIGKILLed costs one worker, the supervisor retries its in-flight
// requests on a sibling and respawns the slot.
//
// Options:
//   --socket PATH     unix-domain listening socket (unlinked on exit)
//   --port N          TCP port on 127.0.0.1; 0 picks an ephemeral port
//                     (printed as "listening on 127.0.0.1:<port>")
//   --jobs N          verification worker processes, 1..256 (default:
//                     hardware threads, at most 256)
//   --cache N         result-cache capacity in entries (default 1024)
//   --cache-dir DIR   back the result cache with the result store in DIR
//                     (DIR/results.jsonl, one VerifyResponse per line; the
//                     store `velev_verify --grid --cache-dir` keeps too):
//                     restored on startup, appended on every storable
//                     answer (default: memory-only)
//   --max-timeout S   admission cap: clamp every request's wall-clock
//                     budget to at most S seconds (default: uncapped)
//   --max-mem MB      admission cap: clamp every request's memory budget
//                     to at most MB MiB (default: uncapped)
//   --max-queue N     live-load admission: reject new jobs when N are
//                     already queued or running (default: unlimited)
//   --max-pending-secs S  reject new jobs when the wall budgets of queued
//                     and running jobs already sum past S (default: off)
//   --quiet           no startup/shutdown chatter on stdout
//
// Internal (spawned by the supervisor, never by hand):
//   --worker FD       run as a verification worker over socketpair FD
//   --crash-after N   worker test hook: _exit after reading N requests
//
// The VELEV_SERVE_CRASH_AFTER environment variable (fault-injection CI
// smoke) arms --crash-after on the first spawn of worker slot 0; it is
// cleared before any worker is spawned so respawns never inherit it.
//
// Control ops on any connection: {"op":"ping"}, {"op":"stats"},
// {"op":"shutdown"} (answers, then the daemon exits cleanly). SIGINT and
// SIGTERM also shut down cleanly. A request line longer than 1 MiB gets one
// error response, and its connection is closed.
//
// Exit code: 0 on a clean shutdown, 2 on usage/startup errors (a number
// flag outside its range or with trailing junk is a usage error).
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "serve/worker.hpp"
#include "velev.hpp"

using namespace velev;

namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\nsee the header of tools/velev_serve.cpp "
                       "for usage\n",
               msg);
  std::exit(2);
}

serve::VerifyServer* gServer = nullptr;

void onSignal(int) {
  // Only flag; the main thread observes waitForShutdown() and tears down.
  if (gServer != nullptr) gServer->requestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode first: `velev_serve --worker FD [--crash-after N]` is the
  // supervisor re-execing this binary; nothing else applies.
  if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) {
    if (argc < 3) usage("--worker needs the socketpair fd");
    serve::WorkerOptions wopts;
    wopts.fd = parseNumberOrExit("--worker", argv[2], 0, kIntMax);
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--crash-after") == 0 && i + 1 < argc)
        wopts.crashAfter =
            parseNumberOrExit("--crash-after", argv[++i], 0, kIntMax);
      else
        usage(("unknown worker option: " + std::string(argv[i])).c_str());
    }
    return serve::workerMain(wopts);
  }

  serve::ServerOptions opts;
  opts.jobs = std::min(ThreadPool::hardwareThreads(), kMaxWorkers);
  bool quiet = false;
  bool havePort = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--socket") opts.unixSocketPath = next();
    else if (a == "--port") {
      opts.tcpPort = parseNumberOrExit(a, next(), 0, 65535);
      havePort = true;
    } else if (a == "--jobs") {
      opts.jobs = parseNumberOrExit(a, next(), 1u, kMaxWorkers);
    } else if (a == "--cache") {
      opts.cacheMaxEntries =
          parseNumberOrExit<std::size_t>(a, next(), 1, SIZE_MAX);
    } else if (a == "--cache-dir") {
      opts.cacheDir = next();
    } else if (a == "--max-queue") {
      opts.maxQueueDepth =
          parseNumberOrExit<std::size_t>(a, next(), 1, SIZE_MAX);
    } else if (a == "--max-pending-secs") {
      opts.maxPendingSeconds = parseNumberOrExit(a, next(), 1e-9, 1e9);
    } else if (a == "--max-timeout") {
      opts.maxTimeoutSeconds = parseNumberOrExit(a, next(), 1e-9, 1e9);
    } else if (a == "--max-mem") {
      const std::uint64_t mb =
          parseNumberOrExit<std::uint64_t>(a, next(), 1, UINT64_MAX >> 20);
      opts.maxMemoryBudgetBytes = mb * 1024u * 1024u;
    } else if (a == "--quiet") quiet = true;
    else usage(("unknown option: " + a).c_str());
  }

  if (opts.unixSocketPath.empty() && !havePort)
    usage("need a listener: --socket PATH and/or --port N");
  if (!havePort) opts.tcpPort = -1;

  // The workers are this very binary; /proc/self/exe survives renames and
  // relative invocation, argv[0] is the fallback.
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n > 0) {
    exe[n] = '\0';
    opts.workerExecutable = exe;
  } else {
    opts.workerExecutable = argv[0];
  }
  // Fault-injection hook (CI smoke): armed once, then scrubbed from the
  // environment so no worker — and no respawn — re-inherits it.
  if (const char* crash = std::getenv("VELEV_SERVE_CRASH_AFTER")) {
    opts.workerCrashAfter =
        parseNumberOrExit("VELEV_SERVE_CRASH_AFTER", crash, 0, kIntMax);
    ::unsetenv("VELEV_SERVE_CRASH_AFTER");
  }

  serve::VerifyServer server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  gServer = &server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  if (!quiet) {
    if (!opts.unixSocketPath.empty())
      std::printf("listening on %s\n", opts.unixSocketPath.c_str());
    if (server.tcpPort() >= 0)
      std::printf("listening on 127.0.0.1:%d\n", server.tcpPort());
    std::printf("workers: %u processes, cache: %zu entries\n", opts.jobs,
                opts.cacheMaxEntries);
    if (!opts.cacheDir.empty())
      std::printf("result store: %s\n", opts.cacheDir.c_str());
    std::fflush(stdout);
  }

  server.waitForShutdown();
  server.stop();
  gServer = nullptr;

  if (!quiet) {
    const serve::ResultCache::Stats cs = server.cacheStats();
    std::printf("shutdown: %llu hits, %llu misses, %llu coalesced, "
                "%llu entries\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.coalesced),
                static_cast<unsigned long long>(cs.entries));
  }
  return 0;
}
