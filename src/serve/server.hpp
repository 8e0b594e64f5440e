// VerifyServer: the long-lived verification service behind velev_serve.
//
// WIRE PROTOCOL (documented in docs/SERVICE.md): newline-delimited JSON.
// Each line a client sends is either
//   * a core::VerifyRequest object ("version": 1, rob_size, strategy, ...)
//     — answered, eventually, with one core::VerifyResponse line carrying
//     the same "id"; or
//   * a control op: {"op": "ping"} | {"op": "stats"} | {"op": "shutdown"}
//     — answered immediately with a one-line {"ok": true, ...} object.
// Malformed or invalid lines get an error response ({"error": ..., with
// exit_code 2}) and never tear the connection down. Responses to
// pipelined requests may arrive out of order; match them by "id".
//
// EXECUTION MODEL: requests are validated and admission-clamped on the
// connection's reader thread; cache misses become jobs shipped to a
// supervised pool of `jobs` worker PROCESSES (serve/supervisor.hpp), so a
// verification that aborts or is SIGKILLed costs one worker, never the
// daemon and its warm cache — the supervisor retries in-flight requests on
// a sibling and respawns the slot. Each job builds its own eufm::Context
// and arms its own BudgetGovernor from the request's budget (the grid
// runner's one-Context-per-cell rule) — a budget-exhausted job degrades
// into a timeout/memout verdict in the response, exactly like the CLI.
// Results route through the content-addressed ResultCache: identical
// in-flight requests coalesce onto one running job (waiter callbacks, not
// blocking futures — a job's answer arrives on a pool slot thread, which
// must never block), and finished results are served as cache hits.
// Wall-clock Timeout verdicts are never cached: whether a deadline trips
// depends on machine load, so freezing one would replay a
// nondeterministic answer forever.
//
// PERSISTENCE: with cacheDir set, the cache is backed by a
// core::ResultStore (core/result_store.hpp) — the store the grid runner's
// cacheDir keeps too. Its records seed the cache at construction and every
// storable result is appended, so a restarted daemon keeps its warm set
// (same build only; the store is version-checked).
//
// HOSTILE INPUT: a request line may be at most 1 MiB long. A connection
// whose pending line grows past that gets one error response and is shut
// down, so a client that never sends '\n' cannot grow the reader's buffer.
// At most kMaxConnections connections are open at once; the one past the
// cap gets one error line and is closed. A connection's fd is closed and
// its reader joined as soon as the reader has exited and no job still owes
// it an answer, so a late answer never lands on a reused fd number.
//
// ADMISSION: beyond the static budget clamps, maxQueueDepth /
// maxPendingSeconds reject NEW work (cache misses about to become jobs)
// when the live backlog is too deep — hits and coalesced joiners are free
// and always served. A rejected request gets an immediate error response;
// nothing is silently dropped.
//
// OBSERVABILITY: the server owns one thread-safe trace::Collector; the
// request/cache flow and the worker pool count serve.* counters on it, and
// opening the result store counts store.* (names in
// docs/TRACE_FORMAT.md). Jobs run in the workers, so nothing per job
// accumulates here. The "stats" op reports the counters plus the cache
// and pool statistics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/result_store.hpp"
#include "serve/cache.hpp"
#include "serve/supervisor.hpp"
#include "support/trace.hpp"

namespace velev::serve {

struct ServerOptions {
  /// Unix-domain listening socket path; empty = no unix listener. An
  /// existing file at the path is unlinked (the daemon owns its socket).
  std::string unixSocketPath;
  /// TCP port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral (read the
  /// bound port back with tcpPort()).
  int tcpPort = -1;
  /// Verification worker processes (clamped to >= 1).
  unsigned jobs = 1;
  /// Result-cache capacity (ready entries; LRU beyond this).
  std::size_t cacheMaxEntries = 1024;
  /// Admission caps, folded into every request BEFORE the cache lookup so
  /// the clamped request is what gets keyed and verified: when > 0, a
  /// request asking for more (or for no limit) is clamped down. 0 = no cap.
  double maxTimeoutSeconds = 0;
  std::uint64_t maxMemoryBudgetBytes = 0;

  /// Binary to spawn as `workerExecutable --worker FD`; normally the
  /// daemon's own executable (/proc/self/exe). Required: without it no
  /// job can run, start() fails and every miss answers an error.
  std::string workerExecutable;
  /// TEST HOOK, forwarded to WorkerPoolOptions::crashAfter.
  int workerCrashAfter = 0;

  /// Result-store directory (core/result_store.hpp); empty = memory-only.
  std::string cacheDir;

  /// Live-load admission (0 = unlimited): reject a new job when this many
  /// are already queued or running...
  std::size_t maxQueueDepth = 0;
  /// ... or when the wall budgets of queued+running jobs already sum past
  /// this (requests with no timeout count 0 seconds but still count depth).
  double maxPendingSeconds = 0;
};

class VerifyServer {
 public:
  /// Connections open at once (each holds an fd and a reader thread).
  static constexpr std::size_t kMaxConnections = 64;

  explicit VerifyServer(ServerOptions opts);
  ~VerifyServer();  // stop()s

  VerifyServer(const VerifyServer&) = delete;
  VerifyServer& operator=(const VerifyServer&) = delete;

  /// Bind + listen on the configured sockets and start the accept loop.
  /// Returns false (with a reason) when no listener could be set up.
  /// Optional: handleLine() works without start() for socket-free use.
  bool start(std::string* error = nullptr);

  /// Tear down: stop accepting, drain connection readers, drain the worker
  /// pool (in-flight verifications finish and answer), close connections.
  /// Idempotent; also called by the destructor.
  void stop();

  /// The TCP port actually bound (after start()); -1 without a TCP
  /// listener. With tcpPort=0 this is the kernel-assigned ephemeral port.
  int tcpPort() const { return boundTcpPort_; }

  const ServerOptions& options() const { return opts_; }

  /// Process one request line synchronously and return the one-line JSON
  /// response — the socket-free entry the tests and the replay bench drive
  /// (it is exactly what a connection reader does, minus the socket).
  /// Blocks until the job finishes; never call it from a job's callback.
  std::string handleLine(const std::string& line);

  /// Flag the server to shut down (the "shutdown" op calls this). The
  /// daemon's main thread observes it via waitForShutdown() and then
  /// calls stop() — the server never joins its own threads from a
  /// connection thread.
  void requestShutdown();

  /// Block until requestShutdown() is called.
  void waitForShutdown();

  ResultCache::Stats cacheStats() const { return cache_.stats(); }

  /// The server-lifetime collector (serve.* spans and counters).
  const trace::Collector& collector() const { return collector_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex writeMutex;
    std::thread reader;
    std::atomic<bool> open{true};
    /// Dispatched lines whose answer is not written yet.
    std::atomic<std::size_t> owed{0};
    /// The reader's last act; with owed == 0 the connection may be reaped.
    std::atomic<bool> readerDone{false};
  };

  /// Async core: clamp, key, claim, maybe schedule. `done` fires exactly
  /// once with the response (possibly on another thread).
  void submit(core::VerifyRequest req, ResultCache::Waiter done);

  /// Owner-job epilogue: release admission, settle the cache (fulfill or
  /// abandon), append to the result store when storable, answer the owner.
  /// Fires exactly once per admitted job.
  void completeJob(const core::VerifyRequest& req, std::uint64_t key,
                   const core::VerifyResponse& resp,
                   const ResultCache::Waiter& done);

  /// Live-load admission for a new Owner job; false = reject (the caller
  /// answers with an error and abandons the cache claim).
  bool admitJob(const core::VerifyRequest& req);
  void releaseJob(const core::VerifyRequest& req);

  /// Dispatch one wire line: control op (returns the response inline) or
  /// verify request (answers through `done`; returns empty string).
  std::string dispatchLine(const std::string& line, ResultCache::Waiter done);

  std::string controlResponse(const std::string& op);

  void acceptLoop();
  /// Close and drop every connection whose reader has exited and that is
  /// owed no answer; returns how many stay open.
  std::size_t reapConnections();
  void readerLoop(Connection* conn);
  void writeLine(Connection* conn, const std::string& line);

  ServerOptions opts_;
  trace::Collector collector_;
  ResultCache cache_;
  std::unique_ptr<core::ResultStore> store_;
  WorkerPool workerPool_;
  /// Non-empty when the worker pool could not be started: start() fails
  /// with it, and submits answer it as an error.
  std::string poolError_;

  std::mutex admissionMutex_;
  std::size_t pendingJobs_ = 0;     // admitted, not yet completed
  double pendingSeconds_ = 0;       // their summed effective wall budgets

  int unixFd_ = -1;
  int tcpFd_ = -1;
  int boundTcpPort_ = -1;
  std::thread acceptThread_;
  std::atomic<bool> stopAccept_{false};
  /// Set once connection readers are drained; submits turn into shutdown
  /// errors from then on (nothing may be queued behind a draining pool).
  std::atomic<bool> stopJobs_{false};
  std::atomic<bool> stopped_{false};

  std::mutex connMutex_;
  std::vector<std::unique_ptr<Connection>> conns_;

  std::mutex shutdownMutex_;
  std::condition_variable shutdownCv_;
  bool shutdownRequested_ = false;
};

}  // namespace velev::serve
