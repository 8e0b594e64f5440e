// The supervisor half of the velev_serve daemon: every verification job
// the daemon runs goes through here.
//
// WorkerPool owns N worker PROCESSES (velev_serve --worker, spawned over
// socketpairs by support/subprocess.hpp) and routes verification jobs to
// them. The front process keeps the sockets, the ResultCache and admission
// control; the workers do the actual solving — so a verification that
// aborts, exhausts memory, or is SIGKILLed mid-solve costs one worker
// process, never the daemon.
//
// FAILURE PROTOCOL (the reason this class exists):
//   * death detection — a dead worker's socketpair end is closed by the
//     kernel, so its reader thread wakes with EOF; no signals, no polling;
//   * retry — the dead worker's in-flight tickets are re-queued at the
//     FRONT of the queue (they were admitted first) with attempts+1 and a
//     small per-attempt backoff (20 ms per attempt); a ticket that has
//     crashed 1+maxRetries workers is answered with an InternalError
//     response — a client is never left hanging;
//   * respawn — the slot is respawned with exponential backoff (doubling
//     from 50 ms, capped at 2 s); after 8 CONSECUTIVE crashes the slot is
//     abandoned (a successful response resets the streak). If every slot
//     is abandoned, queued work is failed with InternalError rather than
//     queued forever.
//
// A worker runs one request at a time. Its per-process sat::SolveMemo
// replays the bit-identical rewritten CNF of a Table 5 column (same issue
// width, bug, strategy and budgets, any ROB size) whenever the column's
// requests reach the same worker.
//
// Thread model: submit() enqueues; one dispatcher thread assigns tickets
// to idle live workers and handles respawn scheduling; one reader thread
// per worker parses responses and fires the Done callbacks (outside the
// pool lock — a Done writes to a client socket or fulfills a promise).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "core/request.hpp"
#include "support/subprocess.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace velev::serve {

struct WorkerPoolOptions {
  /// Path of the binary to spawn as `executable --worker @FD@`
  /// (normally /proc/self/exe — the daemon respawning itself).
  std::string executable;
  unsigned processes = 2;  // clamped to >= 1

  /// A request may be retried on a sibling after this many worker crashes
  /// before it is failed with InternalError (total attempts = 1 + retries).
  unsigned maxRetries = 2;

  /// TEST HOOK: arm `--crash-after N` on the FIRST spawn of worker slot 0
  /// only (respawns never inherit it — a crash-retry cannot loop).
  int crashAfter = 0;
};

class WorkerPool {
 public:
  using Done = std::function<void(const core::VerifyResponse&)>;

  struct Stats {
    std::uint64_t queued = 0;      // currently waiting for a worker
    std::uint64_t inflight = 0;    // currently inside a worker
    std::uint64_t dispatched = 0;  // requests sent to workers (incl retries)
    std::uint64_t crashes = 0;     // worker deaths observed
    std::uint64_t respawns = 0;    // successful respawns
    std::uint64_t retries = 0;     // tickets re-queued after a crash
    std::uint64_t failed = 0;      // tickets answered with InternalError
    std::uint64_t aliveWorkers = 0;
  };

  /// Pool-level counters (serve.worker.crashes, serve.pool.retries, ...)
  /// are recorded on `collector`, which must outlive the pool.
  WorkerPool(WorkerPoolOptions opts, trace::Collector& collector);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawn the workers (synchronously, each with a ping handshake) and
  /// start the dispatcher. False (with `*error` set) when no worker could
  /// be spawned.
  bool start(std::string* error = nullptr);

  /// Drain: wait for every queued + in-flight ticket to be answered, then
  /// terminate the workers (EOF on the socketpair; they exit cleanly).
  /// submit() after stop() answers immediately with an error response.
  void stop();

  /// Enqueue one request; `done` fires exactly once, from a reader thread
  /// (success) or wherever the failure is discovered. Never blocks on
  /// verification.
  void submit(const core::VerifyRequest& req, Done done);

  Stats stats() const;

 private:
  struct Ticket {
    core::VerifyRequest req;
    Done done;
    unsigned attempts = 0;   // completed (crashed) dispatch attempts
    double notBefore = 0;    // pool-clock seconds; retry backoff gate
  };

  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    std::thread reader;
    bool alive = false;
    bool spawning = false;  // dispatcher is mid-respawn (lock dropped)
    bool abandoned = false;
    unsigned consecutiveCrashes = 0;
    double respawnAt = 0;  // pool-clock seconds; 0 = not scheduled
    /// Wire id -> ticket; at most one entry (the request in flight). Wire
    /// ids are supervisor-assigned (monotonic), so responses match tickets
    /// even when clients reuse request ids.
    std::map<std::uint64_t, Ticket> inflight;
  };

  bool spawnWorkerLocked(std::size_t slot, bool first,
                         std::unique_lock<std::mutex>& lk,
                         std::string* error);
  void dispatcherLoop();
  void readerLoop(std::size_t slot);
  void onWorkerDeath(std::size_t slot);
  double now() const { return clock_.seconds(); }

  WorkerPoolOptions opts_;
  trace::Collector& collector_;
  Timer clock_;  // pool-lifetime monotonic clock for backoff deadlines

  mutable std::mutex mutex_;
  std::condition_variable cv_;       // dispatcher wakeups
  std::condition_variable drainCv_;  // stop() waits for empty here
  std::deque<Ticket> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t nextWireId_ = 1;
  bool started_ = false;
  bool draining_ = false;  // no new submits; finish what is queued
  bool stopping_ = false;  // dispatcher exits
  std::thread dispatcher_;
  Stats stats_;
};

}  // namespace velev::serve
