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
//     kernel, so its slot thread reads EOF (or, while idle, polls it
//     readable); no signal handlers. A failed write, or an answer that is
//     not a VerifyResponse carrying the request's wire id, is handled the
//     same way: the worker is SIGKILLed and reaped;
//   * retry — the ticket the worker held is re-queued at the FRONT of the
//     queue (it was admitted first) with attempts+1 and a small
//     per-attempt backoff (20 ms per attempt); a ticket that has crashed
//     1+maxRetries workers is answered with an InternalError response — a
//     client is never left hanging;
//   * respawn — the slot is respawned with exponential backoff (doubling
//     from 50 ms, capped at 2 s); after 8 CONSECUTIVE crashes or failed
//     spawns the slot is abandoned (a successful response resets the
//     streak). If every slot is abandoned, queued work is failed with
//     InternalError rather than queued forever.
//
// A worker runs one request at a time. Its per-process sat::SolveMemo
// replays the bit-identical rewritten CNF of a Table 5 column (same issue
// width, bug, strategy and budgets, any ROB size) whenever the column's
// requests reach the same worker.
//
// Thread model: submit() only enqueues. One thread per slot owns that
// slot's worker end to end: it spawns it (ping handshake), takes a ticket,
// writes the request, reads the one answer line, fires the Done callback
// (outside the pool lock — a Done writes to a client socket or fulfills a
// promise), and respawns the worker after a failure. An idle slot thread
// sleeps in poll() on its worker's socket and its wake eventfd. The lowest
// idle slot takes the next ticket: a push wakes it, and a slot that leaves
// the idle set with work still queued wakes the next.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
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
  /// start one thread per slot. False (with `*error` set) when no worker
  /// could be spawned.
  bool start(std::string* error = nullptr);

  /// Drain: wait for every queued + in-flight ticket to be answered, then
  /// terminate the workers (EOF on the socketpair; they exit cleanly).
  /// submit() after stop() answers immediately with an error response.
  void stop();

  /// Enqueue one request; `done` fires exactly once, from a slot thread
  /// or wherever the failure is discovered. Never blocks on verification.
  void submit(const core::VerifyRequest& req, Done done);

  Stats stats() const;

 private:
  struct Ticket {
    core::VerifyRequest req;
    Done done;
    unsigned attempts = 0;   // completed (crashed) dispatch attempts
    double notBefore = 0;    // pool-clock seconds; retry backoff gate
  };

  /// One life of a worker process; the reader carries its ping answer and
  /// every response.
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    FdLineReader reader;
  };

  struct Slot {
    std::thread thread;
    int wake = -1;      // eventfd the slot thread polls while it waits
    bool idle = false;  // has a live worker and no ticket (under mutex_)
  };

  enum class Next { Ticket, WorkerGone, Stop };

  std::optional<Worker> spawnWorker(std::size_t slot, bool first,
                                    std::string* error);
  void slotLoop(std::size_t slot, std::optional<Worker> worker);
  /// Blocks until this slot takes a ready ticket into `*t`, its idle worker
  /// dies, or the pool stops.
  Next nextTicket(std::size_t slot, int workerFd, Ticket* t);
  /// Polls the slot's wake eventfd and `workerFd` (skipped when < 0) for at
  /// most `seconds` (< 0: no limit). True when `workerFd` is readable.
  bool sleep(std::size_t slot, int workerFd, double seconds);
  void abandonSlot();
  void wakeFirstIdleLocked();
  double now() const { return clock_.seconds(); }

  WorkerPoolOptions opts_;
  trace::Collector& collector_;
  Timer clock_;  // pool-lifetime monotonic clock for backoff deadlines

  mutable std::mutex mutex_;
  std::condition_variable drainCv_;  // stop() waits for empty here
  std::deque<Ticket> queue_;
  std::vector<Slot> slots_;
  std::size_t abandoned_ = 0;
  bool started_ = false;
  bool draining_ = false;  // no new submits; finish what is queued
  std::atomic<bool> stopping_{false};  // slot threads exit (set under mutex_)
  Stats stats_;  // queued is filled in by stats()
};

}  // namespace velev::serve
