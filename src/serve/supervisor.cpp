#include "serve/supervisor.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <utility>

#include "support/json.hpp"

namespace velev::serve {

namespace {

/// Consecutive crashes after which a worker slot is abandoned.
constexpr unsigned kMaxRespawns = 8;
/// First respawn delay; doubles per consecutive crash, capped at 2 s.
constexpr double kRespawnBackoffSeconds = 0.05;
/// Re-dispatch delay of a crashed ticket, per attempt.
constexpr double kRetryBackoffSeconds = 0.02;
/// How long a freshly spawned worker has to answer the ping handshake.
constexpr int kSpawnHandshakeMs = 10000;

constexpr const char* kAllWorkersLost =
    "internal error: all verification workers lost";

/// Respawn delay after `consecutiveCrashes` (>= 1) crashes, capped without
/// overflow: 2^min(n, 10) steps.
double crashBackoff(unsigned consecutiveCrashes) {
  const unsigned steps = std::min(consecutiveCrashes, 10u) - 1u;
  const double raw = kRespawnBackoffSeconds * static_cast<double>(1u << steps);
  return std::min(2.0, raw);
}

core::VerifyResponse crashError(const core::VerifyRequest& req,
                                unsigned attempts) {
  return core::VerifyResponse::makeError(
      req.id, "internal error: verification worker crashed (" +
                  std::to_string(attempts) + " attempts)");
}

/// Ends one worker life: SIGKILL unless the pool is stopping (then the EOF
/// of the close makes the worker exit 0), close, reap.
void retire(pid_t pid, int fd, bool kill) {
  if (kill) ::kill(pid, SIGKILL);
  ::close(fd);
  reapProcess(pid, /*block=*/true);
}

}  // namespace

WorkerPool::WorkerPool(WorkerPoolOptions opts, trace::Collector& collector)
    : opts_(std::move(opts)), collector_(collector) {
  if (opts_.processes == 0) opts_.processes = 1;
}

WorkerPool::~WorkerPool() { stop(); }

bool WorkerPool::start(std::string* error) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (started_) return true;
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "worker pool: " + why;
    for (const Slot& s : slots_)
      if (s.wake >= 0) ::close(s.wake);
    slots_.clear();
    return false;
  };
  if (opts_.executable.empty()) return fail("no executable configured");
  // Every wake fd exists before any slot thread runs: a thread may wake any.
  slots_ = std::vector<Slot>(opts_.processes);
  for (Slot& s : slots_)
    if ((s.wake = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) < 0)
      return fail("cannot create an eventfd");
  std::vector<std::optional<Worker>> workers;
  std::string firstErr;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    std::string err;
    workers.push_back(spawnWorker(i, /*first=*/true, &err));
    slots_[i].idle = workers.back().has_value();
    if (slots_[i].idle)
      ++stats_.aliveWorkers;
    else if (firstErr.empty())
      firstErr = err;
  }
  if (stats_.aliveWorkers == 0)
    return fail("no worker could be spawned: " + firstErr);
  started_ = true;
  draining_ = false;
  stopping_ = false;
  abandoned_ = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    slots_[i].thread = std::thread(
        [this, i, w = std::move(workers[i])]() mutable {
          slotLoop(i, std::move(w));
        });
  return true;
}

std::optional<WorkerPool::Worker> WorkerPool::spawnWorker(
    std::size_t slot, bool first, std::string* error) {
  std::vector<std::string> args = {"--worker", kSubprocessFdArg};
  // The crash hook arms exactly one worker exactly once; its replacement
  // is a normal worker, so the crashed request's retry succeeds.
  if (first && slot == 0 && opts_.crashAfter > 0) {
    args.emplace_back("--crash-after");
    args.emplace_back(std::to_string(opts_.crashAfter));
  }
  const Subprocess sp =
      spawnWithSocket(opts_.executable, std::move(args), error);
  if (!sp.ok()) return std::nullopt;
  Worker w{sp.pid, sp.fd, FdLineReader(sp.fd)};
  std::string pong;
  if (writeLineFd(w.fd, "{\"op\": \"ping\"}") &&
      waitReadable(w.fd, kSpawnHandshakeMs) && w.reader.next(&pong))
    return w;
  if (error != nullptr) *error = "worker handshake timed out";
  retire(w.pid, w.fd, /*kill=*/true);
  return std::nullopt;
}

void WorkerPool::slotLoop(std::size_t slot, std::optional<Worker> w) {
  unsigned crashes = w ? 0 : 1;  // consecutive crashes and failed spawns
  std::uint64_t wireId = 0;
  for (;;) {
    if (!w) {
      if (crashes > kMaxRespawns) return abandonSlot();
      for (const double until = now() + crashBackoff(crashes);
           !stopping_ && now() < until;)
        sleep(slot, -1, until - now());
      if (stopping_) return;
      w = spawnWorker(slot, /*first=*/false, nullptr);
      if (!w) {
        ++crashes;
        continue;
      }
      collector_.addCounter("serve.worker.respawns", 1);
      std::lock_guard<std::mutex> lk(mutex_);
      ++stats_.respawns;
      ++stats_.aliveWorkers;
    }

    Ticket t;
    const Next next = nextTicket(slot, w->fd, &t);
    if (next == Next::Stop) break;
    std::optional<core::VerifyResponse> resp;
    if (next == Next::Ticket) {
      core::VerifyRequest wire = t.req;
      wire.id = ++wireId;  // matches the answer even if clients reuse ids
      std::string line;
      if (writeLineFd(w->fd, compactJson(wire.toJson())) &&
          w->reader.next(&line)) {
        resp = core::VerifyResponse::parse(line);
        if (!resp || resp->id != wireId) {
          collector_.addCounter("serve.worker.badline", 1);
          resp.reset();
        }
      }
    }
    if (resp) {
      crashes = 0;  // a finished answer ends the streak
      {
        std::lock_guard<std::mutex> lk(mutex_);
        --stats_.inflight;
      }
      drainCv_.notify_all();
      resp->id = t.req.id;
      if (t.done) t.done(*resp);
      continue;
    }

    // The worker died idle or failed its ticket: end it for good (one that
    // wrote a bad line may still run), then retry or fail the ticket.
    retire(w->pid, w->fd, /*kill=*/true);
    w.reset();
    ++crashes;
    collector_.addCounter("serve.worker.crashes", 1);
    std::unique_lock<std::mutex> lk(mutex_);
    ++stats_.crashes;
    --stats_.aliveWorkers;
    if (next != Next::Ticket) continue;
    --stats_.inflight;
    if (++t.attempts <= opts_.maxRetries) {
      t.notBefore =
          now() + kRetryBackoffSeconds * static_cast<double>(t.attempts);
      ++stats_.retries;
      collector_.addCounter("serve.pool.retries", 1);
      queue_.push_front(std::move(t));  // it was admitted first
      wakeFirstIdleLocked();
      continue;
    }
    ++stats_.failed;
    collector_.addCounter("serve.pool.failed", 1);
    lk.unlock();
    drainCv_.notify_all();
    if (t.done) t.done(crashError(t.req, t.attempts));
  }
  retire(w->pid, w->fd, /*kill=*/false);
  std::lock_guard<std::mutex> lk(mutex_);
  --stats_.aliveWorkers;
}

WorkerPool::Next WorkerPool::nextTicket(std::size_t slot, int workerFd,
                                        Ticket* t) {
  bool gone = false;
  for (;;) {
    double wait = -1;  // until woken
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (stopping_) return Next::Stop;
      slots_[slot].idle = !gone;
      // Only the lowest idle slot takes tickets, so an idle pool hands work
      // to slot 0 first; it waits out the earliest retry backoff.
      const bool first =
          std::none_of(slots_.begin(), slots_.begin() + slot,
                       [](const Slot& s) { return s.idle; });
      const double at = now();
      for (auto it = queue_.begin(); first && !gone && it != queue_.end();
           ++it) {
        if (it->notBefore <= at) {
          *t = std::move(*it);
          queue_.erase(it);
          ++stats_.inflight;
          ++stats_.dispatched;
          slots_[slot].idle = false;
          break;
        }
        if (wait < 0 || it->notBefore - at < wait) wait = it->notBefore - at;
      }
      if (!slots_[slot].idle) {
        if (!queue_.empty()) wakeFirstIdleLocked();  // hand on the rest
        return gone ? Next::WorkerGone : Next::Ticket;
      }
    }
    // An idle worker writes nothing, so a readable socket means it died.
    gone = sleep(slot, workerFd, wait);
  }
}

bool WorkerPool::sleep(std::size_t slot, int workerFd, double seconds) {
  pollfd fds[2] = {{slots_[slot].wake, POLLIN, 0}, {workerFd, POLLIN, 0}};
  const int ms =
      seconds < 0 ? -1 : static_cast<int>(std::ceil(seconds * 1000.0));
  if (::poll(fds, 2, ms) <= 0) return false;  // poll skips a negative fd
  if (fds[0].revents != 0) {
    eventfd_t drained;
    ::eventfd_read(fds[0].fd, &drained);
  }
  return fds[1].revents != 0;
}

void WorkerPool::abandonSlot() {
  collector_.addCounter("serve.worker.abandoned", 1);
  std::deque<Ticket> doomed;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    // The last slot gone: nobody will ever run the queue — fail it.
    if (++abandoned_ < slots_.size()) return;
    doomed.swap(queue_);
    stats_.failed += doomed.size();
  }
  if (doomed.empty()) return;
  collector_.addCounter("serve.pool.failed", doomed.size());
  drainCv_.notify_all();
  for (Ticket& t : doomed)
    if (t.done)
      t.done(core::VerifyResponse::makeError(t.req.id, kAllWorkersLost));
}

void WorkerPool::wakeFirstIdleLocked() {
  const auto it = std::find_if(slots_.begin(), slots_.end(),
                               [](const Slot& s) { return s.idle; });
  if (it != slots_.end()) ::eventfd_write(it->wake, 1);
}

void WorkerPool::submit(const core::VerifyRequest& req, Done done) {
  const char* refusal = "server shutting down";
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (started_ && !draining_) {
      if (abandoned_ < slots_.size()) {
        queue_.push_back(Ticket{req, std::move(done)});
        wakeFirstIdleLocked();
        return;
      }
      refusal = kAllWorkersLost;
      ++stats_.failed;
      collector_.addCounter("serve.pool.failed", 1);
    }
  }
  if (done) done(core::VerifyResponse::makeError(req.id, refusal));
}

void WorkerPool::stop() {
  {
    std::unique_lock<std::mutex> lk(mutex_);
    if (!started_) return;
    draining_ = true;
    drainCv_.wait(lk, [this] {
      return queue_.empty() && stats_.inflight == 0;
    });
    stopping_ = true;
    for (const Slot& s : slots_) ::eventfd_write(s.wake, 1);
  }
  for (Slot& s : slots_) {
    s.thread.join();
    ::close(s.wake);
  }
  std::lock_guard<std::mutex> lk(mutex_);
  slots_.clear();
  started_ = false;
}

WorkerPool::Stats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  Stats s = stats_;
  s.queued = queue_.size();
  return s;
}

}  // namespace velev::serve
