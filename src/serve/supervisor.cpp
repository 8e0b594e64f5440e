#include "serve/supervisor.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
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

}  // namespace

WorkerPool::WorkerPool(WorkerPoolOptions opts, trace::Collector& collector)
    : opts_(std::move(opts)), collector_(collector) {
  if (opts_.processes == 0) opts_.processes = 1;
}

WorkerPool::~WorkerPool() { stop(); }

bool WorkerPool::start(std::string* error) {
  std::unique_lock<std::mutex> lk(mutex_);
  if (started_) return true;
  if (opts_.executable.empty()) {
    if (error != nullptr) *error = "worker pool: no executable configured";
    return false;
  }
  workers_.clear();
  for (unsigned i = 0; i < opts_.processes; ++i)
    workers_.push_back(std::make_unique<Worker>());

  unsigned alive = 0;
  std::string firstErr;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    std::string err;
    if (spawnWorkerLocked(i, /*first=*/true, lk, &err))
      ++alive;
    else if (firstErr.empty())
      firstErr = err;
  }
  if (alive == 0) {
    if (error != nullptr)
      *error = "worker pool: no worker could be spawned: " + firstErr;
    workers_.clear();  // no spawn succeeded, so no reader threads exist
    return false;
  }
  started_ = true;
  draining_ = false;
  stopping_ = false;
  dispatcher_ = std::thread([this] { dispatcherLoop(); });
  return true;
}

bool WorkerPool::spawnWorkerLocked(std::size_t slot, bool first,
                                   std::unique_lock<std::mutex>& lk,
                                   std::string* error) {
  Worker& w = *workers_[slot];
  w.spawning = true;
  std::vector<std::string> args = {"--worker", kSubprocessFdArg};
  // The crash hook arms exactly one worker exactly once; its replacement
  // is a normal worker, so the crashed request's retry succeeds.
  if (first && slot == 0 && opts_.crashAfter > 0) {
    args.emplace_back("--crash-after");
    args.emplace_back(std::to_string(opts_.crashAfter));
  }

  lk.unlock();
  if (w.reader.joinable()) w.reader.join();  // reader of the previous life
  std::string err;
  Subprocess sp = spawnWithSocket(opts_.executable, std::move(args), &err);
  bool ok = sp.ok();
  if (ok) {
    ok = writeLineFd(sp.fd, "{\"op\": \"ping\"}") &&
         waitReadable(sp.fd, kSpawnHandshakeMs);
    if (ok) {
      // The worker writes nothing after the pong until it is sent work,
      // so this throwaway reader cannot swallow response bytes.
      FdLineReader handshake(sp.fd);
      std::string pong;
      ok = handshake.next(&pong);
    }
    if (!ok) {
      err = "worker handshake timed out";
      ::close(sp.fd);
      reapProcess(sp.pid, /*block=*/true);
    }
  }
  lk.lock();
  w.spawning = false;
  if (!ok) {
    if (error != nullptr) *error = err;
    ++w.consecutiveCrashes;
    if (w.consecutiveCrashes > kMaxRespawns) {
      w.abandoned = true;
      collector_.addCounter("serve.worker.abandoned", 1);
    } else {
      w.respawnAt = now() + crashBackoff(w.consecutiveCrashes);
    }
    return false;
  }
  w.pid = sp.pid;
  w.fd = sp.fd;
  w.alive = true;
  w.respawnAt = 0;
  w.reader = std::thread([this, slot] { readerLoop(slot); });
  if (!first) {
    ++stats_.respawns;
    collector_.addCounter("serve.worker.respawns", 1);
  }
  return true;
}

void WorkerPool::submit(const core::VerifyRequest& req, Done done) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (started_ && !draining_ && !stopping_) {
      Ticket t;
      t.req = req;
      t.done = std::move(done);
      queue_.push_back(std::move(t));
      cv_.notify_all();
      return;
    }
  }
  if (done)
    done(core::VerifyResponse::makeError(req.id, "server shutting down"));
}

void WorkerPool::readerLoop(std::size_t slot) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    fd = workers_[slot]->fd;
  }
  FdLineReader reader(fd);
  std::string line;
  while (reader.next(&line)) {
    if (line.empty()) continue;
    std::optional<core::VerifyResponse> resp =
        core::VerifyResponse::parse(line);
    if (!resp.has_value()) {
      collector_.addCounter("serve.worker.badline", 1);
      continue;
    }
    Ticket t;
    bool found = false;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      Worker& w = *workers_[slot];
      const auto it = w.inflight.find(resp->id);
      if (it != w.inflight.end()) {
        t = std::move(it->second);
        w.inflight.erase(it);
        found = true;
        w.consecutiveCrashes = 0;  // a finished answer ends the streak
      }
    }
    cv_.notify_all();
    drainCv_.notify_all();
    if (!found) continue;
    resp->id = t.req.id;  // un-stamp the supervisor wire id
    if (t.done) t.done(*resp);
  }
  onWorkerDeath(slot);
}

void WorkerPool::onWorkerDeath(std::size_t slot) {
  std::vector<Ticket> doomed;
  pid_t pid = -1;
  bool crashed = false;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    Worker& w = *workers_[slot];
    if (!w.alive) return;
    w.alive = false;
    pid = w.pid;
    w.pid = -1;
    if (w.fd >= 0) {
      ::close(w.fd);
      w.fd = -1;
    }
    std::map<std::uint64_t, Ticket> inflight = std::move(w.inflight);
    w.inflight.clear();
    crashed = !stopping_;
    if (crashed) {
      ++stats_.crashes;
      collector_.addCounter("serve.worker.crashes", 1);
      ++w.consecutiveCrashes;
      if (w.consecutiveCrashes > kMaxRespawns) {
        w.abandoned = true;
        collector_.addCounter("serve.worker.abandoned", 1);
      } else {
        w.respawnAt = now() + crashBackoff(w.consecutiveCrashes);
      }
    }
    // In-flight tickets: retry on a sibling (front of the queue — they
    // were admitted first) or, past the retry budget, fail. A clean stop
    // should never see in-flight work (stop() drains first), but if it
    // does, failing beats hanging.
    for (auto& [wid, t] : inflight) {
      ++t.attempts;
      if (crashed && t.attempts <= opts_.maxRetries) {
        t.notBefore =
            now() + kRetryBackoffSeconds * static_cast<double>(t.attempts);
        ++stats_.retries;
        collector_.addCounter("serve.pool.retries", 1);
        queue_.push_front(std::move(t));
      } else {
        ++stats_.failed;
        collector_.addCounter("serve.pool.failed", 1);
        doomed.push_back(std::move(t));
      }
    }
  }
  if (pid > 0) reapProcess(pid, /*block=*/true);
  cv_.notify_all();
  drainCv_.notify_all();
  for (Ticket& t : doomed)
    if (t.done) t.done(crashError(t.req, t.attempts));
}

void WorkerPool::dispatcherLoop() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (!stopping_) {
    const double t = now();
    bool didWork = false;

    // 1. Respawn slots whose backoff has elapsed.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      if (w.alive || w.abandoned || w.spawning || w.respawnAt > t) continue;
      spawnWorkerLocked(i, /*first=*/false, lk, nullptr);
      if (stopping_) return;  // stop() raced in while the lock was down
      didWork = true;
    }

    // 2. Every slot abandoned: nobody will ever run the queue — fail it.
    bool anyUsable = false;
    for (const auto& w : workers_)
      if (!w->abandoned) {
        anyUsable = true;
        break;
      }
    if (!anyUsable && !queue_.empty()) {
      std::deque<Ticket> doomed = std::move(queue_);
      queue_.clear();
      stats_.failed += doomed.size();
      collector_.addCounter("serve.pool.failed", doomed.size());
      drainCv_.notify_all();
      lk.unlock();
      for (Ticket& tk : doomed)
        if (tk.done)
          tk.done(core::VerifyResponse::makeError(
              tk.req.id, "internal error: all verification workers lost"));
      lk.lock();
      continue;
    }

    // 3. Assign work to idle live workers. Writes happen under the lock:
    //    a worker has at most one request outstanding, far below the
    //    socketpair buffer, so these writes never block.
    for (std::size_t i = 0; i < workers_.size() && !queue_.empty(); ++i) {
      Worker& w = *workers_[i];
      if (!w.alive || !w.inflight.empty() || w.spawning) continue;
      const auto ready = std::find_if(
          queue_.begin(), queue_.end(),
          [t](const Ticket& tk) { return tk.notBefore <= t; });
      if (ready == queue_.end()) break;  // nothing ready before its backoff

      core::VerifyRequest copy = ready->req;
      copy.id = nextWireId_;
      ++stats_.dispatched;
      w.inflight.emplace(nextWireId_++, std::move(*ready));
      queue_.erase(ready);
      // A failed write means the worker is dying: its reader sees EOF
      // and retries the ticket.
      writeLineFd(w.fd, compactJson(copy.toJson()));
      didWork = true;
    }

    // 4. Drain signal for stop().
    std::uint64_t inflight = 0;
    for (const auto& w : workers_) inflight += w->inflight.size();
    if (queue_.empty() && inflight == 0) drainCv_.notify_all();

    if (didWork) continue;

    // 5. Sleep until the next deadline (respawn or retry backoff), with a
    //    0.5 s heartbeat as a safety net.
    double next = t + 0.5;
    for (const auto& w : workers_)
      if (!w->alive && !w->abandoned && !w->spawning && w->respawnAt > t)
        next = std::min(next, w->respawnAt);
    for (const auto& tk : queue_)
      if (tk.notBefore > t) next = std::min(next, tk.notBefore);
    const double waitS = std::max(1e-3, next - now());
    cv_.wait_for(lk, std::chrono::duration<double>(waitS));
  }
}

void WorkerPool::stop() {
  {
    std::unique_lock<std::mutex> lk(mutex_);
    if (!started_) return;
    draining_ = true;
    cv_.notify_all();
    drainCv_.wait(lk, [this] {
      if (!queue_.empty()) return false;
      for (const auto& w : workers_)
        if (!w->inflight.empty()) return false;
      return true;
    });
    stopping_ = true;
    cv_.notify_all();
  }
  dispatcher_.join();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    // close() alone does not wake a thread blocked in read(); shutdown()
    // does — the same trick the server uses on client connections.
    for (const auto& w : workers_)
      if (w->fd >= 0) ::shutdown(w->fd, SHUT_RDWR);
  }
  for (const auto& w : workers_)
    if (w->reader.joinable()) w->reader.join();
  std::lock_guard<std::mutex> lk(mutex_);
  started_ = false;
}

WorkerPool::Stats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  Stats s = stats_;
  s.queued = queue_.size();
  s.inflight = 0;
  s.aliveWorkers = 0;
  for (const auto& w : workers_) {
    s.inflight += w->inflight.size();
    if (w->alive) ++s.aliveWorkers;
  }
  return s;
}

}  // namespace velev::serve
