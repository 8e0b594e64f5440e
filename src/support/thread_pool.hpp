// Work-stealing thread pool for the parallel verification paths: the grid
// runner in core/ and the intra-cell stages (rewrite slice loop in
// rewrite/, sharded Tseitin emission in prop/, component-parallel
// transitivity in evc/).
//
// Design:
//   * a fixed number of workers, each with its own deque: the owner pushes
//     and pops at the back (LIFO, cache-friendly), idle workers steal from
//     the front of a victim's deque (FIFO, oldest task first);
//   * submit() returns a std::future — exceptions thrown by a task
//     propagate through the future, never terminate a worker;
//   * cooperative cancellation via CancelToken: a task submitted with a
//     token is skipped (its future throws CancelledError) if the token was
//     cancelled before the task started running. A task that is already
//     running is not interrupted; it stops only if its body checks the
//     token itself.
//
// THREAD-OWNERSHIP RULE (load-bearing for the whole verification flow):
// the EUFM/prop expression DAGs (`eufm::Context`, `prop::PropCtx`) are
// hash-consed with unsynchronized tables and must be owned by exactly one
// task. Parallel verification therefore builds ONE context PER CELL inside
// the worker task; contexts are never shared or interned across threads.
// The one sanctioned exception is intra-cell parallelism
// (VerifyOptions::jobs / GridRunOptions::cellJobs): while the cell's
// context is FROZEN — nothing interning into it — pool workers may read it
// concurrently through per-worker eufm::ShadowContext overlays, which
// hash-cons their scratch locally. "One owner" generalizes to "one frozen
// base, many read-only overlays"; see docs/SCALING.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace velev {

/// Shared cancellation flag. Copies observe the same state; cancel() is
/// sticky. Safe to signal from any thread.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() noexcept { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Thrown (through the future) by tasks whose CancelToken was cancelled
/// before they started executing.
struct CancelledError : std::runtime_error {
  CancelledError() : std::runtime_error("task cancelled before start") {}
};

class ThreadPool {
 public:
  /// `threads` is clamped to at least 1.
  explicit ThreadPool(unsigned threads = hardwareThreads()) {
    const unsigned n = threads == 0 ? 1 : threads;
    queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      queues_.push_back(std::make_unique<Queue>());
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      workers_.emplace_back([this, i] { workerLoop(i); });
  }

  /// Drains every queued task (run-to-completion semantics), then joins.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(sleepMutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Run `f` on some worker; the result (or exception) arrives via the
  /// returned future.
  template <class F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    push([task] { (*task)(); });
    return fut;
  }

  /// As submit(f), but if `token` is cancelled before the task is picked
  /// up, the body is never invoked and the future throws CancelledError.
  template <class F>
  auto submit(CancelToken token, F&& f)
      -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    return submit(
        [token, fn = std::forward<F>(f)]() mutable
        -> std::invoke_result_t<std::decay_t<F>&> {
          if (token.cancelled()) throw CancelledError();
          return fn();
        });
  }

  static unsigned hardwareThreads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
  }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void push(std::function<void()> task) {
    const std::size_t victim =
        nextQueue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    {
      std::lock_guard<std::mutex> lk(queues_[victim]->mutex);
      queues_[victim]->tasks.push_back(std::move(task));
    }
    queued_.fetch_add(1, std::memory_order_release);
    cv_.notify_one();
  }

  // `queued_` counts tasks sitting in a deque; it is decremented the moment
  // a task is taken, so a worker stuck in a long task never makes its
  // siblings spin at shutdown.
  bool popOwn(std::size_t self, std::function<void()>& out) {
    Queue& q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (q.tasks.empty()) return false;
    out = std::move(q.tasks.back());
    q.tasks.pop_back();
    queued_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  bool steal(std::size_t self, std::function<void()>& out) {
    const std::size_t n = queues_.size();
    for (std::size_t d = 1; d < n; ++d) {
      Queue& q = *queues_[(self + d) % n];
      std::lock_guard<std::mutex> lk(q.mutex);
      if (q.tasks.empty()) continue;
      out = std::move(q.tasks.front());  // steal the oldest task
      q.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_release);
      return true;
    }
    return false;
  }

  void workerLoop(std::size_t self) {
    std::function<void()> task;
    for (;;) {
      if (popOwn(self, task) || steal(self, task)) {
        task();
        task = nullptr;
        continue;
      }
      std::unique_lock<std::mutex> lk(sleepMutex_);
      if (stop_ && queued_.load(std::memory_order_acquire) == 0) return;
      cv_.wait(lk, [this] {
        return stop_ || queued_.load(std::memory_order_acquire) > 0;
      });
      if (stop_ && queued_.load(std::memory_order_acquire) == 0) return;
    }
  }

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> nextQueue_{0};
  std::atomic<std::size_t> queued_{0};
  std::mutex sleepMutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by sleepMutex_
};

}  // namespace velev
