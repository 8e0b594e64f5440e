// Fork-join parallelism for the verification flow. Every parallel stage has
// one shape — run body(i) for each i < n, join, rethrow — and makes one
// parallelFor() call: the grid runner in core/ (one index per cell) and the
// intra-cell stages (rewrite slices in rewrite/, Tseitin clause shards in
// prop/, transitivity components in evc/).
//
// A ThreadPool holds no threads, only how many a parallelFor may use. Each
// call spawns its helpers and joins them before it returns, so no thread
// ever sleeps waiting for work and there is no queue to drain. Spawning is
// cheap next to a stage (50–70 µs for a call with three helpers on a
// 4-vCPU Xeon), and a pool of size 1 — or no pool — runs the loop inline.
//
// THREAD-OWNERSHIP RULE (load-bearing for the whole verification flow):
// the EUFM/prop expression DAGs (`eufm::Context`, `prop::PropCtx`) are
// hash-consed with unsynchronized tables and must be owned by exactly one
// thread. Parallel verification therefore builds ONE context PER CELL inside
// the cell's body; contexts are never shared or interned across threads.
// The one sanctioned exception is intra-cell parallelism
// (VerifyOptions::jobs / GridRunOptions::cellJobs): while the cell's
// context is FROZEN — nothing interning into it — parallelFor bodies may
// read it concurrently through per-slice eufm::ShadowContext overlays,
// which hash-cons their scratch locally. "One owner" generalizes to "one
// frozen base, many read-only overlays"; see docs/SCALING.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace velev {

/// The most workers any flag may ask for: the threads of one parallelFor
/// (--jobs, --cell-jobs, REPRO_JOBS) or velev_serve's worker processes.
inline constexpr unsigned kMaxWorkers = 256;

class ThreadPool {
 public:
  /// `threads` is clamped to 1..kMaxWorkers.
  explicit ThreadPool(unsigned threads = hardwareThreads())
      : threads_(std::clamp(threads, 1u, kMaxWorkers)) {}

  unsigned size() const { return threads_; }

  static unsigned hardwareThreads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
  }

 private:
  unsigned threads_;
};

/// Runs body(i) for every i < count on min(pool->size(), count) threads,
/// the calling thread included; a null pool runs the loop inline. Indexes
/// are handed out one at a time in increasing order, so uneven bodies
/// balance. Once a body throws, no new index starts, and the first
/// exception is rethrown after every helper has joined. A body may take a
/// second argument, the worker number (0 is the calling thread, every
/// helper has its own below min(pool->size(), count)), to keep per-thread
/// state without a lock.
template <class Body>
void parallelFor(const ThreadPool* pool, std::size_t count, Body&& body) {
  const std::size_t threads =
      std::min<std::size_t>(pool == nullptr ? 1 : pool->size(), count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex errorMutex;
  std::exception_ptr error;
  auto work = [&](unsigned worker) {
    try {
      for (std::size_t i = next++; i < count && !failed; i = next++) {
        if constexpr (std::is_invocable_v<Body&, std::size_t, unsigned>)
          body(i, worker);
        else
          body(i);
      }
    } catch (...) {
      failed = true;
      std::lock_guard<std::mutex> lk(errorMutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(threads > 0 ? threads - 1 : 0);
  for (unsigned w = 1; w < threads; ++w) {
    try {
      helpers.emplace_back(work, w);
    } catch (...) {
      break;  // a helper that cannot start leaves its share to the others
    }
  }
  work(0);
  for (std::thread& t : helpers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace velev
