// Content-addressed result cache of the velev_serve daemon.
//
// Keys are core::VerifyRequest::cacheKey(): a hash of the canonical
// (id-free) request JSON mixed with the code version, so identical cells
// verified by the same binary share one entry and a rebuilt binary never
// serves a stale verdict.
//
// The cache has three answers to "who computes this key?":
//   * Hit     — a finished response is stored; the caller gets a copy
//               (marked cached=true) immediately;
//   * Owner   — nobody is on it; the caller MUST eventually fulfill() or
//               abandon() the key (the entry is in-flight until then);
//   * Joined  — another caller is already computing it; the caller's
//               waiter callback was registered and fires when the owner
//               fulfills (or abandons) — concurrent identical requests
//               coalesce onto ONE running job.
//
// Waiters are callbacks, not blocking futures, on purpose: a job's answer
// arrives on a worker pool slot thread, and that thread blocking on a
// sibling job's future could wait for a job only its own slot would run.
// fulfill() invokes the waiters OUTSIDE the cache lock (a waiter writes to
// a socket or fulfills a promise — never reenters the cache).
//
// Not every outcome is cacheable: the daemon never stores wall-clock
// Timeout verdicts (whether a deadline trips depends on machine load, so
// replaying one from the cache would freeze a nondeterministic answer);
// see VerifyServer for the policy. An uncacheable fulfill still wakes the
// coalesced waiters with the fresh result — it just leaves no entry.
//
// Eviction is LRU over READY entries only, bounded by maxEntries;
// in-flight entries are never evicted (their owner holds the key).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/request.hpp"

namespace velev::serve {

class ResultCache {
 public:
  /// Invoked with the finished response; `cached` on it is already set
  /// (true for joiners — their answer came from a coalesced job).
  using Waiter = std::function<void(const core::VerifyResponse&)>;

  enum class Claim { Hit, Owner, Joined };

  struct Stats {
    std::uint64_t hits = 0;       // served from a ready entry
    std::uint64_t misses = 0;     // claims that became Owner
    std::uint64_t coalesced = 0;  // claims that joined an in-flight job
    std::uint64_t evictions = 0;  // ready entries dropped by LRU
    std::uint64_t entries = 0;    // ready entries currently stored
    std::uint64_t inflight = 0;   // keys currently being computed
  };

  explicit ResultCache(std::size_t maxEntries = 1024)
      : maxEntries_(maxEntries == 0 ? 1 : maxEntries) {}

  /// Look up `key`. On Hit, `*out` is the stored response with
  /// cached=true (the caller re-stamps the id). On Joined, `waiter` fires
  /// later from the owner's fulfill()/abandon(). On Owner, the caller owns
  /// the computation and must fulfill() or abandon() exactly once.
  Claim claim(std::uint64_t key, core::VerifyResponse* out, Waiter waiter);

  /// Install a ready entry restored from the result store
  /// (core/result_store.hpp). No-op when the key already exists (ready or
  /// in-flight). Counts toward `entries` and is LRU-managed like any other
  /// ready entry, but does not touch hit/miss statistics — seeding is
  /// startup, not traffic.
  void seed(std::uint64_t key, const core::VerifyResponse& resp);

  /// Owner's completion: store the response (when `cacheable`) and wake
  /// the coalesced waiters with it (cached=true on their copies — their
  /// answer exists because of a job they did not run).
  void fulfill(std::uint64_t key, const core::VerifyResponse& resp,
               bool cacheable);

  /// Owner's failure path (the job threw, or the server is shutting
  /// down): wake the waiters with `resp` (typically an error response) and
  /// store nothing.
  void abandon(std::uint64_t key, const core::VerifyResponse& resp);

  Stats stats() const;

 private:
  struct Entry {
    bool ready = false;
    core::VerifyResponse response;   // valid when ready
    std::vector<Waiter> waiters;     // non-empty only while in-flight
    std::uint64_t lastUse = 0;       // LRU clock (claims + fulfill)
  };

  /// Pop the waiters and (maybe) store the response; returns the waiters
  /// to invoke outside the lock.
  std::vector<Waiter> settle(std::uint64_t key,
                             const core::VerifyResponse& resp, bool store);

  void evictIfFullLocked();

  const std::size_t maxEntries_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace velev::serve
