// Content-addressed memo of FINISHED solves — the one way SAT work is
// reused across verifications.
//
// Key: a strong hash of the exact CNF (variable count, clause list) plus
// the solve-relevant options (inprocessing configuration, conflict budget).
// A hit replays the stored Result and the per-call Stats/InprocessStats
// exactly as the original fresh solve produced them: the solver is
// deterministic, so an identical CNF under identical options would
// reproduce them bit for bit, and the memo just skips the work. Verdicts
// and core::reportCounters() are therefore identical with or without a
// memo; only the SAT stage's wall time and arena peak differ.
//
// The paper's Table 5 size-independence is why this pays: the rewritten
// correctness formula's CNF does not depend on the ROB size at a fixed
// issue width, so one solve serves a whole column of (N, k) cells. Each
// core::runGrid call and each velev_serve worker process holds one memo.
//
// Only conclusive results are stored (never Unknown — a budget or
// conflict-budget trip is a property of the run, not of the formula).
// Bounded FIFO capacity. Thread-safe: concurrent grid cells share one memo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "prop/cnf.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"

namespace velev::sat {

class SolveMemo {
 public:
  struct Entry {
    Result result = Result::Unknown;
    Stats stats;
    InprocessStats inprocessStats;
    bool inprocessed = false;
  };

  explicit SolveMemo(std::size_t maxEntries = 256)
      : maxEntries_(maxEntries == 0 ? 1 : maxEntries) {}

  /// Hash the exact formula + the options that could change the answer or
  /// the effort counters.
  static std::uint64_t key(const prop::Cnf& cnf, const InprocessOptions& iopts,
                           std::int64_t conflictBudget);

  /// A copy of the stored entry, or nullopt on a miss.
  std::optional<Entry> find(std::uint64_t key) const;

  /// Remember one finished solve (Unknown results are refused; the first
  /// store of a key wins).
  void store(std::uint64_t key, Entry entry);

  std::size_t size() const;
  std::uint64_t hits() const;

 private:
  const std::size_t maxEntries_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::vector<std::uint64_t> order_;  // FIFO eviction ring
  mutable std::uint64_t hits_ = 0;
};

}  // namespace velev::sat
