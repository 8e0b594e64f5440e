// Cooperative resource governor: wall-clock and memory budgets for a single
// verification run.
//
// The paper's Table 2 is *defined* by resource exhaustion — the PE-only flow
// "runs out of 4 GB of memory" at ROB sizes >= 16 — so the pipeline must be
// able to stop a run that exceeds a budget and report it as a verdict
// (Timeout / MemOut) instead of crashing the process or, worse, OOM-killing
// a whole parallel grid. There is no portable way to preempt a C++ thread,
// so governance is cooperative: every hot loop of the pipeline
// (eufm::Context::intern, prop::PropCtx::internAnd, Tseitin clause emission,
// transitivity-constraint generation, the rewrite engine's slice loop, the
// SAT solver's propagation loop) periodically calls back into a shared
// BudgetGovernor.
//
// Memory is governed on *logical arena bytes* — the sum of what each
// registered component reports it has allocated (hash-cons tables, node
// arenas, clause databases) — not on process RSS. Logical bytes are
// deterministic and strictly per-verification, so a budget-tripped cell in a
// parallel grid cannot perturb its siblings (RSS is process-wide and
// monotone: a sibling's allocations would count against every cell). The
// process-wide RSS high-water mark is still *recorded* for accounting, it
// just never trips a budget.
//
// Thread-safety: a governor is shared by the intra-cell workers of one
// verification (rewrite slices, transitivity components), so all mutating
// entry points are lock-free atomics. The trip is sticky — the first
// checkpoint that observes exhaustion wins a CAS, writes the reason, and
// every later poll sees the same verdict.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>

namespace velev {

/// Per-verification resource limits. Default-constructed = unlimited.
struct ResourceBudget {
  /// Wall-clock deadline in seconds; <= 0 means unlimited.
  double wallSeconds = 0;
  /// Logical arena budget in bytes (hash-cons tables + node arenas + clause
  /// databases, summed over the pipeline); 0 means unlimited.
  std::size_t memoryBytes = 0;
  /// SAT conflict budget; < 0 means unlimited. Exhausting it yields
  /// Verdict::Inconclusive (the classic "gave up", not Timeout/MemOut).
  std::int64_t satConflicts = -1;

  bool limited() const { return wallSeconds > 0 || memoryBytes > 0; }
};

/// Which budget a governor tripped on.
enum class BudgetKind : std::uint8_t { None = 0, Deadline = 1, Memory = 2 };

const char* budgetKindName(BudgetKind kind);

/// Thrown by BudgetGovernor::checkpoint() when a budget is exhausted.
/// Deliberately NOT an InternalError: callers that catch InternalError as
/// "library bug / usage error" must not swallow a budget trip.
class BudgetExceeded : public std::exception {
 public:
  BudgetExceeded(BudgetKind kind, std::string what)
      : kind_(kind), what_(std::move(what)) {}

  BudgetKind kind() const { return kind_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  BudgetKind kind_;
  std::string what_;
};

/// Arms a ResourceBudget at construction and answers cheap cooperative
/// checkpoints from the pipeline's hot loops.
///
/// Each component that owns memory registers a source slot once
/// (registerSource()) and thereafter reports its own current total through
/// checkpoint()/poll(); the memory-trip condition is the *sum* over all
/// slots. Time is checked on a stride (every kTimeStride calls) so a
/// checkpoint in a tight loop costs a few atomic ops, not a clock read.
class BudgetGovernor {
 public:
  explicit BudgetGovernor(const ResourceBudget& budget);

  BudgetGovernor(const BudgetGovernor&) = delete;
  BudgetGovernor& operator=(const BudgetGovernor&) = delete;

  const ResourceBudget& budget() const { return budget_; }

  /// Claims a byte-accounting slot for one memory-owning component.
  /// Returns -1 when all slots are taken (the component is then governed
  /// for time only and its bytes are folded into a shared overflow slot).
  int registerSource() noexcept;

  /// Throwing checkpoint for contexts that can unwind (translation,
  /// rewriting, CNF construction). `bytes` is the caller's current logical
  /// total for its slot. Throws BudgetExceeded on (possibly prior) trip.
  void checkpoint(int source, std::size_t bytes);

  /// Non-throwing checkpoint for the SAT solver's inner loop (a solver
  /// must never throw mid-propagation; it returns Result::Unknown instead).
  /// Returns true once any budget has been exceeded — sticky.
  bool poll(int source, std::size_t bytes) noexcept;

  bool exceeded() const noexcept {
    return kind_.load(std::memory_order_acquire) != BudgetKind::None;
  }
  BudgetKind exceededKind() const noexcept {
    return kind_.load(std::memory_order_acquire);
  }
  /// Human-readable trip reason; empty while not exceeded. Safe to call
  /// concurrently with polls (the reason is published before the kind).
  std::string exceededReason() const;

  /// Wall seconds since the governor was armed.
  double elapsedSeconds() const;

  /// High-water mark of the summed logical bytes seen across checkpoints.
  std::size_t peakArenaBytes() const noexcept {
    return peakBytes_.load(std::memory_order_relaxed);
  }

  /// Raises a trip from outside a checkpoint (e.g. the CLI translating an
  /// external signal into a budget verdict). First caller wins; later calls
  /// are no-ops.
  void trip(BudgetKind kind, const std::string& reason) noexcept;

 private:
  static constexpr int kMaxSources = 64;
  static constexpr std::uint32_t kTimeStride = 256;

  bool updateAndCheck(int source, std::size_t bytes) noexcept;

  using Clock = std::chrono::steady_clock;

  ResourceBudget budget_;
  Clock::time_point start_;
  std::atomic<int> nextSource_{0};
  std::atomic<std::size_t> sourceBytes_[kMaxSources] = {};
  std::atomic<std::size_t> overflowBytes_{0};  // max over unslotted callers
  std::atomic<std::size_t> peakBytes_{0};
  std::atomic<std::uint32_t> tick_{0};
  std::atomic<bool> claimed_{false};  // trip-claim token; winner writes reason_
  std::atomic<BudgetKind> kind_{BudgetKind::None};
  std::string reason_;  // written once by the claim winner, then read-only
};

}  // namespace velev
