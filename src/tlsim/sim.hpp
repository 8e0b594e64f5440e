// Demand-driven symbolic simulator over a term-level netlist.
//
// Each cycle, latch next-state expressions are pulled through the
// combinational logic, building EUFM expressions in the shared Context.
// With `coneOfInfluence` enabled (the default, and the optimization the
// paper reports was necessary to simulate 1,500-entry reorder buffers),
// evaluation short-circuits on concrete control: an AND with a concretely
// false conjunct never evaluates its remaining fan-in, and an ITE with a
// concrete condition evaluates only the taken branch. During flushing,
// where exactly one completion slice is active per cycle, this confines
// per-cycle work to the active slice's cone — the same effect as TLSim's
// event-driven engine evaluating "only the cone of influence of latches or
// memories whose state is updated in the current time step".
//
// With `coneOfInfluence` disabled (the ablation mode of bench/table1), every
// signal is fully evaluated every cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "tlsim/netlist.hpp"

namespace velev::tlsim {

struct SimOptions {
  bool coneOfInfluence = true;
};

struct SimStats {
  std::uint64_t signalEvals = 0;  // non-memoized signal evaluations
  std::uint64_t cycles = 0;
};

class Simulator {
 public:
  using Options = SimOptions;
  using Stats = SimStats;

  explicit Simulator(const Netlist& nl, Options opts = {});

  /// Drive a test-bench input for the current and subsequent cycles.
  void setInput(SignalId input, eufm::Expr e);

  /// Current-cycle value of any signal (combinational or state).
  eufm::Expr value(SignalId s);

  /// Current state of a latch.
  eufm::Expr state(SignalId latch) const;

  /// Override the state of a latch (e.g. to start the specification from an
  /// implementation-derived state when building the commutative diagram).
  void setState(SignalId latch, eufm::Expr e);

  /// Advance one clock cycle: evaluate all latch next-states against the
  /// current state, then commit simultaneously.
  void step();

  const Stats& stats() const { return stats_; }

 private:
  eufm::Expr eval(SignalId s);
  void invalidate() { ++epoch_; }

  const Netlist& nl_;
  eufm::Context& cx_;
  Options opts_;
  Stats stats_;

  std::vector<eufm::Expr> stateVal_;  // indexed by SignalId (latches only)
  std::vector<eufm::Expr> inputVal_;  // indexed by SignalId (inputs only)
  std::vector<eufm::Expr> memo_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;

  // Scratch for the iterative evaluator.
  struct Frame {
    SignalId sig;
    std::uint32_t idx;
  };
  std::vector<Frame> stack_;
  std::vector<eufm::Expr> applyArgs_;  // argument values of one Apply
};

}  // namespace velev::tlsim
