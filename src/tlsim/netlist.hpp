// Term-level netlist: the hardware-description layer of the TLSim analogue.
//
// A netlist is a DAG of signals over the two EUFM sorts. State elements are
// latches (formula- or term-sorted; a memory is just a term-sorted latch
// holding a memory-state term). Combinational signals mirror the EUFM
// operators. Signal ids are assigned in creation order, so they are already
// topologically sorted: a combinational signal may only reference
// previously created signals (latches may reference any signal through
// `setNext`, closing the sequential loop).
//
// This restricted description style is exactly the one advocated in the
// Velev/Bryant flow (CHARME'99): high-level processor models built from
// latches, memories, ITE-multiplexers, equality comparators and
// uninterpreted functional blocks.
//
// Layout: a Signal is a fixed 20-byte record. All combinational fan-in lives
// in one flat pool (`args(s)` is a span into it), and the names of latches
// and inputs live in a side table that only diagnostics read, so building a
// netlist allocates nothing per signal.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eufm/expr.hpp"

namespace velev::tlsim {

using SignalId = std::uint32_t;
constexpr SignalId kNoSignal = 0xffffffffu;

enum class Op : std::uint8_t {
  Fixed,   // a fixed EUFM expression (constants, shared symbolic state)
  Input,   // an expression settable by the test bench between cycles
  Latch,   // state element; value = current state, next driven via setNext
  Not,
  And,
  Or,
  IteF,
  Eq,
  IteT,
  Read,
  Write,
  Apply,   // uninterpreted function / predicate application
};

struct Signal {
  Op op;
  eufm::Sort sort;
  std::uint8_t nargs = 0;            // fan-in count (Apply: <= eufm::kMaxArity)
  eufm::FuncId func = 0;             // Apply only
  std::uint32_t argsOfs = 0;         // fan-in offset into the netlist's pool
  eufm::Expr fixed = eufm::kNoExpr;  // Fixed: the expression; Latch: init state
  SignalId next = kNoSignal;         // Latch only
};
static_assert(sizeof(Signal) == 20);

class Netlist {
 public:
  explicit Netlist(eufm::Context& cx) : cx_(cx) {}
  Netlist(const Netlist&) = delete;
  Netlist& operator=(const Netlist&) = delete;

  eufm::Context& ctx() const { return cx_; }

  // ---- sources -------------------------------------------------------------
  SignalId sFixed(eufm::Expr e);
  SignalId sTrue() { return sFixed(cx_.mkTrue()); }
  SignalId sFalse() { return sFixed(cx_.mkFalse()); }
  SignalId sInput(std::string name, eufm::Sort sort);
  /// Latch with explicit initial-state expression.
  SignalId sLatch(std::string name, eufm::Sort sort, eufm::Expr init);
  /// Latch whose initial state is a variable named after the latch
  /// ("<name>_0") — the usual way of leaving initial state symbolic.
  SignalId sLatchFree(std::string name, eufm::Sort sort);

  /// Drive the next-state input of `latch` (must be called exactly once per
  /// latch before simulation).
  void setNext(SignalId latch, SignalId next);

  // ---- combinational -------------------------------------------------------
  SignalId sNot(SignalId a);
  SignalId sAnd(SignalId a, SignalId b);
  SignalId sOr(SignalId a, SignalId b);
  SignalId sIteF(SignalId c, SignalId t, SignalId e);
  SignalId sEq(SignalId a, SignalId b);
  SignalId sIteT(SignalId c, SignalId t, SignalId e);
  SignalId sRead(SignalId mem, SignalId addr);
  SignalId sWrite(SignalId mem, SignalId addr, SignalId data);
  SignalId sApply(eufm::FuncId f, std::span<const SignalId> args);
  SignalId sApply(eufm::FuncId f, std::initializer_list<SignalId> args) {
    return sApply(f, std::span<const SignalId>(args.begin(), args.size()));
  }

  // ---- introspection ---------------------------------------------------------
  const Signal& signal(SignalId s) const {
    VELEV_CHECK(s < signals_.size());
    return signals_[s];
  }
  /// Combinational fan-in of `s`, in operand order (empty for sources).
  std::span<const SignalId> args(SignalId s) const {
    const Signal& sg = signal(s);
    return {argPool_.data() + sg.argsOfs, sg.nargs};
  }
  /// Name of a latch or input; empty for every other signal. For
  /// diagnostics: a binary search, not meant for hot loops.
  std::string_view name(SignalId s) const;
  std::size_t numSignals() const { return signals_.size(); }
  const std::vector<SignalId>& latches() const { return latches_; }
  eufm::Sort sortOf(SignalId s) const { return signal(s).sort; }

  /// Verify every latch has a next-state driver; throws otherwise.
  void checkComplete() const;

 private:
  SignalId add(Signal s, std::span<const SignalId> args = {});
  SignalId comb(Op op, eufm::Sort sort, std::initializer_list<SignalId> args);
  SignalId addNamed(Signal s, std::string name);
  eufm::Context& cx_;
  std::vector<Signal> signals_;
  std::vector<SignalId> argPool_;  // all fan-in, in signal-creation order
  std::vector<SignalId> latches_;
  // (signal, name) of every latch and input, in ascending signal order.
  std::vector<std::pair<SignalId, std::string>> names_;
};

}  // namespace velev::tlsim
