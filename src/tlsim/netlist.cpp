#include "tlsim/netlist.hpp"

#include <algorithm>

namespace velev::tlsim {

using eufm::Sort;

SignalId Netlist::add(Signal s, std::span<const SignalId> args) {
  for (SignalId a : args)
    VELEV_CHECK_MSG(a < signals_.size(),
                    "combinational signal references a later signal");
  s.nargs = static_cast<std::uint8_t>(args.size());
  s.argsOfs = static_cast<std::uint32_t>(argPool_.size());
  argPool_.insert(argPool_.end(), args.begin(), args.end());
  signals_.push_back(s);
  return static_cast<SignalId>(signals_.size() - 1);
}

SignalId Netlist::comb(Op op, Sort sort,
                       std::initializer_list<SignalId> args) {
  return add(Signal{op, sort}, {args.begin(), args.size()});
}

SignalId Netlist::addNamed(Signal s, std::string name) {
  const SignalId id = add(s);
  names_.emplace_back(id, std::move(name));
  return id;
}

std::string_view Netlist::name(SignalId s) const {
  auto it = std::lower_bound(
      names_.begin(), names_.end(), s,
      [](const auto& entry, SignalId id) { return entry.first < id; });
  return it != names_.end() && it->first == s ? std::string_view(it->second)
                                              : std::string_view();
}

SignalId Netlist::sFixed(eufm::Expr e) {
  Signal s{Op::Fixed, cx_.sort(e)};
  s.fixed = e;
  return add(s);
}

SignalId Netlist::sInput(std::string name, Sort sort) {
  return addNamed(Signal{Op::Input, sort}, std::move(name));
}

SignalId Netlist::sLatch(std::string name, Sort sort, eufm::Expr init) {
  VELEV_CHECK(cx_.sort(init) == sort);
  Signal s{Op::Latch, sort};
  s.fixed = init;
  const SignalId id = addNamed(s, std::move(name));
  latches_.push_back(id);
  return id;
}

SignalId Netlist::sLatchFree(std::string name, Sort sort) {
  const std::string initName = name + "_0";
  const eufm::Expr init = sort == Sort::Formula ? cx_.boolVar(initName)
                                                : cx_.termVar(initName);
  return sLatch(std::move(name), sort, init);
}

void Netlist::setNext(SignalId latch, SignalId next) {
  VELEV_CHECK(signals_[latch].op == Op::Latch);
  VELEV_CHECK_MSG(signals_[latch].next == kNoSignal,
                  "latch " << name(latch) << " driven twice");
  VELEV_CHECK(signals_[next].sort == signals_[latch].sort);
  signals_[latch].next = next;
}

SignalId Netlist::sNot(SignalId a) {
  VELEV_CHECK(sortOf(a) == Sort::Formula);
  return comb(Op::Not, Sort::Formula, {a});
}

SignalId Netlist::sAnd(SignalId a, SignalId b) {
  VELEV_CHECK(sortOf(a) == Sort::Formula && sortOf(b) == Sort::Formula);
  return comb(Op::And, Sort::Formula, {a, b});
}

SignalId Netlist::sOr(SignalId a, SignalId b) {
  VELEV_CHECK(sortOf(a) == Sort::Formula && sortOf(b) == Sort::Formula);
  return comb(Op::Or, Sort::Formula, {a, b});
}

SignalId Netlist::sIteF(SignalId c, SignalId t, SignalId e) {
  VELEV_CHECK(sortOf(c) == Sort::Formula && sortOf(t) == Sort::Formula &&
              sortOf(e) == Sort::Formula);
  return comb(Op::IteF, Sort::Formula, {c, t, e});
}

SignalId Netlist::sEq(SignalId a, SignalId b) {
  VELEV_CHECK(sortOf(a) == Sort::Term && sortOf(b) == Sort::Term);
  return comb(Op::Eq, Sort::Formula, {a, b});
}

SignalId Netlist::sIteT(SignalId c, SignalId t, SignalId e) {
  VELEV_CHECK(sortOf(c) == Sort::Formula && sortOf(t) == Sort::Term &&
              sortOf(e) == Sort::Term);
  return comb(Op::IteT, Sort::Term, {c, t, e});
}

SignalId Netlist::sRead(SignalId mem, SignalId addr) {
  VELEV_CHECK(sortOf(mem) == Sort::Term && sortOf(addr) == Sort::Term);
  return comb(Op::Read, Sort::Term, {mem, addr});
}

SignalId Netlist::sWrite(SignalId mem, SignalId addr, SignalId data) {
  VELEV_CHECK(sortOf(mem) == Sort::Term && sortOf(addr) == Sort::Term &&
              sortOf(data) == Sort::Term);
  return comb(Op::Write, Sort::Term, {mem, addr, data});
}

SignalId Netlist::sApply(eufm::FuncId f, std::span<const SignalId> args) {
  // The arity is bounded by eufm::kMaxArity at declaration, so it fits nargs.
  const eufm::FuncInfo& fi = cx_.func(f);
  VELEV_CHECK(fi.arity == args.size());
  for (SignalId a : args) VELEV_CHECK(sortOf(a) == Sort::Term);
  Signal s{Op::Apply, fi.isPredicate ? Sort::Formula : Sort::Term};
  s.func = f;
  return add(s, args);
}

void Netlist::checkComplete() const {
  for (SignalId l : latches_)
    VELEV_CHECK_MSG(signals_[l].next != kNoSignal,
                    "latch " << name(l) << " has no next-state driver");
}

}  // namespace velev::tlsim
