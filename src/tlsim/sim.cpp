#include "tlsim/sim.hpp"

#include "support/trace.hpp"

namespace velev::tlsim {

using eufm::Expr;
using eufm::kNoExpr;

Simulator::Simulator(const Netlist& nl, Options opts)
    : nl_(nl), cx_(nl.ctx()), opts_(opts) {
  nl_.checkComplete();
  const std::size_t n = nl_.numSignals();
  stateVal_.assign(n, kNoExpr);
  inputVal_.assign(n, kNoExpr);
  memo_.assign(n, kNoExpr);
  stamp_.assign(n, 0);
  for (SignalId l : nl_.latches()) stateVal_[l] = nl_.signal(l).fixed;
}

void Simulator::setInput(SignalId input, Expr e) {
  VELEV_CHECK(nl_.signal(input).op == Op::Input);
  VELEV_CHECK(cx_.sort(e) == nl_.signal(input).sort);
  inputVal_[input] = e;
  invalidate();
}

Expr Simulator::state(SignalId latch) const {
  VELEV_CHECK(nl_.signal(latch).op == Op::Latch);
  return stateVal_[latch];
}

void Simulator::setState(SignalId latch, Expr e) {
  VELEV_CHECK(nl_.signal(latch).op == Op::Latch);
  VELEV_CHECK(cx_.sort(e) == nl_.signal(latch).sort);
  stateVal_[latch] = e;
  invalidate();
}

Expr Simulator::value(SignalId s) {
  VELEV_CHECK(s < nl_.numSignals());
  return eval(s);
}

Expr Simulator::eval(SignalId root) {
  if (stamp_[root] == epoch_) return memo_[root];
  const Expr cTrue = cx_.mkTrue(), cFalse = cx_.mkFalse();
  const bool coi = opts_.coneOfInfluence;

  auto ready = [&](SignalId s) { return stamp_[s] == epoch_; };
  auto finish = [&](SignalId s, Expr v) {
    memo_[s] = v;
    stamp_[s] = epoch_;
    ++stats_.signalEvals;
    stack_.pop_back();
  };

  stack_.clear();
  stack_.push_back(Frame{root, 0});
  while (!stack_.empty()) {
    const SignalId sig = stack_.back().sig;
    if (ready(sig)) {
      stack_.pop_back();
      continue;
    }
    const Signal& sg = nl_.signal(sig);
    const std::span<const SignalId> args = nl_.args(sig);
    switch (sg.op) {
      case Op::Fixed:
        finish(sig, sg.fixed);
        break;
      case Op::Input:
        VELEV_CHECK_MSG(inputVal_[sig] != kNoExpr,
                        "input '" << nl_.name(sig) << "' not driven");
        finish(sig, inputVal_[sig]);
        break;
      case Op::Latch:
        finish(sig, stateVal_[sig]);
        break;
      case Op::And:
      case Op::Or: {
        const Expr absorb = sg.op == Op::And ? cFalse : cTrue;
        if (!ready(args[0])) {
          stack_.push_back(Frame{args[0], 0});
          break;
        }
        const Expr v0 = memo_[args[0]];
        if (coi && v0 == absorb) {
          finish(sig, absorb);
          break;
        }
        if (!ready(args[1])) {
          stack_.push_back(Frame{args[1], 0});
          break;
        }
        const Expr v1 = memo_[args[1]];
        finish(sig, sg.op == Op::And ? cx_.mkAnd(v0, v1) : cx_.mkOr(v0, v1));
        break;
      }
      case Op::IteF:
      case Op::IteT: {
        if (!ready(args[0])) {
          stack_.push_back(Frame{args[0], 0});
          break;
        }
        const Expr c = memo_[args[0]];
        if (coi && (c == cTrue || c == cFalse)) {
          const SignalId taken = c == cTrue ? args[1] : args[2];
          if (!ready(taken)) {
            stack_.push_back(Frame{taken, 0});
            break;
          }
          finish(sig, memo_[taken]);
          break;
        }
        if (!ready(args[1])) {
          stack_.push_back(Frame{args[1], 0});
          break;
        }
        if (!ready(args[2])) {
          stack_.push_back(Frame{args[2], 0});
          break;
        }
        const Expr t = memo_[args[1]], e = memo_[args[2]];
        finish(sig, sg.op == Op::IteF ? cx_.mkIteF(c, t, e)
                                      : cx_.mkIteT(c, t, e));
        break;
      }
      default: {  // Not, Eq, Read, Write, Apply: strict in all arguments
        bool pending = false;
        for (SignalId a : args) {
          if (!ready(a)) {
            stack_.push_back(Frame{a, 0});
            pending = true;
            break;
          }
        }
        if (pending) break;
        Expr v = kNoExpr;
        switch (sg.op) {
          case Op::Not:
            v = cx_.mkNot(memo_[args[0]]);
            break;
          case Op::Eq:
            v = cx_.mkEq(memo_[args[0]], memo_[args[1]]);
            break;
          case Op::Read:
            v = cx_.mkRead(memo_[args[0]], memo_[args[1]]);
            break;
          case Op::Write:
            v = cx_.mkWrite(memo_[args[0]], memo_[args[1]],
                            memo_[args[2]]);
            break;
          case Op::Apply:
            applyArgs_.clear();
            for (SignalId a : args) applyArgs_.push_back(memo_[a]);
            v = cx_.apply(sg.func, applyArgs_);
            break;
          default:
            VELEV_UNREACHABLE("unhandled op");
        }
        finish(sig, v);
        break;
      }
    }
  }
  return memo_[root];
}

void Simulator::step() {
  TRACE_SPAN("tlsim.step");
  if (!opts_.coneOfInfluence) {
    // Naive mode: fully evaluate every signal every cycle.
    for (SignalId s = 0; s < nl_.numSignals(); ++s) eval(s);
  }
  // Evaluate all next-states against the current state, then commit
  // simultaneously (two-phase clocking).
  std::vector<std::pair<SignalId, Expr>> commits;
  commits.reserve(nl_.latches().size());
  for (SignalId l : nl_.latches())
    commits.emplace_back(l, eval(nl_.signal(l).next));
  for (const auto& [l, v] : commits) stateVal_[l] = v;
  invalidate();
  ++stats_.cycles;
}

}  // namespace velev::tlsim
