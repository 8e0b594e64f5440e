#include "rewrite/engine.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <vector>

#include "eufm/shadow.hpp"
#include "rewrite/contexts.hpp"
#include "rewrite/subst.hpp"
#include "rewrite/update_chain.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace velev::rewrite {

using eufm::Context;
using eufm::Expr;
using eufm::Kind;
using eufm::kNoExpr;

namespace {

/// Signals a rule mismatch at a specific slice; converted to a RewriteResult
/// by the driver (a non-conforming slice is an expected outcome — a
/// potential bug report — not an internal error).
struct SliceMismatch {
  unsigned slice;  // 1-based
  std::string what;
};

/// Rule applications fired while checking one slice. Accumulated into the
/// engine-wide RewriteStats in slice order, so the totals are independent
/// of how slices were scheduled across workers.
struct SliceTally {
  unsigned merges = 0;
  unsigned forwarding = 0;
  std::uint64_t rebuilt = 0;  // nodes the case split rebuilt
};

/// Result of checking one slice inside its private ShadowContext.
struct SliceOutcome {
  bool done = false;  // false = skipped past an earlier failing slice
  bool ok = true;
  unsigned slice = 0;  // 1-based when !ok
  std::string message;
  std::uint64_t nodes = 0;  // shadow-local scratch interned by the check
  SliceTally tally;
};

class Engine {
 public:
  Engine(Context& cx, const models::Isa& isa,
         const models::RobInitState& init, const models::OoOConfig& cfg,
         ThreadPool* pool)
      : cx_(cx), isa_(isa), init_(init), n_(cfg.robSize),
        k_(cfg.issueWidth), pool_(pool) {}

  RewriteResult run(Expr implRegFile, std::span<const Expr> specRegFile) {
    RewriteResult res;
    try {
      {
        TRACE_SPAN("rewrite.extract");
        extract(implRegFile, specRegFile);
      }
      {
        TRACE_SPAN("rewrite.contexts");
        checkContexts();
      }
      {
        TRACE_SPAN("rewrite.movability");
        checkMovability();
      }
      {
        TRACE_SPAN("rewrite.support");
        support_ = caseSplitSupport(cx_, init_);
      }
      {
        TRACE_SPAN("rewrite.slices");
        runSlices();
      }
      support_ = {};  // scratch of the slice loop
      {
        TRACE_SPAN("rewrite.rebuild");
        rebuild(res, specRegFile.size());
      }
      res.ok = true;
      res.updatesRemoved = k_ + 2 * n_;
    } catch (const SliceMismatch& m) {
      res.ok = false;
      res.failedSlice = m.slice;
      res.message = m.what;
    }
    res.stats = stats_;
    return res;
  }

 private:
  [[noreturn]] static void fail(unsigned slice0 /*0-based*/,
                                const std::string& what) {
    throw SliceMismatch{slice0 + 1, what};
  }

  // ---- extraction -----------------------------------------------------------
  void extract(Expr implRegFile, std::span<const Expr> specRegFile) {
    VELEV_CHECK(specRegFile.size() == k_ + 1);
    impl_ = extractChain(cx_, implRegFile);
    if (impl_.base != init_.regFile)
      fail(0, "implementation update chain does not reach the initial "
              "Register File state");
    if (impl_.updates.size() != k_ + n_ + k_)
      fail(0, "unexpected number of implementation updates: got " +
                  std::to_string(impl_.updates.size()) + ", expected " +
                  std::to_string(k_ + n_ + k_));
    spec0_ = extractChainTo(cx_, specRegFile[0], init_.regFile);
    if (spec0_.updates.size() != n_)
      fail(0, "unexpected number of specification-side updates: got " +
                  std::to_string(spec0_.updates.size()) + ", expected " +
                  std::to_string(n_));
    // Specification steps m = 1..k extend specRegFile[0] one update at a
    // time.
    specSteps_.clear();
    for (unsigned m = 1; m <= k_; ++m) {
      UpdateChain c = extractChainTo(cx_, specRegFile[m], specRegFile[m - 1]);
      if (c.updates.size() != 1)
        fail(0, "specification step " + std::to_string(m) +
                    " is not a single update");
      specSteps_.push_back(c.updates[0]);
    }
  }

  const Update& retireUpd(unsigned i) const { return impl_.updates[i]; }
  const Update& flushUpd(unsigned i) const { return impl_.updates[k_ + i]; }
  const Update& newUpd(unsigned j) const {
    return impl_.updates[k_ + n_ + j];
  }
  const Update& specUpd(unsigned i) const { return spec0_.updates[i]; }

  // ---- rule: context structure ----------------------------------------------
  // Splits And(Valid_i, X) -> X, where Valid_i is the known variable.
  Expr splitValid(unsigned i, Expr ctx, const char* which) {
    if (cx_.kind(ctx) != Kind::And)
      fail(i, std::string(which) + " context is not a conjunction");
    const Expr a = cx_.arg(ctx, 0), b = cx_.arg(ctx, 1);
    if (a == init_.valid[i]) return b;
    if (b == init_.valid[i]) return a;
    fail(i, std::string(which) + " context does not include Valid_i");
  }

  void checkContexts() {
    retireCond_.assign(k_, kNoExpr);
    for (unsigned i = 0; i < k_; ++i) {
      const Update& r = retireUpd(i);
      if (r.addr != init_.dest[i])
        fail(i, "retire update address is not Dest_i");
      if (r.data != init_.result[i])
        fail(i, "retire update data is not Result_i");
      retireCond_[i] = splitValid(i, r.ctx, "retire");
      ++stats_.contextChecks;
    }
    for (unsigned i = 0; i < n_; ++i) {
      const Update& f = flushUpd(i);
      if (f.addr != init_.dest[i])
        fail(i, "completion update address is not Dest_i");
      if (i < k_) {
        const Expr notRetire = splitValid(i, f.ctx, "completion");
        if (notRetire != cx_.mkNot(retireCond_[i]))
          fail(i, "completion context is not Valid_i & !retire_i");
      } else {
        if (f.ctx != init_.valid[i])
          fail(i, "completion context is not Valid_i");
      }
      const Update& s = specUpd(i);
      if (s.addr != init_.dest[i])
        fail(i, "specification update address is not Dest_i");
      if (s.ctx != init_.valid[i])
        fail(i, "specification update context is not Valid_i");
      ++stats_.contextChecks;
    }
  }

  // ---- rule: movability -------------------------------------------------------
  // The completion update of instruction i (i < k) is moved down past the
  // retire updates of later instructions; every crossed pair must have
  // syntactically disjoint contexts.
  void checkMovability() {
    for (unsigned i = 0; i < k_; ++i) {
      for (unsigned j = i + 1; j < k_; ++j) {
        if (!disjointContexts(cx_, flushUpd(i).ctx, retireUpd(j).ctx))
          fail(i, "cannot move completion update of slice " +
                      std::to_string(i + 1) + " past retire update of slice " +
                      std::to_string(j + 1) +
                      ": contexts are not provably disjoint");
        ++stats_.movesApplied;
      }
    }
  }

  // ---- slice scheduling -------------------------------------------------------
  // Every slice check runs inside a private ShadowContext overlay on the
  // (frozen) main context: the scratch expressions a check interns — merged
  // ITEs, case-split substitutions, candidate forwarding hits — are never
  // reused by the rebuild, so they are hash-consed locally and discarded
  // with the slice. That makes the checks embarrassingly parallel (the main
  // context is only ever read) and keeps the main arena from growing by
  // O(slices × slice-size) scratch.
  //
  // Determinism: each slice starts from an identical frozen base and runs
  // an identical builder-call sequence, so its outcome, tally, and local
  // node count do not depend on worker count or scheduling. Outcomes are
  // reduced in slice order; on a mismatch the lowest failing slice wins and
  // only the slices before it contribute to the stats — exactly the
  // sequential semantics.
  void runSlices() {
    BudgetGovernor* gov = cx_.budgetGovernor();
    const int slot = gov != nullptr ? gov->registerSource() : -1;
    checkSpecLevels(gov, slot);
    std::vector<SliceOutcome> out(n_);
    const unsigned jobs =
        pool_ == nullptr ? 1u : std::clamp(n_, 1u, pool_->size());
    if (jobs > 1) trace::counterSet("rewrite.parallel.jobs", jobs);
    // One governor slot per worker: the calling thread keeps `slot`.
    std::vector<int> slots{slot};
    while (slots.size() < jobs)
      slots.push_back(gov != nullptr ? gov->registerSource() : -1);
    // Lowest failing slice seen so far; slices above it are skipped (their
    // outcomes are never consumed), slices below it are always processed.
    // A BudgetExceeded (sticky: siblings stop at their next checkpoint) or
    // an internal error reaches the caller through parallelFor.
    std::atomic<unsigned> minFail{n_};
    parallelFor(pool_, n_, [&](std::size_t index, unsigned worker) {
      const auto i = static_cast<unsigned>(index);
      if (i > minFail.load(std::memory_order_relaxed)) return;
      checkSliceOutcome(i, gov, slots[worker], out[i]);
      if (!out[i].ok) {
        unsigned cur = minFail.load(std::memory_order_relaxed);
        while (i < cur && !minFail.compare_exchange_weak(
                              cur, i, std::memory_order_relaxed)) {
        }
      }
    });
    // Work counter, summed in slice order through the failing slice, so
    // the schedule cannot change it.
    std::uint64_t rebuilt = 0;
    for (unsigned i = 0; i < n_; ++i) {
      const SliceOutcome& o = out[i];
      if (!o.done) break;  // only reachable past a recorded failure
      rebuilt += o.tally.rebuilt;
      if (!o.ok) {
        trace::counterAdd("rewrite.subst.visited", rebuilt);
        throw SliceMismatch{o.slice, o.message};
      }
      stats_.sliceNodesTotal += o.nodes;
      stats_.sliceNodesMax = std::max(stats_.sliceNodesMax, o.nodes);
      stats_.mergesApplied += o.tally.merges;
      stats_.forwardingMatches += o.tally.forwarding;
      ++stats_.slicesChecked;
    }
    trace::counterAdd("rewrite.subst.visited", rebuilt);
  }

  /// Rule 2.1's check on the specification write of level j —
  /// subst(specUpd(j).data, ValidResult_j := true) == Result_j — depends on
  /// j alone, so it is made once per level, in one discarded shadow, before
  /// any slice runs; matchForwarding reads the stored bit. The substitution
  /// is a pure function of the frozen base, so the bit is the one each
  /// slice would compute, and a well-formed level interns no scratch.
  void checkSpecLevels(BudgetGovernor* gov, int slot) {
    eufm::ShadowContext scx(cx_, gov, slot);
    specCollapses_.assign(n_, false);
    for (unsigned j = 0; j + 1 < n_; ++j) {
      BoolAssumptions vr1{{init_.validResult[j], true}};
      specCollapses_[j] =
          substituteShallow(scx, specUpd(j).data, vr1,
                            SupportKeep{support_, j}) == init_.result[j];
    }
    if (gov != nullptr) gov->checkpoint(slot, 0);
  }

  /// One slice, one shadow. BudgetExceeded propagates (budget exhaustion is
  /// not a rule mismatch); a SliceMismatch is recorded in the outcome.
  void checkSliceOutcome(unsigned i, BudgetGovernor* gov, int slot,
                         SliceOutcome& o) {
    if (gov != nullptr) gov->checkpoint(-1, 0);
    eufm::ShadowContext scx(cx_, gov, slot);
    o.done = true;
    try {
      checkSliceData(scx, i, o.tally);
    } catch (const SliceMismatch& m) {
      o.ok = false;
      o.slice = m.slice;
      o.message = m.what;
    }
    o.nodes = scx.localNodes();
    // Zero this worker's slot: the shadow's scratch is freed with it.
    if (gov != nullptr) gov->checkpoint(slot, 0);
  }

  // ---- rule: data equality per slice -----------------------------------------
  // Templated on the context type: checks run against a per-slice
  // ShadowContext (or, in tests, directly against a Context). All node ids
  // referenced from members (init_, retireCond_, update chains) are base
  // ids and therefore valid in every shadow.
  template <typename Cx>
  void checkSliceData(Cx& cx, unsigned i, SliceTally& tally) const {
    // Merge the retire/completion updates (within the retire width) into a
    // single update under Valid_i with data ITE(retire_i, Result_i, ...).
    const Expr implData =
        i < k_ ? cx.mkIteT(retireCond_[i], init_.result[i], flushUpd(i).data)
               : flushUpd(i).data;
    if (i < k_) ++tally.merges;
    const Expr specData = specUpd(i).data;

    // Every base node outside the slice's support is kept as it is.
    const SupportKeep keep{support_, i};

    // Case 1: ValidResult_i = true — both sides must collapse to Result_i.
    {
      BoolAssumptions vr1{{init_.valid[i], true}, {init_.validResult[i], true}};
      const Expr di =
          substituteShallow(cx, implData, vr1, keep, &tally.rebuilt);
      if (di != init_.result[i])
        fail(i, "implementation data does not collapse to Result_i when "
                "ValidResult_i holds");
      const Expr ds =
          substituteShallow(cx, specData, vr1, keep, &tally.rebuilt);
      if (ds != init_.result[i])
        fail(i, "specification data does not collapse to Result_i when "
                "ValidResult_i holds");
    }

    // Case 2: ValidResult_i = false.
    BoolAssumptions vr0{{init_.valid[i], true}, {init_.validResult[i], false}};
    const Expr di = substituteShallow(cx, implData, vr0, keep, &tally.rebuilt);
    const Expr ds = substituteShallow(cx, specData, vr0, keep, &tally.rebuilt);

    const Expr pPrefix = flushUpd(i).prev;               // P_i
    const Expr qPrefix = specUpd(i).prev;                // Q_i
    // Specification side: ALU(Op_i, read(Q_i, Src1_i), read(Q_i, Src2_i)).
    if (ds != aluRead(cx, i, qPrefix))
      fail(i, "specification data is not the expected ALU application over "
              "reads from the specification prefix state");

    // Implementation side: either the pure completion computation, or an
    // ITE between the regular-cycle execution and the completion.
    if (di == aluRead(cx, i, pPrefix)) return;  // rule 2.2 alone
    if (cx.kind(di) != Kind::IteT)
      fail(i, "implementation data (ValidResult_i = false) has an "
              "unexpected shape");
    const Expr execCond = cx.arg(di, 0);
    const Expr execData = cx.arg(di, 1);
    const Expr flushData = cx.arg(di, 2);
    if (flushData != aluRead(cx, i, pPrefix))
      fail(i, "completion branch is not the expected ALU application over "
              "reads from the implementation prefix state (rule 2.2)");
    checkExecBranch(cx, i, execCond, execData, tally);
  }

  /// ALU(Op_i, read(state, Src1_i), read(state, Src2_i)).
  template <typename Cx>
  Expr aluRead(Cx& cx, unsigned i, Expr state) const {
    return cx.apply(isa_.alu,
                    {init_.opcode[i], cx.mkRead(state, init_.src1[i]),
                     cx.mkRead(state, init_.src2[i])});
  }

  // Rule 2.1: the instruction executed during the single regular cycle; its
  // forwarded operands must match the specification-side reads whenever the
  // dependencies_ok conditions (conjuncts of the execute condition) hold.
  template <typename Cx>
  void checkExecBranch(Cx& cx, unsigned i, Expr execCond, Expr execData,
                       SliceTally& tally) const {
    if (cx.kind(execData) != Kind::Uf ||
        cx.funcOf(execData) != isa_.alu ||
        cx.arg(execData, 0) != init_.opcode[i])
      fail(i, "regular-cycle execution result is not an ALU application "
              "on Opcode_i");
    const auto conj = conjuncts(cx, execCond);
    for (unsigned o = 0; o < 2; ++o) {
      const Expr src = o == 0 ? init_.src1[i] : init_.src2[i];
      const Expr fwd = cx.arg(execData, o + 1);
      if (!operandJustified(cx, i, fwd, src, conj, tally))
        fail(i, "forwarded operand " + std::to_string(o + 1) +
                    " cannot be matched against the specification-side "
                    "read (rule 2.1)");
    }
  }

  // Does some conjunct of the execute condition justify fwd == read(Q_i,
  // src)? The base case (no preceding writer consulted) needs no condition.
  template <typename Cx>
  bool operandJustified(Cx& cx, unsigned i, Expr fwd, Expr src,
                        const std::vector<Expr>& conj,
                        SliceTally& tally) const {
    if (matchForwarding(cx, i, fwd, kNoExpr, src)) {
      ++tally.forwarding;
      return true;
    }
    for (Expr c : conj)
      if (matchForwarding(cx, i, fwd, c, src)) {
        ++tally.forwarding;
        return true;
      }
    return false;
  }

  // Match the forwarding chain for slice i against the specification update
  // chain, level by level from the nearest preceding entry (j = i-1) down to
  // the initial Register File. At each level:
  //   fwd = ITE(hit_j, Result_j, rest),    hit_j = Valid_j & (Dest_j = src)
  //   ok  = ITE(hit_j, ValidResult_j, okRest)   (or the folded Or-form when
  //                                              okRest is TRUE)
  // and the specification data written at level j must collapse to Result_j
  // under ValidResult_j — which `ok` guarantees exactly when the forwarding
  // selects level j. `ok == kNoExpr` requires the chain to be hit-free.
  template <typename Cx>
  bool matchForwarding(Cx& cx, unsigned i, Expr fwd, Expr ok,
                       Expr src) const {
    for (unsigned level = i; level-- > 0;) {
      const Expr hit =
          cx.mkAnd(init_.valid[level], cx.mkEq(init_.dest[level], src));
      if (cx.kind(fwd) != Kind::IteT || cx.arg(fwd, 0) != hit ||
          cx.arg(fwd, 1) != init_.result[level])
        return false;
      fwd = cx.arg(fwd, 2);
      // Peel the availability chain.
      if (ok == kNoExpr) return false;
      if (cx.kind(ok) == Kind::IteF && cx.arg(ok, 0) == hit &&
          cx.arg(ok, 1) == init_.validResult[level]) {
        ok = cx.arg(ok, 2);
      } else if (ok == cx.mkOr(cx.mkNot(hit), init_.validResult[level])) {
        ok = cx.mkTrue();  // folded innermost level: ITE(hit, VR, true)
      } else {
        return false;
      }
      // The specification write at this level must provide Result_level
      // when its result was available (checked once, checkSpecLevels).
      if (!specCollapses_[level]) return false;
    }
    return fwd == cx.mkRead(init_.regFile, src) &&
           (ok == kNoExpr || ok == cx.mkTrue());
  }

  // ---- removal and reconstruction (Fig. 2.b) ----------------------------------
  void rebuild(RewriteResult& res, std::size_t numSpec) {
    res.equalStateVar = cx_.freshTermVar("RegFile_equal_state");

    // Implementation side: the k updates of the newly fetched instructions,
    // re-based onto the common equal state.
    Expr cur = res.equalStateVar;
    for (unsigned j = 0; j < k_; ++j) {
      const Update& u = newUpd(j);
      const Expr data = substituteMem(cx_, u.data, u.prev, cur);
      const Expr ctx = substituteMem(cx_, u.ctx, u.prev, cur);
      cur = cx_.mkIteT(ctx, cx_.mkWrite(cur, u.addr, data), cur);
    }
    res.implRegFile = cur;

    // Specification side: m = 0 is the equal state itself; each further
    // step re-bases one specification update.
    res.specRegFile.assign(numSpec, kNoExpr);
    res.specRegFile[0] = res.equalStateVar;
    cur = res.equalStateVar;
    for (unsigned m = 1; m < numSpec; ++m) {
      const Update& u = specSteps_[m - 1];
      const Expr data = substituteMem(cx_, u.data, u.prev, cur);
      const Expr ctx = substituteMem(cx_, u.ctx, u.prev, cur);
      cur = cx_.mkIteT(ctx, cx_.mkWrite(cur, u.addr, data), cur);
      res.specRegFile[m] = cur;
    }
  }

  Context& cx_;
  const models::Isa& isa_;
  const models::RobInitState& init_;
  const unsigned n_;
  const unsigned k_;
  ThreadPool* pool_;

  UpdateChain impl_;
  UpdateChain spec0_;
  std::vector<Update> specSteps_;
  std::vector<Expr> retireCond_;  // retire_i, split out of the contexts
  std::vector<std::uint32_t> support_;  // caseSplitSupport, slice loop only
  std::vector<bool> specCollapses_;     // per level, checkSpecLevels
  RewriteStats stats_;
};

}  // namespace

std::vector<std::uint32_t> caseSplitSupport(const Context& cx,
                                            const models::RobInitState& init) {
  std::vector<std::uint32_t> support(cx.numNodes(), 0);
  for (std::size_t s = 0; s < init.valid.size(); ++s) {
    const auto entry = static_cast<std::uint32_t>(s + 1);
    support[init.valid[s]] = std::max(support[init.valid[s]], entry);
    support[init.validResult[s]] =
        std::max(support[init.validResult[s]], entry);
  }
  // Arguments precede their node in id order, so one forward pass sees
  // every argument's final entry. Variables have no arguments and keep the
  // entry set above.
  for (Expr e = 0; e < support.size(); ++e) {
    const Kind k = cx.kind(e);
    const auto args = cx.args(e);
    const std::size_t first = k == Kind::Read || k == Kind::Write ? 1 : 0;
    std::uint32_t top = support[e];
    for (std::size_t a = first; a < args.size(); ++a)
      top = std::max(top, support[args[a]]);
    support[e] = top;
  }
  return support;
}

RewriteResult rewriteRobUpdates(Context& cx, const models::Isa& isa,
                                const models::RobInitState& init,
                                const models::OoOConfig& cfg,
                                Expr implRegFile,
                                std::span<const Expr> specRegFile,
                                ThreadPool* pool) {
  Engine engine(cx, isa, init, cfg, pool);
  return engine.run(implRegFile, specRegFile);
}

}  // namespace velev::rewrite
