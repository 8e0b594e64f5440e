// The rewriting-rule engine of the paper (Sect. 6).
//
// Given the Register File expressions produced by the two sides of the
// Burch–Dill commutative diagram, the engine proves — by mechanical
// structural rules — that every instruction initially in the reorder buffer
// produces equal updates along both sides, and removes those updates,
// replacing the proven-equal prefix states by a common fresh term variable
// (RegFile_equal_state, Fig. 2.b). The surviving formula depends only on
// the newly fetched instructions and is processed by Positive Equality.
//
// Per slice i the rules are:
//   * context check — the two implementation updates to Dest_i carry
//     contexts Valid_i ∧ retire_i (regular-cycle retirement) and
//     Valid_i ∧ ¬retire_i (completion during flushing); outside the retire
//     width there is a single update under Valid_i;
//   * movability — the completion update is moved down past the retire
//     updates of later instructions; justified by syntactic context
//     disjointness (retire_j implies retire_i, clashing with ¬retire_i);
//   * merge — the two adjacent updates combine into one under context
//     Valid_i with data ITE(retire_i, Result_i, ImplData_i);
//   * data equality — case split on ValidResult_i:
//       VR = true:  both sides collapse to the Result_i variable;
//       VR = false: the specification data is ALU(Op_i, read(Q_i, Src1_i),
//                   read(Q_i, Src2_i)); the implementation data is an ITE
//                   between (a) the regular-cycle execution result, whose
//                   forwarded operands are matched against the
//                   specification-side reads under the dependencies_ok
//                   condition (rule 2.1), and (b) the flush-time completion
//                   result, whose reads from the implementation prefix state
//                   P_i correspond to the specification prefix Q_i proven
//                   equal by the earlier slices (rule 2.2).
//
// A slice that does not conform to the expected structure is reported with
// its index — the behaviour the paper demonstrates on the buggy design
// ("the rewriting rules took 9 seconds to identify the 72nd computation
// slice as not conforming to the expected expression structure").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "models/isa.hpp"
#include "models/ooo.hpp"

namespace velev {
class ThreadPool;
}  // namespace velev

namespace velev::rewrite {

/// Rewrite-engine work counters — the quantities of the paper's Table 5
/// ("statistics of the rewriting rules"): how many rule applications fired,
/// how many updates they deleted, and how large the per-slice proof
/// obligations were. Exposed on every RewriteResult (success or mismatch)
/// and surfaced as the `rewrite.*` counters of the trace manifests.
struct RewriteStats {
  unsigned slicesChecked = 0;      // data-equality case splits completed
  unsigned contextChecks = 0;      // update-context structure checks
  unsigned movesApplied = 0;       // completion updates moved past retires
  unsigned mergesApplied = 0;      // retire/completion pairs merged
  unsigned forwardingMatches = 0;  // rule 2.1 operand justifications
  /// Total structural rule applications (the paper's "rules fired").
  std::uint64_t rulesFired() const {
    return std::uint64_t{slicesChecked} + contextChecks + movesApplied +
           mergesApplied + forwardingMatches;
  }
  /// DAG nodes interned while checking slices (proof-obligation size):
  /// summed over all slices, and the largest single slice.
  std::uint64_t sliceNodesTotal = 0;
  std::uint64_t sliceNodesMax = 0;
};

struct RewriteResult {
  bool ok = false;
  unsigned failedSlice = 0;  // 1-based slice index when !ok
  std::string message;
  RewriteStats stats;

  eufm::Expr implRegFile = eufm::kNoExpr;     // rewritten impl-side state
  std::vector<eufm::Expr> specRegFile;        // rewritten spec side, m = 0..k
  eufm::Expr equalStateVar = eufm::kNoExpr;   // the fresh common base
  unsigned updatesRemoved = 0;
};

/// The support pass of the ValidResult case split: one pass over every node
/// of `cx` in id order. Entry e is 1 + the highest slice index whose Valid
/// or ValidResult variable occurs in e's cone as substituteShallow walks it
/// (read/write memory arguments excluded), 0 when none does. Four bytes per
/// node, rewriteRobUpdates keeps it for the slice loop only.
std::vector<std::uint32_t> caseSplitSupport(const eufm::Context& cx,
                                            const models::RobInitState& init);

/// substituteShallow's keep hook for the case split of slice `slice`
/// (0-based; it assumes Valid_slice and/or ValidResult_slice): keeps every
/// node whose support holds no variable of this slice or a later one.
/// Shadow-local ids (at or past the support's end) have no entry and are
/// never kept.
struct SupportKeep {
  const std::vector<std::uint32_t>& support;
  unsigned slice;
  bool operator()(eufm::Expr e) const {
    return e < support.size() && support[e] <= slice;
  }
};

/// Apply the rewriting rules. `implRegFile` is the implementation-side
/// Register File after one regular cycle plus flushing; `specRegFile[m]` is
/// the specification-side state after flushing the initial state and running
/// m specification steps (m = 0..issueWidth).
///
/// Each slice check runs in a private eufm::ShadowContext over the frozen
/// main context, one parallelFor index per slice on up to `pool->size()`
/// threads (inline without a pool). Results and stats are identical for any
/// thread count.
RewriteResult rewriteRobUpdates(eufm::Context& cx, const models::Isa& isa,
                                const models::RobInitState& init,
                                const models::OoOConfig& cfg,
                                eufm::Expr implRegFile,
                                std::span<const eufm::Expr> specRegFile,
                                ThreadPool* pool = nullptr);

}  // namespace velev::rewrite
