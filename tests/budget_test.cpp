// Resource-governed verification: BudgetGovernor unit semantics, graceful
// Timeout/MemOut verdicts from verify(), budget isolation between grid
// cells, and the PE-only -> rewriting fallback policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/grid_runner.hpp"
#include "core/verifier.hpp"
#include "prop/cnf.hpp"
#include "sat/solver.hpp"
#include "support/budget.hpp"

namespace velev {
namespace {

// ---- governor unit semantics ----------------------------------------------

TEST(Budget, UnlimitedBudgetNeverTrips) {
  BudgetGovernor gov(ResourceBudget{});
  EXPECT_FALSE(gov.budget().limited());
  const int src = gov.registerSource();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NO_THROW(gov.checkpoint(src, 1u << 30));
    EXPECT_FALSE(gov.poll(src, 1u << 30));
  }
  EXPECT_FALSE(gov.exceeded());
  EXPECT_EQ(gov.exceededKind(), BudgetKind::None);
  EXPECT_TRUE(gov.exceededReason().empty());
}

TEST(Budget, MemoryTripIsStickyAndCarriesKind) {
  ResourceBudget b;
  b.memoryBytes = 1000;
  BudgetGovernor gov(b);
  const int src = gov.registerSource();
  EXPECT_NO_THROW(gov.checkpoint(src, 500));
  try {
    gov.checkpoint(src, 2000);
    FAIL() << "checkpoint over budget must throw";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::Memory);
    EXPECT_NE(std::string(e.what()).find("memory"), std::string::npos);
  }
  // Sticky: every later poll/checkpoint reports the same trip, even with a
  // byte total that would be back under budget.
  EXPECT_TRUE(gov.exceeded());
  EXPECT_EQ(gov.exceededKind(), BudgetKind::Memory);
  EXPECT_TRUE(gov.poll(src, 0));
  EXPECT_THROW(gov.checkpoint(src, 0), BudgetExceeded);
  EXPECT_FALSE(gov.exceededReason().empty());
}

TEST(Budget, MemoryTripSumsOverRegisteredSources) {
  ResourceBudget b;
  b.memoryBytes = 1000;
  BudgetGovernor gov(b);
  const int a = gov.registerSource();
  const int c = gov.registerSource();
  ASSERT_NE(a, c);
  EXPECT_NO_THROW(gov.checkpoint(a, 600));
  // 600 + 600 > 1000 although each source alone is under budget.
  EXPECT_THROW(gov.checkpoint(c, 600), BudgetExceeded);
}

TEST(Budget, UnslottedSourceStillGovernedThroughOverflow) {
  ResourceBudget b;
  b.memoryBytes = 1000;
  BudgetGovernor gov(b);
  EXPECT_THROW(gov.checkpoint(-1, 2000), BudgetExceeded);
  EXPECT_EQ(gov.exceededKind(), BudgetKind::Memory);
}

TEST(Budget, ExpiredDeadlineTripsWithinOneTimeStride) {
  ResourceBudget b;
  b.wallSeconds = 1e-9;  // already expired by the time we checkpoint
  BudgetGovernor gov(b);
  const int src = gov.registerSource();
  bool threw = false;
  // Time is checked every kTimeStride-th checkpoint; 600 calls cover at
  // least two strides.
  for (int i = 0; i < 600 && !threw; ++i) {
    try {
      gov.checkpoint(src, 0);
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.kind(), BudgetKind::Deadline);
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(gov.exceededKind(), BudgetKind::Deadline);
}

TEST(Budget, PeakArenaBytesTracksHighWater) {
  BudgetGovernor gov(ResourceBudget{});
  const int src = gov.registerSource();
  gov.checkpoint(src, 100);
  gov.checkpoint(src, 5000);
  gov.checkpoint(src, 300);  // shrinking does not lower the peak
  EXPECT_GE(gov.peakArenaBytes(), 5000u);
}

TEST(Budget, ExternalTripFirstCallerWins) {
  BudgetGovernor gov(ResourceBudget{});
  gov.trip(BudgetKind::Deadline, "external deadline");
  gov.trip(BudgetKind::Memory, "should be ignored");
  EXPECT_EQ(gov.exceededKind(), BudgetKind::Deadline);
  EXPECT_EQ(gov.exceededReason(), "external deadline");
}

TEST(Budget, KindNames) {
  EXPECT_STREQ(budgetKindName(BudgetKind::None), "none");
  EXPECT_STREQ(budgetKindName(BudgetKind::Deadline), "deadline");
  EXPECT_STREQ(budgetKindName(BudgetKind::Memory), "memory");
}

// ---- the SAT solver path: poll, never throw -------------------------------

TEST(Budget, SolverReturnsUnknownOnExpiredDeadline) {
  // An already-expired deadline must surface as Result::Unknown from the
  // solve loop's poll — a solver never throws mid-propagation — and the
  // caller disambiguates via the governor.
  prop::Cnf cnf;
  // Small pigeonhole (4 pigeons, 3 holes): unsatisfiable, needs real search.
  const unsigned pigeons = 4, holes = 3;
  auto var = [&](unsigned p, unsigned h) {
    return static_cast<prop::CnfLit>(p * holes + h + 1);
  };
  cnf.numVars = pigeons * holes;
  for (unsigned p = 0; p < pigeons; ++p) {
    prop::Clause atLeast;
    for (unsigned h = 0; h < holes; ++h) atLeast.push_back(var(p, h));
    cnf.addClause(atLeast);
  }
  for (unsigned h = 0; h < holes; ++h)
    for (unsigned p1 = 0; p1 < pigeons; ++p1)
      for (unsigned p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.addClause({-var(p1, h), -var(p2, h)});
  ASSERT_EQ(sat::solveCnf(cnf), sat::Result::Unsat);  // sanity, ungoverned

  ResourceBudget b;
  b.wallSeconds = 1e-9;
  BudgetGovernor gov(b);
  const sat::Result r =
      sat::solveCnf(cnf, nullptr, nullptr, -1, nullptr, &gov);
  EXPECT_EQ(r, sat::Result::Unknown);
  EXPECT_TRUE(gov.exceeded());
  EXPECT_EQ(gov.exceededKind(), BudgetKind::Deadline);
}

// ---- end-to-end verify(): graceful budget verdicts ------------------------

TEST(BudgetVerify, TinyMemoryBudgetGivesMemOutDeterministically) {
  // Calibration-free determinism: measure the run's real logical peak
  // unbudgeted, then re-run with half that — the same deterministic
  // allocation sequence must cross the budget at the same point.
  core::VerifyRequest req;
  req.robSize = 3;
  req.issueWidth = 2;
  req.strategy = core::Strategy::PositiveEqualityOnly;
  const core::VerifyReport full = core::verify(req);
  ASSERT_EQ(full.verdict(), core::Verdict::Correct);
  ASSERT_GT(full.outcome.peakArenaBytes, 0u);

  req.memoryBudgetBytes = full.outcome.peakArenaBytes / 2;
  for (int run = 0; run < 2; ++run) {
    const core::VerifyReport rep = core::verify(req);
    EXPECT_EQ(rep.verdict(), core::Verdict::MemOut);
    EXPECT_TRUE(rep.outcome.budgetExceeded());
    EXPECT_FALSE(rep.outcome.reason.empty());
    // The trip point is deterministic, so the recorded peak is too (and is
    // bounded by budget + one checkpoint stride of slack).
    EXPECT_GT(rep.outcome.peakArenaBytes, 0u);
    EXPECT_EQ(core::verdictExitCode(rep.verdict()), 4);
  }
}

TEST(BudgetVerify, ExpiredDeadlineGivesTimeout) {
  core::VerifyRequest req;
  req.robSize = 3;
  req.issueWidth = 2;
  req.strategy = core::Strategy::PositiveEqualityOnly;
  req.timeoutSeconds = 1e-9;
  const core::VerifyReport rep = core::verify(req);
  EXPECT_EQ(rep.verdict(), core::Verdict::Timeout);
  EXPECT_TRUE(rep.outcome.budgetExceeded());
  EXPECT_FALSE(rep.outcome.reason.empty());
}

TEST(BudgetVerify, GenerousBudgetStillProvesCorrect) {
  core::VerifyRequest req;
  req.robSize = 4;
  req.issueWidth = 2;
  req.timeoutSeconds = 3600;
  req.memoryBudgetBytes = std::uint64_t{4} << 30;
  const core::VerifyReport rep = core::verify(req);
  EXPECT_EQ(rep.verdict(), core::Verdict::Correct);
  EXPECT_FALSE(rep.outcome.budgetExceeded());
}

// ---- grid isolation: one memout cell leaves siblings untouched ------------

TEST(BudgetGrid, MemOutCellDoesNotDisturbSiblings) {
  // Sibling cells, small enough to verify quickly PE-only.
  core::VerifyRequest base;
  base.strategy = core::Strategy::PositiveEqualityOnly;
  const std::vector<core::VerifyRequest> siblings = core::makeGridRequests(
      std::vector<unsigned>{2, 3}, std::vector<unsigned>{1, 2}, base);

  core::GridRunOptions unbudgeted;
  unbudgeted.jobs = 1;
  const auto baseline = core::runGrid(siblings, unbudgeted);
  std::size_t siblingPeak = 0;
  for (const auto& r : baseline) {
    ASSERT_EQ(r.response.verdict, core::Verdict::Correct);
    siblingPeak = std::max(siblingPeak, r.response.peakArenaBytes);
  }
  ASSERT_GT(siblingPeak, 0u);

  // Same grid plus one oversized cell, under a budget every sibling fits in
  // with 4x headroom but the big cell's PE-only translation cannot.
  std::vector<core::VerifyRequest> cells = siblings;
  core::VerifyRequest big16 = base;
  big16.robSize = 16;
  big16.issueWidth = 4;
  cells.push_back(big16);
  for (core::VerifyRequest& c : cells)
    c.memoryBudgetBytes = siblingPeak * 4;
  core::GridRunOptions budgeted = unbudgeted;
  budgeted.jobs = 3;  // exercise the concurrent path too

  const auto results = core::runGrid(cells, budgeted);
  ASSERT_EQ(results.size(), siblings.size() + 1);
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    // Memory is governed on per-cell logical bytes, not process RSS, so the
    // memout neighbour must not change any sibling verdict or statistic.
    EXPECT_EQ(results[i].response.verdict, baseline[i].response.verdict);
    EXPECT_EQ(results[i].response.counter("cnf.vars"),
              baseline[i].response.counter("cnf.vars"));
    EXPECT_EQ(results[i].response.counter("cnf.clauses"),
              baseline[i].response.counter("cnf.clauses"));
    EXPECT_FALSE(results[i].response.budgetExceeded());
  }
  const auto& big = results.back();
  EXPECT_EQ(big.response.verdict, core::Verdict::MemOut);
  EXPECT_TRUE(big.response.budgetExceeded());
  EXPECT_FALSE(big.fellBack);
}

TEST(BudgetGrid, FallbackRetriesMemOutCellWithRewriting) {
  // Calibrate: the rewriting flow's peak for this cell (it must fit), then
  // budget so the PE-only attempt trips but the rewriting retry succeeds.
  core::VerifyRequest rw;
  rw.robSize = 16;
  rw.issueWidth = 2;
  rw.strategy = core::Strategy::RewritingPlusPositiveEquality;
  const core::VerifyReport rwRep = core::verify(rw);
  ASSERT_EQ(rwRep.verdict(), core::Verdict::Correct);

  core::VerifyRequest pe = rw;
  pe.strategy = core::Strategy::PositiveEqualityOnly;
  pe.memoryBudgetBytes = rwRep.outcome.peakArenaBytes * 2;
  const std::vector<core::VerifyRequest> cells = {pe};
  core::GridRunOptions gopts;
  gopts.jobs = 1;
  gopts.fallback = core::FallbackPolicy::RetryWithRewriting;

  const auto results = core::runGrid(cells, gopts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].fellBack);
  EXPECT_EQ(results[0].firstVerdict, core::Verdict::MemOut);
  EXPECT_EQ(results[0].response.verdict, core::Verdict::Correct);
  EXPECT_FALSE(results[0].response.budgetExceeded());
}

}  // namespace
}  // namespace velev
