// Tests for the parallel grid runner: parallel runs must be
// observationally identical to sequential runs (same verdicts, same CNF
// statistics, input order preserved), the grid's shared solve memo must not
// change any verdict or counter, cancellation must stop queued cells, a
// result store (GridRunOptions::cacheDir) must restore exactly the finished
// cells, and makeGrid/makeGridRequests must drop impossible configurations.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/grid_runner.hpp"
#include "support/json.hpp"

namespace velev::core {
namespace {

/// Fresh result-store directory under the system temp dir; removed up
/// front so a crashed previous run cannot leak records into this one.
std::string storeDir(const char* name) {
  const std::string p = (std::filesystem::temp_directory_path() /
                         (std::string("velev_grid_test_") + name + ".cache"))
                            .string();
  std::filesystem::remove_all(p);
  return p;
}

TEST(Grid, MakeGridDropsImpossibleCells) {
  const std::vector<unsigned> sizes = {2, 4};
  const std::vector<unsigned> widths = {1, 2, 4};
  const auto cells = makeGrid(sizes, widths);
  // 2x4 is impossible (width > size): 2x1 2x2 4x1 4x2 4x4 remain.
  ASSERT_EQ(cells.size(), 5u);
  EXPECT_EQ(cells[0].robSize, 2u);
  EXPECT_EQ(cells[0].issueWidth, 1u);
  EXPECT_EQ(cells.back().robSize, 4u);
  EXPECT_EQ(cells.back().issueWidth, 4u);
}

TEST(Grid, MakeGridRequestsStampsBaseOntoEveryCell) {
  const std::vector<unsigned> sizes = {2, 4};
  const std::vector<unsigned> widths = {1, 2, 4};
  VerifyRequest base;
  base.strategy = Strategy::PositiveEqualityOnly;
  base.skipSat = true;
  base.satConflictBudget = 123;
  const auto reqs = makeGridRequests(sizes, widths, base);
  // Same cross product as makeGrid, impossible cells dropped.
  ASSERT_EQ(reqs.size(), 5u);
  EXPECT_EQ(reqs[0].robSize, 2u);
  EXPECT_EQ(reqs[0].issueWidth, 1u);
  EXPECT_EQ(reqs.back().robSize, 4u);
  EXPECT_EQ(reqs.back().issueWidth, 4u);
  for (const VerifyRequest& r : reqs) {
    EXPECT_EQ(r.strategy, Strategy::PositiveEqualityOnly);
    EXPECT_TRUE(r.skipSat);
    EXPECT_EQ(r.satConflictBudget, 123);
  }
}

TEST(Grid, ParallelVerdictsIdenticalToSequential) {
  const std::vector<unsigned> sizes = {2, 3, 4};
  const std::vector<unsigned> widths = {1, 2};
  const auto cells = makeGridRequests(sizes, widths);

  GridRunOptions seq;
  seq.jobs = 1;
  const auto sequential = runGrid(cells, seq);

  GridRunOptions par;
  par.jobs = 3;
  const auto parallel = runGrid(cells, par);

  ASSERT_EQ(sequential.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // Input order preserved on both paths.
    EXPECT_EQ(sequential[i].cell.robSize, cells[i].robSize);
    EXPECT_EQ(parallel[i].cell.robSize, cells[i].robSize);
    EXPECT_EQ(parallel[i].cell.issueWidth, cells[i].issueWidth);
    // Identical verdicts and identical translated formulas.
    EXPECT_EQ(sequential[i].response.verdict, Verdict::Correct);
    EXPECT_EQ(parallel[i].response.verdict, sequential[i].response.verdict);
    EXPECT_EQ(parallel[i].response.counter("cnf.vars"),
              sequential[i].response.counter("cnf.vars"));
    EXPECT_EQ(parallel[i].response.counter("cnf.clauses"),
              sequential[i].response.counter("cnf.clauses"));
    EXPECT_GT(parallel[i].response.rssHighWaterKb, 0u);
  }
}

TEST(Grid, HeterogeneousRequestsKeepPerCellOptions) {
  // The request-based grid may mix strategies and budgets per cell — each
  // cell must be judged under ITS options, not the first cell's.
  std::vector<VerifyRequest> reqs(2);
  reqs[0].robSize = 3;
  reqs[0].issueWidth = 1;
  reqs[0].strategy = Strategy::RewritingPlusPositiveEquality;
  reqs[1].robSize = 3;
  reqs[1].issueWidth = 1;
  reqs[1].strategy = Strategy::PositiveEqualityOnly;
  GridRunOptions opts;
  opts.jobs = 2;
  const auto results = runGrid(reqs, opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].response.verdict, Verdict::Correct);
  EXPECT_EQ(results[1].response.verdict, Verdict::Correct);
  // PE-only skips the rewriting stage, so its e_ij/CNF encoding is the
  // bigger one — the two cells must not share one translation.
  EXPECT_GT(results[1].response.counter("cnf.vars"),
            results[0].response.counter("cnf.vars"));
}

TEST(Grid, BuggyCellReportsMismatchUnderParallelRun) {
  std::vector<VerifyRequest> cells =
      makeGridRequests(std::vector<unsigned>{4, 8}, std::vector<unsigned>{2});
  cells[1].bug.kind = models::BugKind::ForwardingWrongOperand;
  cells[1].bug.index = 2;
  GridRunOptions opts;
  opts.jobs = 2;
  const auto results = runGrid(cells, opts);
  EXPECT_EQ(results[0].response.verdict, Verdict::Correct);
  EXPECT_EQ(results[1].response.verdict, Verdict::RewriteMismatch);
  EXPECT_EQ(results[1].response.failedSlice, 2u);
}

// The two tests below are named after the incremental SAT session that
// the grid's shared solve memo replaced; they check the same properties of
// cross-cell SAT reuse.

TEST(Grid, IncrementalSessionVerdictsIdenticalToFreshRuns) {
  // One runGrid() call shares one sat::SolveMemo across its cells at any
  // `jobs`. After rewriting, a width-2 column's CNF does not depend on the
  // ROB size (Table 5), so later cells replay an earlier solve. The replay
  // must not show in verdicts or in the full reportCounters() block, and it
  // must really happen: a later cell's manifest carries `sat.memo.hits`.
  const std::vector<VerifyRequest> cells = makeGridRequests(
      std::vector<unsigned>{4, 6, 8, 10, 12}, std::vector<unsigned>{2});
  std::vector<VerifyReport> fresh;
  for (const VerifyRequest& req : cells) fresh.push_back(verify(req));

  for (const unsigned jobs : {1u, 3u}) {
    GridRunOptions opts;
    opts.jobs = jobs;
    opts.traceDir = (std::filesystem::temp_directory_path() /
                     ("velev_grid_test_memo_jobs" + std::to_string(jobs)))
                        .string();
    std::filesystem::remove_all(opts.traceDir);
    const auto results = runGrid(cells, opts);
    ASSERT_EQ(results.size(), cells.size());

    std::size_t replayed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(results[i].response.verdict, Verdict::Correct)
          << "jobs " << jobs << " cell " << i;
      EXPECT_EQ(results[i].response.counters, reportCounters(fresh[i]))
          << "jobs " << jobs << " cell " << i;
      std::ifstream in(opts.traceDir + "/cell_" + std::to_string(i) + "_" +
                       std::to_string(cells[i].robSize) + "x2.manifest.json");
      std::stringstream ss;
      ss << in.rdbuf();
      const std::optional<JsonValue> m = parseJson(ss.str());
      ASSERT_TRUE(m.has_value() && m->find("counters") != nullptr)
          << "jobs " << jobs << " cell " << i;
      if (m->find("counters")->uintAt("sat.memo.hits") > 0) ++replayed;
    }
    EXPECT_GE(replayed, 1u) << "jobs " << jobs;
  }
}

TEST(Grid, IncrementalSessionCatchesInjectedBug) {
  // A fwd:2 bug cell in the middle of a column that otherwise shares one
  // CNF must still be flagged, and the correct cells after it must not be
  // contaminated by its memo miss: every verdict and reportCounters()
  // block equals a fresh core::verify().
  std::vector<VerifyRequest> cells = makeGridRequests(
      std::vector<unsigned>{4, 6, 8, 10}, std::vector<unsigned>{2});
  VerifyRequest buggy = cells[1];
  buggy.bug.kind = models::BugKind::ForwardingWrongOperand;
  buggy.bug.index = 2;
  cells.insert(cells.begin() + 2, buggy);
  std::vector<VerifyReport> fresh;
  for (const VerifyRequest& req : cells) fresh.push_back(verify(req));

  for (const unsigned jobs : {1u, 3u}) {
    GridRunOptions opts;
    opts.jobs = jobs;
    const auto results = runGrid(cells, opts);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(results[i].response.verdict,
                i == 2 ? Verdict::RewriteMismatch : Verdict::Correct)
          << "jobs " << jobs << " cell " << i;
      EXPECT_EQ(results[i].response.counters, reportCounters(fresh[i]))
          << "jobs " << jobs << " cell " << i;
    }
  }
}

// The checkpoint/resume tests below are named after the per-grid checkpoint
// file the result store replaced; a grid with a cacheDir opens the store,
// restores what it holds and appends every other finished cell.

TEST(Grid, CheckpointResumeRestoresEveryFinishedCell) {
  // Round trip: a full sweep with a store, then the same sweep over the
  // same store, must restore every cell — same verdict and the exact
  // paper-aligned counter set (a stored cell is its VerifyResponse line).
  const auto cells = makeGridRequests(std::vector<unsigned>{2, 3},
                                      std::vector<unsigned>{1, 2});
  GridRunOptions opts;
  opts.jobs = 3;  // concurrent cells look up and append
  opts.cacheDir = storeDir("roundtrip");

  const auto baseline = runGrid(cells, opts);
  ASSERT_TRUE(std::filesystem::exists(opts.cacheDir + "/results.jsonl"));
  const auto resumed = runGrid(cells, opts);

  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_FALSE(baseline[i].restored) << "cell " << i;
    EXPECT_TRUE(resumed[i].restored) << "cell " << i;
    EXPECT_EQ(resumed[i].cell.robSize, cells[i].robSize);
    EXPECT_EQ(resumed[i].response.verdict, baseline[i].response.verdict);
    EXPECT_EQ(resumed[i].response.counters, baseline[i].response.counters)
        << "cell " << i;
  }
  std::filesystem::remove_all(opts.cacheDir);
}

TEST(Grid, ResumeVerifiesOnlyUnfinishedCells) {
  // A killed sweep leaves a prefix in the store; re-running the full
  // request list must restore exactly that prefix and verify the rest.
  // Records are keyed by the request's content (cacheKey), not by grid
  // position — the second list is deliberately reversed to prove it.
  const auto cells = makeGridRequests(std::vector<unsigned>{2, 3, 4},
                                      std::vector<unsigned>{1});
  ASSERT_EQ(cells.size(), 3u);
  GridRunOptions opts;
  opts.cacheDir = storeDir("prefix");

  const std::vector<VerifyRequest> prefix(cells.begin(), cells.begin() + 2);
  runGrid(prefix, opts);

  std::vector<VerifyRequest> reversed(cells.rbegin(), cells.rend());
  const auto full = runGrid(reversed, opts);

  ASSERT_EQ(full.size(), 3u);
  EXPECT_FALSE(full[0].restored);  // ROB 4: never stored
  EXPECT_TRUE(full[1].restored);   // ROB 3
  EXPECT_TRUE(full[2].restored);   // ROB 2
  for (const GridCellResult& r : full)
    EXPECT_EQ(r.response.verdict, Verdict::Correct);
  std::filesystem::remove_all(opts.cacheDir);
}

TEST(Grid, CheckpointRestoresInjectedBugVerdict) {
  // Failure verdicts are results too: a RewriteMismatch in the store comes
  // back with its failed slice, not as a re-run.
  std::vector<VerifyRequest> cells =
      makeGridRequests(std::vector<unsigned>{4}, std::vector<unsigned>{2});
  cells[0].bug.kind = models::BugKind::ForwardingWrongOperand;
  cells[0].bug.index = 2;

  GridRunOptions opts;
  opts.cacheDir = storeDir("bug");
  runGrid(cells, opts);

  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_TRUE(resumed[0].restored);
  EXPECT_EQ(resumed[0].response.verdict, Verdict::RewriteMismatch);
  EXPECT_EQ(resumed[0].response.failedSlice, 2u);
  std::filesystem::remove_all(opts.cacheDir);
}

TEST(Grid, ChangedRequestIsNotRestored) {
  // The store key hashes the whole request: the same grid cell under a
  // different strategy is a different verification and must re-run.
  std::vector<VerifyRequest> cells =
      makeGridRequests(std::vector<unsigned>{3}, std::vector<unsigned>{1});
  GridRunOptions opts;
  opts.cacheDir = storeDir("changed");
  runGrid(cells, opts);

  cells[0].strategy = Strategy::PositiveEqualityOnly;
  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_FALSE(resumed[0].restored);
  EXPECT_EQ(resumed[0].response.verdict, Verdict::Correct);
  std::filesystem::remove_all(opts.cacheDir);
}

TEST(Grid, CorruptCheckpointDegradesToFullRun) {
  // A missing, malformed, future-versioned or foreign-build header, or a
  // malformed record, must never fail the sweep: the cell is not restored
  // and simply verifies again. Each file carries the cell's real record, so
  // only the damage can be what keeps it from being restored.
  const auto cells =
      makeGridRequests(std::vector<unsigned>{2}, std::vector<unsigned>{1});
  GridRunOptions opts;
  opts.cacheDir = storeDir("corrupt");
  runGrid(cells, opts);
  std::ifstream in(opts.cacheDir + "/results.jsonl");
  std::string header, record;
  ASSERT_TRUE(std::getline(in, header) && std::getline(in, record));
  in.close();

  const std::string foreignBuild = "{\"version\":" +
                                   std::to_string(kResponseSchemaVersion) +
                                   ",\"git_describe\":\"some-other-build\"}";
  for (const std::string& body :
       {"not json at all\n" + record,
        "{\"version\":99,\"git_describe\":\"" +
            std::string(trace::gitDescribe()) + "\"}\n" + record,
        foreignBuild + "\n" + record,
        header + "\n{\"version\": 1, \"cells\": \"oops\"}\n"}) {
    std::ofstream(opts.cacheDir + "/results.jsonl", std::ios::trunc) << body;
    const auto results = runGrid(cells, opts);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].restored) << body;
    EXPECT_EQ(results[0].response.verdict, Verdict::Correct);
  }
  std::filesystem::remove_all(opts.cacheDir);
}

TEST(Grid, ResumeWithMissingCheckpointIsFreshRun) {
  const auto cells =
      makeGridRequests(std::vector<unsigned>{2}, std::vector<unsigned>{1});
  GridRunOptions opts;
  opts.cacheDir = storeDir("missing");  // removed, never made
  const auto results = runGrid(cells, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].restored);
  EXPECT_EQ(results[0].response.verdict, Verdict::Correct);
  // The store was created and holds the fresh record.
  EXPECT_TRUE(std::filesystem::exists(opts.cacheDir + "/results.jsonl"));
  EXPECT_TRUE(runGrid(cells, opts)[0].restored);
  std::filesystem::remove_all(opts.cacheDir);
}

TEST(Grid, EmptyGridIsFine) {
  GridRunOptions opts;
  opts.jobs = 4;
  EXPECT_TRUE(runGrid({}, opts).empty());
}

}  // namespace
}  // namespace velev::core
