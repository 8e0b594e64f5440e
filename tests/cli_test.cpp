// End-to-end tests for the `velev_verify` command-line tool: exit codes
// for correct vs. buggy designs, DIMACS export round-trips through
// sat::Solver, DRAT proof self-check, --jobs invariance (parallel grid
// verdicts identical to sequential ones) and single mode answering what
// grid mode answers for the same cell. The binary path is injected by
// CMake as VELEV_VERIFY_BIN.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "core/verifier.hpp"
#include "prop/cnf.hpp"
#include "sat/solver.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace velev {
namespace {

struct CliResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr
};

CliResult runCli(const std::string& args) {
  const std::string cmd = std::string(VELEV_VERIFY_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  CliResult res;
  char buf[4096];
  while (pipe && fgets(buf, sizeof buf, pipe) != nullptr) res.output += buf;
  if (pipe) {
    const int status = pclose(pipe);
    res.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return res;
}

std::string tmpPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Every per-cell verdict line ("cell NxK: ..."), wall times stripped, for
// comparing runs that should reach identical verdicts.
std::string verdictLines(const std::string& output) {
  std::istringstream is(output);
  std::string line, out;
  while (std::getline(is, line)) {
    if (line.rfind("cell ", 0) != 0) continue;
    const auto timing = line.find(" (");
    out += line.substr(0, timing) + "\n";
  }
  return out;
}

TEST(Cli, CorrectDesignExitsZero) {
  const CliResult r = runCli("--size 4 --width 2 --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: CORRECT"), std::string::npos) << r.output;
}

TEST(Cli, BuggyDesignExitsOne) {
  const CliResult r = runCli("--size 8 --width 2 --bug fwd:3 --quiet");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("NON-CONFORMING SLICE 3"), std::string::npos)
      << r.output;
}

TEST(Cli, UsageErrorExitsTwo) {
  EXPECT_EQ(runCli("--no-such-flag").exitCode, 2);
  EXPECT_EQ(runCli("--size 2 --width 4").exitCode, 2);  // width > size
  EXPECT_EQ(runCli("--bug nonsense").exitCode, 2);
  EXPECT_EQ(runCli("--grid 2x4").exitCode, 2);  // impossible cell
  EXPECT_EQ(runCli("--jobs 0").exitCode, 2);
  // Numbers are read whole and range-checked: no trailing junk, no sign
  // wrap ("-1" once became 4,294,967,295 workers), no overflow.
  EXPECT_EQ(runCli("--size 4 --width 2 --cell-jobs 2x").exitCode, 2);
  EXPECT_EQ(runCli("--jobs -1 --grid 4x2").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --jobs 257").exitCode, 2);
  EXPECT_EQ(runCli("--size 4x --width 2").exitCode, 2);
  EXPECT_EQ(runCli("--grid 4x2x").exitCode, 2);
  EXPECT_EQ(runCli("--grid 'sizes=4,-8;widths=2'").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --bug fwd:2x").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --budget 1e3").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --timeout nan").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --mem-budget 99999999999999999999")
                .exitCode,
            2);
  const CliResult junk = runCli("--size 4 --width 2 --cell-jobs 2x");
  EXPECT_NE(junk.output.find("--cell-jobs expects a number in 1..256"),
            std::string::npos)
      << junk.output;
  const CliResult huge = runCli("--size 5000");  // past kMaxRobSize
  EXPECT_EQ(huge.exitCode, 2) << huge.output;
  EXPECT_NE(huge.output.find("rob_size <= 4096"), std::string::npos)
      << huge.output;
  // A bug slice past the design: VerifyRequest::validate() names it.
  const CliResult bug = runCli("--size 4 --width 2 --bug fwd:9");
  EXPECT_EQ(bug.exitCode, 2) << bug.output;
  EXPECT_NE(bug.output.find("bug_index out of range for fwd (1..4)"),
            std::string::npos)
      << bug.output;
  EXPECT_EQ(bug.output.find("check failed"), std::string::npos) << bug.output;
}

TEST(Cli, UnknownEngineIsAUsageError) {
  const CliResult r = runCli("--engine cnf");
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("unknown engine"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage"), std::string::npos) << r.output;
}

TEST(Cli, BddEngineVerdictsMatchSat) {
  const CliResult ok = runCli("--size 2 --width 2 --strategy pe --engine bdd");
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  const CliResult bug =
      runCli("--size 2 --width 1 --strategy pe --engine bdd --bug stale:2");
  EXPECT_EQ(bug.exitCode, 1) << bug.output;
}

TEST(Cli, BothEngineCrossChecksAndAgrees) {
  const CliResult ok = runCli("--size 2 --width 2 --strategy pe --engine both");
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  const CliResult bug =
      runCli("--size 2 --width 1 --strategy pe --engine both --bug stale:2");
  EXPECT_EQ(bug.exitCode, 1) << bug.output;
  EXPECT_EQ(bug.output.find("disagreement"), std::string::npos) << bug.output;
}

TEST(Cli, ProofRequiresTheSatEngine) {
  const std::string proof = tmpPath("engine_proof.drat");
  const CliResult r = runCli("--size 2 --width 2 --engine bdd --proof " + proof);
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("--proof requires --engine sat"), std::string::npos)
      << r.output;
}

TEST(Cli, BudgetExhaustionExitsThree) {
  const CliResult r =
      runCli("--size 4 --width 4 --strategy pe --budget 1 --quiet");
  EXPECT_EQ(r.exitCode, 3) << r.output;
  EXPECT_NE(r.output.find("INCONCLUSIVE"), std::string::npos) << r.output;
}

TEST(Cli, MemBudgetExhaustionExitsFour) {
  // A 1 MiB logical-arena budget cannot hold the PE-only translation of an
  // 8x4 design; the run must degrade into a memout verdict, not an OOM kill.
  const std::string jsonPath = tmpPath("cli_memout.json");
  const CliResult r = runCli(
      "--size 8 --width 4 --strategy pe --mem-budget 1 --json " + jsonPath +
      " --quiet");
  EXPECT_EQ(r.exitCode, 4) << r.output;
  EXPECT_NE(r.output.find("OUT OF MEMORY"), std::string::npos) << r.output;
  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"verdict\": \"memout\""), std::string::npos)
      << ss.str();
  EXPECT_NE(ss.str().find("\"reason\""), std::string::npos) << ss.str();
}

TEST(Cli, TimeoutExitsFour) {
  // PE-only at 4x4 takes far longer than 10 ms; the deadline must trip one
  // of the cooperative checkpoints and unwind into a timeout verdict.
  const CliResult r =
      runCli("--size 4 --width 4 --strategy pe --timeout 0.01 --quiet");
  EXPECT_EQ(r.exitCode, 4) << r.output;
  EXPECT_NE(r.output.find("TIMEOUT"), std::string::npos) << r.output;
}

TEST(Cli, BadBudgetValuesAreUsageErrors) {
  EXPECT_EQ(runCli("--size 4 --width 2 --timeout 0").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --mem-budget 0").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --fallback bogus").exitCode, 2);
}

TEST(Cli, VerdictHelpersRoundTripEveryVerdict) {
  using core::Verdict;
  for (const Verdict v :
       {Verdict::Correct, Verdict::CounterexampleFound,
        Verdict::RewriteMismatch, Verdict::Inconclusive, Verdict::Timeout,
        Verdict::MemOut, Verdict::Skipped}) {
    const char* name = core::verdictName(v);
    ASSERT_NE(name, nullptr);
    const auto back = core::verdictFromName(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, v) << name;
    const int code = core::verdictExitCode(v);
    EXPECT_TRUE(code == 0 || code == 1 || code == 3 || code == 4) << name;
    EXPECT_NE(code, 2) << "2 is reserved for usage errors: " << name;
  }
  EXPECT_FALSE(core::verdictFromName("no-such-verdict").has_value());
  // The paper-facing mapping the tools rely on.
  EXPECT_EQ(core::verdictExitCode(core::Verdict::Correct), 0);
  EXPECT_EQ(core::verdictExitCode(core::Verdict::CounterexampleFound), 1);
  EXPECT_EQ(core::verdictExitCode(core::Verdict::Timeout), 4);
  EXPECT_EQ(core::verdictExitCode(core::Verdict::MemOut), 4);
}

TEST(Cli, DimacsExportRoundTripsThroughSolver) {
  // Under --engine bdd the pipeline skips Tseitin unless a CNF is wanted;
  // --dump-cnf still writes the full correctness CNF.
  for (const char* engine : {"sat", "bdd"}) {
    const std::string cnfPath =
        tmpPath(std::string("cli_export_") + engine + ".cnf");
    const CliResult r =
        runCli("--size 2 --width 1 --strategy pe --engine " +
               std::string(engine) + " --dump-cnf " + cnfPath + " --quiet");
    EXPECT_EQ(r.exitCode, 0) << engine << ": " << r.output;

    std::ifstream in(cnfPath);
    ASSERT_TRUE(in.good()) << engine;
    const prop::Cnf cnf = prop::parseDimacs(in);
    EXPECT_GT(cnf.numVars, 0u) << engine;
    EXPECT_GT(cnf.numClauses(), 0u) << engine;
    // The exported correctness CNF must agree with the in-process verdict:
    // UNSAT (the design is correct).
    EXPECT_EQ(sat::solveCnf(cnf), sat::Result::Unsat) << engine;
  }
}

TEST(Cli, ProofIsSelfCheckedOnUnsat) {
  const std::string proofPath = tmpPath("cli_proof.drat");
  const CliResult r = runCli("--size 2 --width 1 --strategy pe --proof " +
                             proofPath + " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("self-check PASSED"), std::string::npos) << r.output;
  std::ifstream in(proofPath);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_FALSE(first.empty());
}

TEST(Cli, JobsVerdictsIdenticalToSequential) {
  const std::string grid = "--grid 'sizes=2,3,4;widths=1,2' --quiet";
  const CliResult seq = runCli(grid + " --jobs 1");
  const CliResult par = runCli(grid + " --jobs 3");
  EXPECT_EQ(seq.exitCode, 0) << seq.output;
  EXPECT_EQ(par.exitCode, seq.exitCode) << par.output;
  EXPECT_EQ(verdictLines(par.output), verdictLines(seq.output));
  EXPECT_NE(verdictLines(seq.output), "");
}

TEST(Cli, JobsWithoutGridIsAUsageError) {
  // --jobs fans out across grid cells; a single run is one cell.
  const CliResult r = runCli("--size 2 --width 2 --strategy pe --jobs 2");
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("--cell-jobs parallelises one cell"),
            std::string::npos)
      << r.output;
}

TEST(Cli, CellJobsVerdictsIdenticalToSequential) {
  // --cell-jobs parallelizes INSIDE each verification; verdicts must not
  // move, in either single or grid mode.
  const CliResult single = runCli("--size 8 --width 2 --cell-jobs 4 --quiet");
  EXPECT_EQ(single.exitCode, 0) << single.output;
  EXPECT_NE(single.output.find("verdict: CORRECT"), std::string::npos)
      << single.output;

  const std::string grid = "--grid 'sizes=3,4;widths=1,2' --quiet";
  const CliResult seq = runCli(grid);
  const CliResult par = runCli(grid + " --cell-jobs 3");
  EXPECT_EQ(seq.exitCode, 0) << seq.output;
  EXPECT_EQ(par.exitCode, 0) << par.output;
  EXPECT_EQ(verdictLines(par.output), verdictLines(seq.output));
}

// The two tests below are named after the --checkpoint/--resume flags that
// --cache-dir (the result store) replaced.

TEST(Cli, GridCheckpointResumeRestoresFinishedCells) {
  const std::string dir = tmpPath("cli_resume.cache");
  std::filesystem::remove_all(dir);
  const std::string grid =
      "--grid 'sizes=2,3;widths=1' --quiet --cache-dir " + dir + " --json ";

  const CliResult first = runCli(grid + tmpPath("cli_resume1.json"));
  EXPECT_EQ(first.exitCode, 0) << first.output;
  EXPECT_EQ(first.output.find("restored from cache"), std::string::npos)
      << first.output;

  // The store is a versioned header line plus one VerifyResponse per cell.
  std::ifstream in(dir + "/results.jsonl");
  ASSERT_TRUE(in.good()) << dir;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  std::string err;
  const auto header = parseJson(lines[0], &err);
  ASSERT_TRUE(header.has_value()) << err;
  EXPECT_EQ(header->uintAt("version"), 1u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto rec = parseJson(lines[i], &err);
    ASSERT_TRUE(rec.has_value()) << err;
    EXPECT_EQ(rec->stringAt("cache_key").size(), 16u);
    EXPECT_EQ(rec->stringAt("verdict"), "correct");
  }

  // The second run verifies nothing: both cells come back restored, with
  // the fresh run's verdicts and counter blocks.
  const CliResult second = runCli(grid + tmpPath("cli_resume2.json"));
  EXPECT_EQ(second.exitCode, 0) << second.output;
  EXPECT_NE(second.output.find("cell 2x1: restored from cache"),
            std::string::npos)
      << second.output;
  EXPECT_NE(second.output.find("cell 3x1: restored from cache"),
            std::string::npos)
      << second.output;
  auto cellsOf = [&](const char* name) {
    std::ifstream js(tmpPath(name));
    std::stringstream ss;
    ss << js.rdbuf();
    std::optional<JsonValue> doc = parseJson(ss.str(), &err);
    EXPECT_TRUE(doc.has_value()) << err;
    const JsonValue* cells = doc ? doc->find("cells") : nullptr;
    return cells != nullptr ? cells->array : std::vector<JsonValue>{};
  };
  const std::vector<JsonValue> fresh = cellsOf("cli_resume1.json");
  const std::vector<JsonValue> restored = cellsOf("cli_resume2.json");
  ASSERT_EQ(fresh.size(), 2u);
  ASSERT_EQ(restored.size(), 2u);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(restored[i].stringAt("verdict"), fresh[i].stringAt("verdict"));
    const JsonValue* a = fresh[i].find("counters");
    const JsonValue* b = restored[i].find("counters");
    ASSERT_TRUE(a != nullptr && b != nullptr);
    ASSERT_EQ(a->object.size(), b->object.size());
    for (std::size_t k = 0; k < a->object.size(); ++k) {
      EXPECT_EQ(a->object[k].first, b->object[k].first);
      EXPECT_EQ(a->object[k].second.number, b->object[k].second.number)
          << a->object[k].first;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Cli, CheckpointUsageErrors) {
  EXPECT_EQ(runCli("--grid 4x2 --resume").exitCode, 2);  // no such flag now
  const std::string dir = tmpPath("cli_usage.cache");
  // --cache-dir is a grid-mode flag ...
  EXPECT_EQ(runCli("--size 4 --width 2 --cache-dir " + dir).exitCode, 2);
  EXPECT_EQ(runCli("--grid 4x2 --cache-dir").exitCode, 2);  // needs DIR
  // ... and a local-run one: a daemon keeps its own store.
  const CliResult remote =
      runCli("--grid 4x2 --connect :1 --cache-dir " + dir);
  EXPECT_EQ(remote.exitCode, 2);
  EXPECT_NE(remote.output.find("local-run features"), std::string::npos)
      << remote.output;
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_EQ(runCli("--size 4 --width 2 --cell-jobs 0").exitCode, 2);
}

TEST(Cli, GridWithInjectedBugExitsOneEverywhere) {
  const CliResult r = runCli("--grid 4x2,8x2 --bug fwd:2 --jobs 2 --quiet");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("NON-CONFORMING"), std::string::npos) << r.output;
}

TEST(Cli, TraceWritesPerfettoTraceAndVersionedManifest) {
  const std::string dir = tmpPath("cli_trace");
  const std::string jsonPath = tmpPath("cli_trace.json");
  const CliResult r = runCli("--size 4 --width 2 --stats --trace " + dir +
                             " --json " + jsonPath + " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  // --stats prints the stage tree and counters to stderr (merged in); the
  // SAT stage shows the solver's own spans, as in a grid cell.
  EXPECT_NE(r.output.find("stage tree"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("verify.translate"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("sat.solve"), std::string::npos) << r.output;

  std::string err;
  const auto tr = parseJson(slurp(dir + "/trace.json"), &err);
  ASSERT_TRUE(tr.has_value()) << err;
  const JsonValue* events = tr->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array.size(), 10u);

  const auto m = parseJson(slurp(dir + "/manifest.json"), &err);
  ASSERT_TRUE(m.has_value()) << err;
  EXPECT_EQ(m->uintAt("schema_version"),
            static_cast<std::uint64_t>(trace::kManifestSchemaVersion));
  EXPECT_EQ(m->stringAt("tool"), "velev_verify");
  EXPECT_EQ(m->stringAt("verdict"), "correct");
  EXPECT_EQ(m->find("config")->uintAt("rob_size"), 4u);
  const JsonValue* counters = m->find("counters");
  ASSERT_NE(counters, nullptr);
  // The acceptance counters: encoding sizes, rewrite effort, SAT effort.
  EXPECT_GT(counters->uintAt("evc.p_equations"), 0u);
  EXPECT_GT(counters->uintAt("rewrite.rules_fired"), 0u);
  EXPECT_GT(counters->uintAt("cnf.vars"), 0u);
  EXPECT_NE(counters->find("evc.eij_vars"), nullptr);
  EXPECT_NE(counters->find("sat.conflicts"), nullptr);

  // Every counter of the --json cell is in the manifest, with its value.
  const auto report = parseJson(slurp(jsonPath), &err);
  ASSERT_TRUE(report.has_value()) << err;
  const JsonValue* cells = report->find("cells");
  ASSERT_TRUE(cells != nullptr && cells->array.size() == 1u);
  const JsonValue* cellCounters = cells->array[0].find("counters");
  ASSERT_NE(cellCounters, nullptr);
  EXPECT_GT(cellCounters->object.size(), 30u);
  for (const auto& [name, value] : cellCounters->object) {
    ASSERT_NE(counters->find(name), nullptr) << name;
    EXPECT_EQ(counters->uintAt(name), value.number) << name;
  }
}

TEST(Cli, GridTraceWritesPerCellAndMergedManifests) {
  const std::string dir = tmpPath("cli_grid_trace");
  const CliResult r =
      runCli("--grid 2x1,4x2 --jobs 2 --trace " + dir + " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;

  auto parseFile = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = parseJson(ss.str(), &err);
    EXPECT_TRUE(doc.has_value()) << path << ": " << err;
    return doc;
  };

  const auto cell = parseFile(dir + "/cell_1_4x2.manifest.json");
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->stringAt("tool"), "velev_grid");
  EXPECT_EQ(cell->find("config")->uintAt("rob_size"), 4u);
  EXPECT_EQ(cell->find("config")->uintAt("issue_width"), 2u);
  EXPECT_GT(cell->find("counters")->uintAt("eufm.nodes"), 0u);
  EXPECT_TRUE(parseFile(dir + "/cell_0_2x1.trace.json").has_value());

  const auto merged = parseFile(dir + "/manifest.json");
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->stringAt("verdict"), "correct");
  EXPECT_EQ(merged->find("config")->uintAt("cells"), 2u);
  // Merged counters are sums over the cells, so at least the single-cell's.
  EXPECT_GT(merged->find("counters")->uintAt("eufm.nodes"),
            cell->find("counters")->uintAt("eufm.nodes"));
}

TEST(Cli, GridFallbackWithTraceWritesWellFormedCellManifests) {
  // A 1 MiB arena cannot hold the PE-only translation of an 8x4 design, so
  // with --fallback retry-with-rewriting (the long alias of "rewrite") the
  // cell must memout, retry under the rewriting strategy, succeed, and its
  // per-cell manifest must record the pre-retry verdict.
  const std::string dir = tmpPath("cli_fallback_trace");
  const CliResult r = runCli(
      "--grid 8x4 --strategy pe --mem-budget 1 "
      "--fallback retry-with-rewriting --trace " + dir + " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("retried with rewriting after PE-only memout"),
            std::string::npos)
      << r.output;

  auto parseFile = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = parseJson(ss.str(), &err);
    EXPECT_TRUE(doc.has_value()) << path << ": " << err;
    return doc;
  };

  const auto cell = parseFile(dir + "/cell_0_8x4.manifest.json");
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->stringAt("tool"), "velev_grid");
  EXPECT_EQ(cell->stringAt("verdict"), "correct");
  const JsonValue* config = cell->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->uintAt("rob_size"), 8u);
  EXPECT_EQ(config->stringAt("first_verdict"), "memout");
  EXPECT_GT(cell->find("counters")->uintAt("eufm.nodes"), 0u);
  EXPECT_TRUE(parseFile(dir + "/cell_0_8x4.trace.json").has_value());

  const auto merged = parseFile(dir + "/manifest.json");
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->stringAt("verdict"), "correct");
  EXPECT_EQ(merged->find("config")->uintAt("cells"), 1u);
}

TEST(Cli, JsonReportIsWrittenAndWellFormed) {
  const std::string jsonPath = tmpPath("cli_report.json");
  const CliResult r =
      runCli("--grid 'sizes=2,3;widths=1' --jobs 2 --json " + jsonPath +
             " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"tool\": \"velev_verify\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"grid\""), std::string::npos);
  EXPECT_NE(json.find("\"rob_size\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"correct\""), std::string::npos);
  EXPECT_NE(json.find("\"mem_high_water_kb\""), std::string::npos);
}

// ---- single mode answers what grid mode answers ----------------------------

struct SingleGridCell {
  const char* name;  // test-name suffix
  unsigned size;
  unsigned width;
  const char* flags;  // everything but the cell
};

void PrintTo(const SingleGridCell& c, std::ostream* os) { *os << c.name; }

// Single mode and grid mode run one pipeline, so the same cell must give
// the same exit code and the same --json answer: verdict, reason, failed
// slice, arena peak, conflicts and the full counter block (wall-clock and
// RSS fields excluded). Timeout cells are left out: their reason holds the
// elapsed time.
class CliSingleVsGrid : public ::testing::TestWithParam<SingleGridCell> {};

TEST_P(CliSingleVsGrid, SameCellSameAnswer) {
  const SingleGridCell& c = GetParam();
  const std::string n = std::to_string(c.size), k = std::to_string(c.width);
  const std::string singleJson = tmpPath("single_" + std::string(c.name));
  const std::string gridJson = tmpPath("grid_" + std::string(c.name));
  const CliResult single = runCli("--size " + n + " --width " + k + " " +
                                  c.flags + " --quiet --json " + singleJson);
  const CliResult grid = runCli("--grid " + n + "x" + k + " " + c.flags +
                                " --quiet --json " + gridJson);
  EXPECT_EQ(single.exitCode, grid.exitCode)
      << single.output << "\n" << grid.output;

  auto onlyCell = [](const std::string& path) {
    std::string err;
    std::optional<JsonValue> doc = parseJson(slurp(path), &err);
    EXPECT_TRUE(doc.has_value()) << path << ": " << err;
    const JsonValue* cells = doc.has_value() ? doc->find("cells") : nullptr;
    EXPECT_TRUE(cells != nullptr && cells->array.size() == 1u) << path;
    return cells != nullptr && cells->array.size() == 1u ? cells->array[0]
                                                         : JsonValue{};
  };
  const JsonValue a = onlyCell(singleJson), b = onlyCell(gridJson);
  for (const char* key : {"verdict", "reason"})
    EXPECT_EQ(a.stringAt(key), b.stringAt(key)) << key;
  for (const char* key : {"failed_slice", "peak_arena_bytes", "sat_conflicts"})
    EXPECT_EQ(a.uintAt(key), b.uintAt(key)) << key;
  const JsonValue* ca = a.find("counters");
  const JsonValue* cb = b.find("counters");
  ASSERT_TRUE(ca != nullptr && cb != nullptr);
  ASSERT_EQ(ca->object.size(), cb->object.size());
  for (std::size_t i = 0; i < ca->object.size(); ++i) {
    EXPECT_EQ(ca->object[i].first, cb->object[i].first);
    EXPECT_EQ(ca->object[i].second.number, cb->object[i].second.number)
        << ca->object[i].first;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, CliSingleVsGrid,
    ::testing::Values(
        SingleGridCell{"rw_16x4", 16, 4, ""},
        SingleGridCell{"rw_48x48", 48, 48, ""},
        SingleGridCell{"pe_3x2", 3, 2, "--strategy pe"},
        SingleGridCell{"pe_4x2_stale2", 4, 2, "--strategy pe --bug stale:2"},
        SingleGridCell{"bdd_4x2", 4, 2, "--engine bdd"},
        SingleGridCell{"both_3x2", 3, 2, "--engine both"},
        SingleGridCell{"rw_8x2_fwd3", 8, 2, "--bug fwd:3"},
        SingleGridCell{"pe_8x4_memout", 8, 4, "--strategy pe --mem-budget 1"},
        SingleGridCell{"pe_4x4_budget1", 4, 4, "--strategy pe --budget 1"},
        SingleGridCell{"rw_32x32_no_inprocess", 32, 32, "--no-inprocess"}),
    [](const ::testing::TestParamInfo<SingleGridCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace velev
