// Tests for the tracing/metrics subsystem (support/trace) and the JSON
// reader that round-trips its artifacts (support/json): span nesting,
// thread interleaving under concurrent attachment, counter-merge rules,
// Chrome-trace validity, and the versioned manifest schema. The final
// integration test drives core::verify() under a Collector and checks the
// paper-aligned counter block comes out populated.
#include "support/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "core/request.hpp"
#include "core/verifier.hpp"
#include "support/json.hpp"

namespace velev {
namespace {

using trace::Collector;
using trace::Use;

TEST(Trace, OffByDefaultAndZeroCost) {
  EXPECT_EQ(trace::active(), nullptr);
  // With no collector attached, spans and counters are inert no-ops.
  {
    TRACE_SPAN("nobody.listens");
    TRACE_COUNTER("nobody.counts", 42);
  }
  EXPECT_EQ(trace::active(), nullptr);
}

TEST(Trace, UseAttachesAndRestores) {
  Collector c;
  EXPECT_EQ(trace::active(), nullptr);
  {
    Use use(&c);
    EXPECT_EQ(trace::active(), &c);
    {
      Collector inner;
      Use nested(&inner);
      EXPECT_EQ(trace::active(), &inner);
    }
    EXPECT_EQ(trace::active(), &c);
  }
  EXPECT_EQ(trace::active(), nullptr);
}

TEST(Trace, NullCollectorUseIsNoop) {
  Use use(nullptr);
  EXPECT_EQ(trace::active(), nullptr);
}

TEST(Trace, SpansRecordNestingDepth) {
  Collector c;
  {
    Use use(&c);
    TRACE_SPAN("outer");
    {
      TRACE_SPAN("middle");
      { TRACE_SPAN("inner"); }
    }
    { TRACE_SPAN("middle2"); }
  }
  const std::vector<trace::SpanEvent> spans = c.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Spans close innermost-first; names are the static strings we passed.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_STREQ(spans[1].name, "middle");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "middle2");
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_STREQ(spans[3].name, "outer");
  EXPECT_EQ(spans[3].depth, 0u);
  // Containment: outer spans cover their children.
  EXPECT_LE(spans[3].startUs, spans[0].startUs);
  EXPECT_GE(spans[3].startUs + spans[3].durUs,
            spans[0].startUs + spans[0].durUs);
}

TEST(Trace, ReattachingSameCollectorKeepsThreadIdentity) {
  Collector c;
  Use outer(&c);
  TRACE_SPAN("parent");
  {
    // A task run inline: re-attach the already-active collector on the
    // same thread. Nesting must continue, not restart on a fresh tid.
    Use inner(&c);
    TRACE_SPAN("child");
  }
  const auto spans = c.spans();
  ASSERT_EQ(spans.size(), 1u);  // "parent" still open; only "child" closed
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(c.threadsSeen(), 1u);
}

TEST(Trace, ThreadsInterleaveIntoOneCollector) {
  Collector c;
  constexpr int kSpansPerThread = 50;
  auto work = [&c] {
    Use use(&c);
    for (int i = 0; i < kSpansPerThread; ++i) {
      TRACE_SPAN("thread.work");
      TRACE_COUNTER("thread.iterations", 1);
    }
  };
  std::thread a(work), b(work);
  a.join();
  b.join();
  EXPECT_EQ(c.threadsSeen(), 2u);
  const auto spans = c.spans();
  ASSERT_EQ(spans.size(), 2u * kSpansPerThread);
  // Every span carries one of the two registered tids and depth 0.
  for (const trace::SpanEvent& s : spans) {
    EXPECT_LT(s.tid, 2u);
    EXPECT_EQ(s.depth, 0u);
  }
  EXPECT_EQ(c.counter("thread.iterations"), 2u * kSpansPerThread);
}

TEST(Trace, CounterMergeRules) {
  Collector c;
  c.addCounter("acc", 3);
  c.addCounter("acc", 4);
  EXPECT_EQ(c.counter("acc"), 7u);

  c.setCounter("gauge", 10);
  c.setCounter("gauge", 5);  // last writer wins
  EXPECT_EQ(c.counter("gauge"), 5u);

  c.maxCounter("peak", 10);
  c.maxCounter("peak", 5);  // keeps the high-water mark
  c.maxCounter("peak", 12);
  EXPECT_EQ(c.counter("peak"), 12u);

  EXPECT_EQ(c.counter("never-written"), 0u);
  EXPECT_EQ(c.counters().size(), 3u);
}

TEST(Trace, ChromeTraceIsValidJson) {
  Collector c;
  {
    Use use(&c);
    TRACE_SPAN("stage.a");
    { TRACE_SPAN("stage.b"); }
    TRACE_COUNTER("things", 7);
  }
  std::ostringstream os;
  c.writeChromeTrace(os);

  std::string err;
  const auto doc = parseJson(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  // process_name metadata + 1 thread_name + 2 "X" spans + 1 "C" counter.
  EXPECT_EQ(events->array.size(), 5u);
  unsigned complete = 0, counterSamples = 0, metadata = 0;
  for (const JsonValue& e : events->array) {
    const std::string_view ph = e.stringAt("ph");
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(e.find("ts") != nullptr && e.find("dur") != nullptr &&
                  e.find("pid") != nullptr && e.find("tid") != nullptr);
    } else if (ph == "C") {
      ++counterSamples;
      EXPECT_EQ(e.stringAt("name"), "things");
      EXPECT_EQ(e.find("args")->uintAt("value"), 7u);
    } else {
      EXPECT_EQ(ph, "M");
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(counterSamples, 1u);
  EXPECT_EQ(metadata, 2u);
}

TEST(Trace, StageTreeMentionsEverySpanAndCounter) {
  Collector c;
  {
    Use use(&c);
    TRACE_SPAN("alpha");
    { TRACE_SPAN("beta"); }
    TRACE_COUNTER("gamma.count", 9);
  }
  std::ostringstream os;
  c.writeStageTree(os);
  const std::string tree = os.str();
  EXPECT_NE(tree.find("alpha"), std::string::npos) << tree;
  EXPECT_NE(tree.find("beta"), std::string::npos) << tree;
  EXPECT_NE(tree.find("gamma.count"), std::string::npos) << tree;
}

TEST(Trace, ManifestRoundTripsThroughParser) {
  Collector c;
  c.setCounter("live.counter", 11);
  c.setCounter("shared.name", 1);  // must lose to the explicit value below
  {
    Use use(&c);
    TRACE_SPAN("one.span");
  }

  trace::ManifestData m;
  m.tool = "trace_test";
  m.config.emplace_back("rob_size", "8");       // numeric-looking: number
  m.config.emplace_back("strategy", "rw+pe");   // not numeric: string
  m.budgetWallSeconds = 1.5;
  m.budgetMemoryBytes = 1024;
  m.budgetSatConflicts = -1;
  m.verdict = "correct";
  m.reason = "because \"quoted\"\n";
  m.stageSeconds = {{"sim", 0.25}, {"sat", 0.75}};
  m.peakArenaBytes = 4096;
  m.rssHighWaterKb = 100;
  m.counters = {{"explicit.counter", 3}, {"shared.name", 2}};

  std::ostringstream os;
  trace::writeManifest(os, m, &c);

  std::string err;
  const auto doc = parseJson(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err << "\n" << os.str();
  EXPECT_EQ(doc->uintAt("schema_version"),
            static_cast<std::uint64_t>(trace::kManifestSchemaVersion));
  EXPECT_EQ(doc->stringAt("tool"), "trace_test");
  EXPECT_FALSE(doc->stringAt("git_describe").empty());
  EXPECT_EQ(doc->stringAt("verdict"), "correct");
  EXPECT_EQ(doc->stringAt("reason"), "because \"quoted\"\n");

  const JsonValue* config = doc->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_TRUE(config->find("rob_size")->isNumber());
  EXPECT_EQ(config->uintAt("rob_size"), 8u);
  EXPECT_EQ(config->stringAt("strategy"), "rw+pe");

  const JsonValue* budget = doc->find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_DOUBLE_EQ(budget->numberAt("wall_seconds"), 1.5);
  EXPECT_EQ(budget->numberAt("sat_conflicts"), -1.0);

  const JsonValue* stages = doc->find("stage_seconds");
  ASSERT_NE(stages, nullptr);
  EXPECT_DOUBLE_EQ(stages->numberAt("sim"), 0.25);

  EXPECT_EQ(doc->uintAt("traced_threads"), 1u);

  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->uintAt("live.counter"), 11u);     // from the collector
  EXPECT_EQ(counters->uintAt("explicit.counter"), 3u);  // from the data
  EXPECT_EQ(counters->uintAt("shared.name"), 2u);       // explicit wins
}

TEST(Trace, ManifestWithoutCollectorOmitsTracedThreads) {
  trace::ManifestData m;
  m.tool = "bench";
  m.verdict = "correct";
  std::ostringstream os;
  trace::writeManifest(os, m, nullptr);
  const auto doc = parseJson(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("traced_threads"), nullptr);
  EXPECT_EQ(doc->find("reason"), nullptr);  // empty reason omitted
}

// ---- the JSON reader itself -------------------------------------------------

TEST(JsonParser, ParsesScalarsAndEscapes) {
  const auto doc = parseJson(
      R"({"s": "a\"b\\c\nA", "n": -1.5e2, "t": true, "f": false,
          "z": null, "arr": [1, 2, 3], "empty": {}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->stringAt("s"), "a\"b\\c\nA");
  EXPECT_DOUBLE_EQ(doc->numberAt("n"), -150.0);
  EXPECT_TRUE(doc->find("t")->isBool() && doc->find("t")->boolean);
  EXPECT_TRUE(doc->find("f")->isBool() && !doc->find("f")->boolean);
  EXPECT_TRUE(doc->find("z")->isNull());
  ASSERT_TRUE(doc->find("arr")->isArray());
  EXPECT_EQ(doc->find("arr")->array.size(), 3u);
  EXPECT_TRUE(doc->find("empty")->isObject());
  EXPECT_TRUE(doc->find("empty")->object.empty());
}

TEST(JsonParser, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parseJson("", &err).has_value());
  EXPECT_FALSE(parseJson("{", &err).has_value());
  EXPECT_FALSE(parseJson("{\"a\": }", &err).has_value());
  EXPECT_FALSE(parseJson("[1, 2,]", &err).has_value());
  EXPECT_FALSE(parseJson("\"unterminated", &err).has_value());
  EXPECT_FALSE(parseJson("{} trailing", &err).has_value());
  EXPECT_FALSE(parseJson("nul", &err).has_value());
  EXPECT_FALSE(parseJson("\"bad \\q escape\"", &err).has_value());
  // The depth limit makes a hostile deeply-nested input an error, not a
  // stack overflow.
  EXPECT_FALSE(parseJson(std::string(100, '[') + std::string(100, ']'), &err)
                   .has_value());
  EXPECT_NE(err.find("offset"), std::string::npos);
}

// ---- pipeline integration ---------------------------------------------------

TEST(Trace, VerifyPublishesPaperCounters) {
  Collector c;
  core::VerifyReport rep;
  {
    Use use(&c);
    core::VerifyRequest req;
    req.robSize = 4;
    req.issueWidth = 2;
    rep = core::verify(req);
  }
  EXPECT_EQ(rep.verdict(), core::Verdict::Correct);

  // Stage spans from verifyWith plus the sub-stage spans of the layers.
  std::ostringstream os;
  c.writeStageTree(os);
  const std::string tree = os.str();
  for (const char* span : {"verify.sim", "verify.rewrite", "verify.translate",
                           "verify.sat", "tlsim.step", "rewrite.slices",
                           "translate.encode", "sat.solve"})
    EXPECT_NE(tree.find(span), std::string::npos) << "missing " << span
                                                  << " in:\n" << tree;

  // The canonical counter block is on the collector and populated.
  EXPECT_GT(c.counter("tlsim.cycles"), 0u);
  EXPECT_GT(c.counter("eufm.nodes"), 0u);
  EXPECT_GT(c.counter("rewrite.rules_fired"), 0u);
  EXPECT_GT(c.counter("rewrite.updates_removed"), 0u);
  EXPECT_GT(c.counter("evc.p_equations"), 0u);
  EXPECT_GT(c.counter("cnf.vars"), 0u);
  // The inprocessing front end publishes its own counter block; on a cell
  // this small it refutes the formula outright, so the CDCL counters may
  // legitimately be zero.
  EXPECT_GT(c.counter("sat.inprocess.clauses_before"), 0u);
  EXPECT_GT(c.counter("sat.inprocess.clauses_removed"), 0u);
  // The rewriting strategy's headline: no e_ij variables remain.
  EXPECT_EQ(c.counter("evc.eij_vars"), 0u);

  // reportCounters() mirrors the same values without a collector.
  bool sawNodes = false;
  for (const auto& [name, value] : core::reportCounters(rep)) {
    if (name == "eufm.nodes") {
      sawNodes = true;
      EXPECT_EQ(value, c.counter("eufm.nodes"));
    }
  }
  EXPECT_TRUE(sawNodes);
}

TEST(Trace, PeOnlyStrategyProducesEijVariables) {
  Collector c;
  core::VerifyReport rep;
  {
    Use use(&c);
    core::VerifyRequest req;
    req.robSize = 4;
    req.issueWidth = 2;
    req.strategy = core::Strategy::PositiveEqualityOnly;
    rep = core::verify(req);
  }
  EXPECT_EQ(rep.verdict(), core::Verdict::Correct);
  // Without the rewriting rules the initial-ROB instructions survive into
  // the encoding and force e_ij variables (Table 3).
  EXPECT_GT(c.counter("evc.eij_vars"), 0u);
  EXPECT_EQ(c.counter("rewrite.rules_fired"), 0u);
}

}  // namespace
}  // namespace velev
