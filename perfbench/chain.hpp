// The two ways the benchmark verifies a batch input.
//
// verifyInput() is the untraced path every end-to-end metric comes from: one
// call to core::verify (or core::verifyWith when the input asks for
// intra-cell jobs). runChain() re-executes the same input as the chain of
// public layer calls core::verifyWith is made of, and records a span around
// each call:
//
//   models.build   models::buildOoO + models::buildSpec
//   tlsim.sim      core::buildDiagram
//   rewrite        rewrite::rewriteRobUpdates
//   evc.translate  evc::translate
//   sat.inprocess  sat::inprocess
//   sat.cdcl       sat::solveCnf on the simplified CNF
//   bdd.check      bdd::checkValidity
//
// The chain fills a core::VerifyReport the way verifyWith does, so its
// verdict and core::reportCounters block can be compared with the untraced
// run field for field.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "inputs.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  // seconds since the log was created
  double end = 0;
  int parent = -1;  // index into the log, -1 for a root
  std::uint64_t input = 0;
};

/// In-memory span log, written out once when the benchmark ends.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  int begin(std::string name, int parent, std::uint64_t input);
  void end(int span);
  /// A span timed elsewhere (e.g. on a client thread).
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t input);
  double seconds(int span) const {
    return spans_[span].end - spans_[span].start;
  }
  /// JSON array of {name, start_us, end_us, parent, input}.
  bool write(const std::string& path) const;

 private:
  double sinceOrigin(Clock::time_point t) const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Seconds spent in each layer call of one chain run.
struct LayerSeconds {
  double models = 0;
  double sim = 0;
  double rewrite = 0;
  double translate = 0;
  double inprocess = 0;
  double cdcl = 0;
  double bdd = 0;
};

struct ChainResult {
  velev::core::VerifyReport report;
  LayerSeconds seconds;
  double wallSeconds = 0;  // the input's root span
};

velev::core::VerifyReport verifyInput(const Input& in);

ChainResult runChain(const Input& in, SpanLog& log);

}  // namespace perfbench
