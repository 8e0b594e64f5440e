// Seeded workload inputs and their known answers.
//
// Every input is a core::VerifyRequest plus the answer it must produce. The
// answer is fixed by how the input was built, never by running the
// verifier: a bug-free model is `correct`, an injected `fwd` bug at slice S
// is `rewrite-mismatch` at slice S, the PE-only `stale:2` cell is a
// `counterexample`, and a translate-only (`skip_sat`) cell is
// `inconclusive`. Inputs depend on the workload name and the seed alone: the
// generator below is the benchmark's own, so a change to the library cannot
// change what the benchmark asks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/request.hpp"

namespace perfbench {

enum class Workload { WideIssue, RobScale, PeOnly, ServeMix };

std::optional<Workload> workloadFromName(std::string_view name);
const char* workloadName(Workload w);

/// SplitMix64.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Expect {
  velev::core::Verdict verdict = velev::core::Verdict::Correct;
  unsigned failedSlice = 0;  // RewriteMismatch only
};

struct Input {
  std::uint64_t id = 0;
  velev::core::VerifyRequest req;
  /// VerifyOptions::jobs: intra-cell worker threads (not part of a request).
  unsigned jobs = 1;
  Expect expect;
};

/// Issue width shared by the wide_issue SAT cell and the rob_scale cells:
/// by the paper's Table 5 their CNFs must be identical.
constexpr unsigned kSizeIndependentWidth = 48;

/// Any single input running longer than this counts as failed.
constexpr double kInputTimeLimitSeconds = 30.0;

/// The inputs of one pass of a batch workload (wide_issue, rob_scale,
/// pe_only), in the order they run.
std::vector<Input> batchInputs(Workload w, std::uint64_t seed);

/// The translate-only twin of the wide_issue SAT cell: rob_scale checks
/// that its own correct cell reproduces this cell's CNF size exactly.
velev::core::VerifyRequest sizeReferenceRequest();

/// serve_mix traffic. A fixed hot pool (the serve_replay cell mix, kept to
/// cells with a known answer) is warmed into the daemon's cache during
/// set-up; each pass then draws 90% of its requests from the pool with a
/// quadratic skew and 10% from fresh cells that never repeat in a run.
///
/// The fresh cells are a finite space, enumerated up front and dealt in a
/// seeded order, so a pass never searches for an unused cell. passesLeft()
/// says how many more passes the space can fill.
class ServeTraffic {
 public:
  static constexpr unsigned kRequestsPerPass = 1000;
  static constexpr unsigned kFreshPerPass = kRequestsPerPass / 10;
  /// One fresh cell in this many is bug-free; the others carry a `fwd` bug.
  static constexpr unsigned kBugFreeEvery = 5;

  explicit ServeTraffic(std::uint64_t seed);

  const std::vector<Input>& hotPool() const { return pool_; }

  std::size_t passesLeft() const;

  /// The requests of the next pass; each call continues the seeded stream.
  /// Requires passesLeft() > 0.
  std::vector<Input> nextPass();

 private:
  /// A fresh cell: N, k, and the bug slice (0: bug-free, then `variant`
  /// picks the engine and inprocessing knobs).
  struct Fresh {
    std::uint8_t n = 0, k = 0, slice = 0, variant = 0;
  };

  Input freshInput(const Fresh& f) const;

  std::vector<Input> pool_;
  SeedRng rng_;
  std::vector<Fresh> bugFree_, bugged_;  // in the order they are dealt
  std::size_t nextBugFree_ = 0, nextBugged_ = 0;
  std::uint64_t nextId_ = 1;
};

/// Known-answer check; on a miss `why` says what differed.
bool matchesExpect(const Expect& e, velev::core::Verdict verdict,
                   unsigned failedSlice, std::string* why);

/// Canonical text of an input list, one line per input: what the
/// seed-discipline self-check compares byte for byte.
std::string listInputs(const std::vector<Input>& inputs);

}  // namespace perfbench
