// End-to-end correspondence checking: the public entry point of the library.
//
// verify() builds the processor models, symbolically simulates the
// commutative diagram, optionally applies the rewriting rules, translates
// the correctness formula to CNF via Positive Equality, and checks
// unsatisfiability with the CDCL solver. Per-stage wall-clock times are
// reported — they are the quantities of Tables 1, 2, 4 and 5 of the paper.
//
// Every run is resource-governed (support/budget.hpp): a ResourceBudget in
// VerifyOptions bounds wall-clock time and logical arena memory, and an
// exhausted budget degrades into Verdict::Timeout / Verdict::MemOut rather
// than a crash — this is how Table 2's "out of memory" entries reproduce on
// a machine with plenty of RAM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/diagram.hpp"
#include "evc/translate.hpp"
#include "models/ooo.hpp"
#include "rewrite/engine.hpp"
#include "sat/memo.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"
#include "support/budget.hpp"
#include "support/names.hpp"

namespace velev::core {

enum class Strategy {
  /// Translate the full correctness formula (Positive Equality, e_ij
  /// encoding, complete memory semantics). Blows up with ROB size (Table 2).
  PositiveEqualityOnly,
  /// First prove and remove the updates of the instructions initially in
  /// the ROB with the rewriting rules, then exploit Positive Equality with
  /// the conservative memory model (Tables 4-5).
  RewritingPlusPositiveEquality,
};

/// Stable lower-case name ("pe-only" / "rw+pe"), used by the CLI flags, the
/// bench reports and the run manifests.
const char* strategyName(Strategy s);

/// Inverse of strategyName(); unknown names yield nullopt.
std::optional<Strategy> strategyFromName(std::string_view name);

enum class Engine {
  /// CNF + CDCL SAT (the paper's Chaff flow). The default.
  Sat,
  /// Shared-ROBDD evaluation of the negated correctness formula built
  /// directly from the AIG (no Tseitin), plus the transitivity side
  /// clauses: Valid iff the result is the false terminal.
  Bdd,
  /// Run both engines under sibling budgets and cross-check: a conclusive
  /// verdict disagreement is a hard error (InternalError), never a
  /// quietly-picked winner.
  Both,
};

/// Stable lower-case name ("sat" / "bdd" / "both") for the CLI flag, the
/// bench reports and the run manifests.
const char* engineName(Engine e);

/// Inverse of engineName(); unknown names yield nullopt.
std::optional<Engine> engineFromName(std::string_view name);

struct VerifyOptions {
  Strategy strategy = Strategy::RewritingPlusPositiveEquality;
  Engine engine = Engine::Sat;
  tlsim::Simulator::Options sim;
  /// Resource limits for the whole run (wall clock, logical arena bytes,
  /// SAT conflicts). Under Engine::Both each engine gets its own governor
  /// armed from this same budget, so one engine exhausting its share never
  /// starves the other.
  ResourceBudget budget;
  bool skipSat = false;  // stop after translation (timing benches)
  evc::UfScheme ufScheme = evc::UfScheme::NestedIte;  // ablation hook
  /// Inprocessing front end of the SAT stage (simplify.hpp). Enabled by
  /// default; `--no-inprocess` clears `inprocess.enabled`. Ignored by the
  /// BDD-only engine (which never builds clause databases).
  sat::InprocessOptions inprocess;
  /// When set, the SAT stage consults this content-addressed memo of
  /// finished solves first (sat/memo.hpp): a bit-identical CNF under
  /// identical options replays the stored result and per-call stats, so
  /// verdicts and counters match a fresh solve. Ignored under a memory
  /// budget, where a replay could say `correct` for a run that would trip
  /// `memout`, and under `proof`, which needs a real solve. Thread-safe;
  /// not owned.
  sat::SolveMemo* satMemo = nullptr;
  /// When set, receives a copy of the translated CNF (`--dump-cnf`, the
  /// proof self-check). Tseitin then runs under Engine::Bdd too. Not owned;
  /// like satMemo, not part of the serializable VerifyRequest.
  prop::Cnf* cnfOut = nullptr;
  /// When set, the SAT stage logs a DRAT proof here: the inprocessing
  /// steps, then the CDCL steps. On an Unsat answer it certifies against
  /// the translated CNF (sat::checkRup). Not owned.
  sat::Proof* proof = nullptr;
  /// Worker threads available *inside* this one verification: with jobs > 1
  /// the rewrite slice checks (per-slice eufm::ShadowContext overlays) and
  /// the CNF build (Tseitin clause shards, transitivity components) each
  /// fan out in one parallelFor on that many threads. Verdict, counters and
  /// the emitted CNF are identical to jobs == 1 for any value — parallelism
  /// here only buys wall clock on the big-N cells of the paper-scale sweep.
  /// Not part of the serializable VerifyRequest (scheduling, not semantics).
  unsigned jobs = 1;
};

enum class Verdict {
  Correct,              // CNF proven unsatisfiable
  CounterexampleFound,  // SAT model exists (design incorrect)
  RewriteMismatch,      // rewriting flagged a non-conforming slice
  Inconclusive,         // SAT conflict budget exhausted / SAT skipped
  Timeout,              // wall-clock budget exhausted
  MemOut,               // memory budget exhausted (Table 2's "out of memory")
  Skipped,              // never ran: a fuzz oracle left off (also a wire value)
};

/// Stable lower-case name, used by the CLI and the JSON bench reports.
const char* verdictName(Verdict v);

/// Inverse of verdictName() (round-trips every Verdict value; the CLI test
/// asserts this). Unknown names yield nullopt.
std::optional<Verdict> verdictFromName(std::string_view name);

/// The one process exit-code mapping shared by velev_verify, the benches
/// and cli_test: 0 correct, 1 refuted (counterexample or rewrite mismatch),
/// 3 inconclusive/skipped, 4 budget exhausted (timeout/memout). Exit code 2
/// is reserved for usage errors and never produced from a Verdict.
int verdictExitCode(Verdict v);

/// Wall-clock seconds per pipeline stage. On a budget-exceeded run the
/// stage that tripped carries its partial time.
struct StageSeconds {
  double sim = 0;        // symbolic simulation (Table 1)
  double rewrite = 0;    // rewriting rules
  double translate = 0;  // EUFM -> CNF (Tables 2 col. / 4)
  double sat = 0;        // SAT checking (Tables 2 / 3 / 5)
  double bdd = 0;        // BDD checking (Engine::Bdd / Engine::Both)
  double total() const { return sim + rewrite + translate + sat + bdd; }
};

/// The unified result of a verification run: verdict, human-readable
/// reason, and resource accounting. Replaces the former loose trio of
/// VerifyReport::{verdict, satResult, rewrite*} fields.
struct Outcome {
  Verdict verdict = Verdict::Inconclusive;
  /// Why: the rewrite-mismatch explanation for RewriteMismatch, the budget
  /// trip message for Timeout/MemOut, empty otherwise.
  std::string reason;
  /// RewriteMismatch only: 1-based index of the non-conforming slice.
  unsigned failedSlice = 0;
  /// Raw SAT answer (Unknown when the SAT stage never ran or gave up).
  sat::Result satResult = sat::Result::Unknown;
  StageSeconds seconds;
  /// High-water mark of the summed logical arena bytes (EUFM DAG + AIG +
  /// CNF + solver clause databases) — the quantity a memory budget governs.
  std::size_t peakArenaBytes = 0;
  /// Process-wide VmHWM snapshot at completion, for accounting only.
  std::size_t rssHighWaterKb = 0;

  bool budgetExceeded() const {
    return verdict == Verdict::Timeout || verdict == Verdict::MemOut;
  }
};

/// EUFM context accounting taken by one O(numNodes) scan when a run
/// finishes (never maintained on the interning hot path).
struct ContextStats {
  std::uint64_t nodes = 0;         // hash-consed DAG nodes
  std::uint64_t memoryReads = 0;   // Kind::Read nodes
  std::uint64_t memoryWrites = 0;  // Kind::Write nodes
  std::uint64_t arenaBytes = 0;    // Context::memoryBytes()
};

/// Fill a ContextStats by one linear scan of the DAG. verifyWith() calls it
/// when a run finishes; callers that drive the stages themselves (the
/// benchmark's traced chain) use it the same way.
ContextStats scanContext(const eufm::Context& cx);

struct VerifyReport {
  Outcome outcome;

  unsigned updatesRemoved = 0;  // rewriting strategy only
  evc::TranslationStats evcStats;
  rewrite::RewriteStats rewriteStats;  // zeros on the PE-only strategy
  sat::Stats satStats;
  tlsim::Simulator::Stats simStats;
  ContextStats cxStats;
  /// Which decision engine(s) ran. reportCounters() appends the bdd.*
  /// block only when this is not Engine::Sat, so SAT-only manifests keep
  /// their historical counter set.
  Engine engine = Engine::Sat;
  bdd::BddStats bddStats;  // zeros when the BDD engine never ran
  /// CNF inprocessing statistics of the SAT stage; `inprocessed` says
  /// whether the pipeline ran at all (reportCounters() appends the
  /// sat.inprocess.* block only then, so --no-inprocess manifests keep the
  /// historical counter set).
  bool inprocessed = false;
  sat::InprocessStats inprocessStats;

  Verdict verdict() const { return outcome.verdict; }
  double simSeconds() const { return outcome.seconds.sim; }
  double rewriteSeconds() const { return outcome.seconds.rewrite; }
  double translateSeconds() const { return outcome.seconds.translate; }
  double satSeconds() const { return outcome.seconds.sat; }
  double totalSeconds() const { return outcome.seconds.total(); }
};

/// The canonical paper-aligned counter block of a finished run: the Table 3
/// encoding sizes (`evc.*`, `cnf.*`), Table 5 rewrite statistics
/// (`rewrite.*`), simulator work (`tlsim.*`), EUFM context sizes (`eufm.*`)
/// and sequential SAT effort (`sat.*`). This is what the benches embed in
/// their JSON reports and what writeManifest() records under "counters" —
/// independent of whether a trace::Collector was attached. Names are
/// documented in docs/TRACE_FORMAT.md.
std::vector<std::pair<std::string, std::uint64_t>> reportCounters(
    const VerifyReport& rep);

/// Verify one configuration over a caller-provided context and prebuilt
/// models (lets benchmarks and the fuzz oracles reuse the expensive model
/// construction and inspect the expressions). This is the low-level
/// expanded-options entry point — VerifyOptions can carry state a
/// serializable request cannot (a SolveMemo, CNF and proof outputs,
/// non-default inprocessing knobs); request-driven callers go through
/// verify() in core/request.hpp, the single request representation shared
/// by the CLI, the grid runner, the benches and the velev_serve daemon.
VerifyReport verifyWith(eufm::Context& cx, const models::Isa& isa,
                        models::OoOProcessor& impl,
                        models::SpecProcessor& spec,
                        const VerifyOptions& opts = {});

}  // namespace velev::core

// Name-registry tables (support/names.hpp): the single source of truth
// behind strategyName()/engineName()/verdictName() and their *FromName()
// inverses. tests/core_test.cpp round-trips every entry.
template <>
struct velev::names::Registry<velev::core::Strategy> {
  static constexpr EnumEntry<velev::core::Strategy> entries[] = {
      {velev::core::Strategy::PositiveEqualityOnly, "pe-only"},
      {velev::core::Strategy::RewritingPlusPositiveEquality, "rw+pe"},
  };
};

template <>
struct velev::names::Registry<velev::core::Engine> {
  static constexpr EnumEntry<velev::core::Engine> entries[] = {
      {velev::core::Engine::Sat, "sat"},
      {velev::core::Engine::Bdd, "bdd"},
      {velev::core::Engine::Both, "both"},
  };
};

template <>
struct velev::names::Registry<velev::core::Verdict> {
  static constexpr EnumEntry<velev::core::Verdict> entries[] = {
      {velev::core::Verdict::Correct, "correct"},
      {velev::core::Verdict::CounterexampleFound, "counterexample"},
      {velev::core::Verdict::RewriteMismatch, "rewrite-mismatch"},
      {velev::core::Verdict::Inconclusive, "inconclusive"},
      {velev::core::Verdict::Timeout, "timeout"},
      {velev::core::Verdict::MemOut, "memout"},
      {velev::core::Verdict::Skipped, "skipped"},
  };
};
