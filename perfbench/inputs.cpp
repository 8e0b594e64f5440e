#include "inputs.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "support/json.hpp"

namespace perfbench {

using velev::core::Engine;
using velev::core::Strategy;
using velev::core::Verdict;
using velev::core::VerifyRequest;
using velev::models::BugKind;

namespace {

constexpr std::pair<Workload, const char*> kWorkloadNames[] = {
    {Workload::WideIssue, "wide_issue"},
    {Workload::RobScale, "rob_scale"},
    {Workload::PeOnly, "pe_only"},
    {Workload::ServeMix, "serve_mix"},
};

VerifyRequest cell(unsigned n, unsigned k,
                   Strategy s = Strategy::RewritingPlusPositiveEquality,
                   Engine e = Engine::Sat) {
  VerifyRequest req;
  req.robSize = n;
  req.issueWidth = k;
  req.strategy = s;
  req.engine = e;
  return req;
}

VerifyRequest withBug(VerifyRequest req, BugKind kind, unsigned slice) {
  req.bug = {kind, slice};
  return req;
}

Input input(VerifyRequest req, Expect expect = {}, unsigned jobs = 1) {
  Input in;
  in.req = std::move(req);
  in.expect = expect;
  in.jobs = jobs;
  return in;
}

Expect mismatchAt(unsigned slice) {
  return {Verdict::RewriteMismatch, slice};
}

template <typename T>
void shuffle(std::vector<T>& v, SeedRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

// wide_issue: decision-bound cells at the widest issue widths. The seed
// varies only the ROB size, which by Table 5 leaves the CNF (and so the
// decision work) unchanged.
std::vector<Input> wideIssue(SeedRng& rng) {
  const unsigned k = kSizeIndependentWidth;
  return {
      // Inprocessing-dominated SAT cell (the scaled 128x128).
      input(cell(k + static_cast<unsigned>(rng.below(16)), k)),
      // The BDD engine at a width where it still reorders.
      input(cell(64 + static_cast<unsigned>(rng.below(16)), 64,
                 Strategy::RewritingPlusPositiveEquality, Engine::Bdd)),
      // Large ROB, narrower width: inprocessing makes this one slower.
      input(cell(190 + static_cast<unsigned>(rng.below(21)), 32)),
  };
}

// rob_scale: the largest ROB with the decision layer bypassed. Rewriting
// stops at the bug slice, so its cost grows with the slice. The seed puts
// one bug slice in [5N/8, 11N/16) and mirrors it to 3N/2 + 1 - s1: both
// in the upper half, their sum fixed, and each within N/16 slices of a
// fixed point, so neither the pass nor any one input depends on the seed.
std::vector<Input> robScale(SeedRng& rng) {
  constexpr unsigned kRob = 400;
  constexpr unsigned kJobs = 4;
  VerifyRequest base = cell(kRob, kSizeIndependentWidth);
  base.skipSat = true;
  base.inprocess = false;
  const unsigned s1 = 5 * kRob / 8 + static_cast<unsigned>(rng.below(kRob / 16));
  const unsigned s2 = kRob + kRob / 2 + 1 - s1;
  return {
      input(base, {Verdict::Inconclusive}, kJobs),
      input(withBug(base, BugKind::ForwardingWrongOperand, s1),
            mismatchAt(s1), kJobs),
      input(withBug(base, BugKind::ForwardingWrongOperand, s2),
            mismatchAt(s2), kJobs),
  };
}

// pe_only: Positive Equality with complete memory forwarding, e_ij
// variables and transitivity clauses; the work is fixed, the seed orders it.
std::vector<Input> peOnly() {
  constexpr Strategy pe = Strategy::PositiveEqualityOnly;
  return {
      input(cell(4, 3, pe)),
      input(cell(5, 2, pe)),
      input(withBug(cell(4, 2, pe), BugKind::ForwardingStaleResult, 2),
            {Verdict::CounterexampleFound}),
      input(cell(3, 2, pe, Engine::Both)),
      input(cell(4, 2, pe, Engine::Bdd)),
  };
}

// The serve_replay pool, minus the cells whose answer is not known a priori.
std::vector<Input> servePool() {
  std::vector<Input> pool;
  for (unsigned n : {2u, 3u, 4u, 5u, 6u, 8u})
    for (unsigned k : {1u, 2u}) {
      const VerifyRequest req = cell(n, k);
      pool.push_back(input(req));
      pool.push_back(
          input(withBug(req, BugKind::ForwardingWrongOperand, 2), mismatchAt(2)));
      if (n <= 4)
        pool.push_back(input(cell(n, k, Strategy::PositiveEqualityOnly)));
      if (n <= 3)
        pool.push_back(input(
            cell(n, k, Strategy::RewritingPlusPositiveEquality, Engine::Both)));
      if (n >= 4) {
        VerifyRequest skip = req;
        skip.skipSat = true;
        pool.push_back(input(skip, {Verdict::Inconclusive}));
      }
    }
  for (unsigned n : {2u, 3u}) {
    VerifyRequest req = cell(n, 1, Strategy::PositiveEqualityOnly);
    req.ufScheme = velev::evc::UfScheme::Ackermann;
    pool.push_back(input(req));
  }
  for (unsigned n : {3u, 4u}) {
    VerifyRequest req = cell(n, 2);
    req.coneOfInfluence = false;
    pool.push_back(input(req));
  }
  pool.push_back(input(withBug(cell(4, 2, Strategy::PositiveEqualityOnly),
                               BugKind::ForwardingStaleResult, 2),
                       {Verdict::CounterexampleFound}));
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i].id = i + 1;
  return pool;
}

}  // namespace

std::optional<Workload> workloadFromName(std::string_view name) {
  for (const auto& [w, n] : kWorkloadNames)
    if (name == n) return w;
  return std::nullopt;
}

const char* workloadName(Workload w) {
  for (const auto& [v, n] : kWorkloadNames)
    if (v == w) return n;
  return "?";
}

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<Input> batchInputs(Workload w, std::uint64_t seed) {
  SeedRng rng(seed ^ (static_cast<std::uint64_t>(w) << 56));
  std::vector<Input> inputs;
  switch (w) {
    case Workload::WideIssue:
      inputs = wideIssue(rng);
      break;
    case Workload::RobScale:
      inputs = robScale(rng);
      break;
    case Workload::PeOnly:
      inputs = peOnly();
      break;
    case Workload::ServeMix:
      return {};
  }
  shuffle(inputs, rng);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i].id = i + 1;
  return inputs;
}

VerifyRequest sizeReferenceRequest() {
  VerifyRequest req = cell(kSizeIndependentWidth, kSizeIndependentWidth);
  req.skipSat = true;
  req.inprocess = false;
  return req;
}

// The fresh cells are rw+pe with N 8..64 and k 1..8. A bug-free cell is one
// of these variants; bug-free cells cycle through them. The BDD engine
// ignores the inprocessing knob, but the request, and so the cache key,
// still differs.
struct BugFreeVariant {
  Engine engine;
  bool inprocess;
  bool skipSat;
};
constexpr BugFreeVariant kBugFreeVariants[] = {
    {Engine::Sat, true, false},  {Engine::Sat, false, false},
    {Engine::Bdd, true, false},  {Engine::Bdd, false, false},
    {Engine::Both, true, false}, {Engine::Both, false, false},
    {Engine::Sat, true, true},
};
constexpr unsigned kFreshMinN = 8, kFreshMaxN = 64, kFreshMaxK = 8;

ServeTraffic::ServeTraffic(std::uint64_t seed)
    : pool_(servePool()),
      rng_(seed ^ (static_cast<std::uint64_t>(Workload::ServeMix) << 56)) {
  // A fresh cell must not be a hot one; only the smallest can coincide.
  std::unordered_set<std::string> poolCells;
  unsigned poolMaxN = 0;
  for (const Input& in : pool_) {
    poolCells.insert(in.req.toJson(false));
    poolMaxN = std::max(poolMaxN, in.req.robSize);
  }
  const auto isFresh = [&](const Fresh& f) {
    return f.n > poolMaxN ||
           poolCells.count(freshInput(f).req.toJson(false)) == 0;
  };

  constexpr std::size_t kVariants = std::size(kBugFreeVariants);
  std::vector<std::vector<Fresh>> perVariant(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    for (unsigned n = kFreshMinN; n <= kFreshMaxN; ++n)
      for (unsigned k = 1; k <= kFreshMaxK; ++k)
        perVariant[v].push_back({static_cast<std::uint8_t>(n),
                                 static_cast<std::uint8_t>(k), 0,
                                 static_cast<std::uint8_t>(v)});
    shuffle(perVariant[v], rng_);
  }
  for (std::size_t i = 0; i < perVariant.front().size(); ++i)
    for (const std::vector<Fresh>& cells : perVariant)
      if (isFresh(cells[i])) bugFree_.push_back(cells[i]);
  // Slice 1 has no producer to forward from, so a `fwd` bug there changes
  // nothing: bug slices start at 2.
  for (unsigned n = kFreshMinN; n <= kFreshMaxN; ++n)
    for (unsigned k = 1; k <= kFreshMaxK; ++k)
      for (unsigned s = 2; s <= n; ++s) {
        const Fresh f{static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(k),
                      static_cast<std::uint8_t>(s), 0};
        if (isFresh(f)) bugged_.push_back(f);
      }
  shuffle(bugged_, rng_);
}

Input ServeTraffic::freshInput(const Fresh& f) const {
  if (f.slice != 0)
    return input(withBug(cell(f.n, f.k), BugKind::ForwardingWrongOperand,
                         f.slice),
                 mismatchAt(f.slice));
  const BugFreeVariant& v = kBugFreeVariants[f.variant];
  Input in = input(cell(f.n, f.k, Strategy::RewritingPlusPositiveEquality,
                        v.engine),
                   {v.skipSat ? Verdict::Inconclusive : Verdict::Correct});
  in.req.inprocess = v.inprocess;
  in.req.skipSat = v.skipSat;
  return in;
}

std::size_t ServeTraffic::passesLeft() const {
  constexpr std::size_t kBugFree = kFreshPerPass / kBugFreeEvery;
  constexpr std::size_t kBugged = kFreshPerPass - kBugFree;
  static_assert(kFreshPerPass % kBugFreeEvery == 0);
  return std::min((bugFree_.size() - nextBugFree_) / kBugFree,
                  (bugged_.size() - nextBugged_) / kBugged);
}

std::vector<Input> ServeTraffic::nextPass() {
  std::vector<char> fresh(kRequestsPerPass, 0);
  std::fill(fresh.begin(), fresh.begin() + kFreshPerPass, 1);
  shuffle(fresh, rng_);
  std::vector<Input> pass;
  pass.reserve(kRequestsPerPass);
  unsigned dealt = 0;
  for (unsigned i = 0; i < kRequestsPerPass; ++i) {
    Input in;
    if (fresh[i]) {
      in = freshInput(dealt++ % kBugFreeEvery == 0 ? bugFree_[nextBugFree_++]
                                                   : bugged_[nextBugged_++]);
    } else {
      const double u = rng_.unit();
      in = pool_[std::min(pool_.size() - 1,
                          static_cast<std::size_t>(u * u * pool_.size()))];
    }
    in.id = nextId_++;
    in.req.id = in.id;
    pass.push_back(std::move(in));
  }
  return pass;
}

bool matchesExpect(const Expect& e, Verdict verdict, unsigned failedSlice,
                   std::string* why) {
  if (verdict == e.verdict &&
      (verdict != Verdict::RewriteMismatch || failedSlice == e.failedSlice))
    return true;
  if (why != nullptr) {
    std::ostringstream os;
    os << "expected " << velev::core::verdictName(e.verdict);
    if (e.verdict == Verdict::RewriteMismatch) os << " at slice " << e.failedSlice;
    os << ", got " << velev::core::verdictName(verdict);
    if (verdict == Verdict::RewriteMismatch) os << " at slice " << failedSlice;
    *why = os.str();
  }
  return false;
}

std::string listInputs(const std::vector<Input>& inputs) {
  std::ostringstream os;
  for (const Input& in : inputs) {
    os << in.id << ' ' << in.jobs << ' '
       << velev::core::verdictName(in.expect.verdict);
    if (in.expect.verdict == Verdict::RewriteMismatch)
      os << ':' << in.expect.failedSlice;
    os << ' ' << velev::compactJson(in.req.toJson(false)) << '\n';
  }
  return os.str();
}

}  // namespace perfbench
