#include "sat/simplify.hpp"

#include <algorithm>

#include "support/budget.hpp"
#include "support/check.hpp"
#include "support/trace.hpp"

namespace velev::sat {

namespace {

using prop::Clause;
using prop::CnfLit;

/// Pipeline rounds (the pipeline stops early at a fixpoint).
constexpr unsigned kMaxRounds = 3;
/// Variable elimination is skipped when either polarity of the variable
/// occurs in more than this many clauses (keeps the pass near-linear).
constexpr unsigned kElimOccLimit = 24;
/// Elimination is performed only if it does not add more than this many
/// clauses net (0 = NiVER: never grow the database).
constexpr unsigned kElimGrowth = 0;

/// The in-flight clause database. Clauses are immutable once added: every
/// strengthening/substitution kills the old index and appends a new one, so
/// occurrence lists are exact up to a liveness check and the passes never
/// chase stale pointers.
class Simplifier {
 public:
  Simplifier(const prop::Cnf& in, const InprocessOptions& opts, Proof* proof,
             BudgetGovernor* budget, std::span<const std::uint32_t> frozen)
      : opts_(opts),
        proof_(proof),
        budget_(budget),
        n_(in.numVars),
        val_(in.numVars + 1, 0),
        frozen_(in.numVars + 1, 0),
        eliminated_(in.numVars + 1, 0),
        occ_(2 * static_cast<std::size_t>(in.numVars) + 2),
        attached_(occ_.size(), 0),
        litPos_(occ_.size(), 0) {
    if (budget_ != nullptr) budgetSource_ = budget_->registerSource();
    for (std::uint32_t v : frozen) {
      VELEV_CHECK(v >= 1 && v <= n_);
      frozen_[v] = 1;
    }
    stats_.clausesBefore = in.clauses.size();
    load(in);
  }

  SimplifyResult run() {
    TRACE_SPAN("sat.inprocess");
    propagateUnits();
    for (unsigned round = 0; round < kMaxRounds && !done(); ++round) {
      ++stats_.rounds;
      const std::uint64_t before = mutations_;
      if (opts_.substitute) runPass(kSubstitute, &Simplifier::substitutePass);
      if (opts_.subsume) runPass(kSubsume, &Simplifier::subsumePass);
      if (opts_.vivify) runPass(kVivify, &Simplifier::vivifyPass);
      if (opts_.probe) runPass(kProbe, &Simplifier::probePass);
      if (opts_.varElim) runPass(kElim, &Simplifier::elimPass);
      if (mutations_ == before) break;  // fixpoint
    }
    return finish();
  }

 private:
  enum Pass { kSubstitute, kSubsume, kVivify, kProbe, kElim, kNumPasses };
  static constexpr const char* kTickCounters[kNumPasses] = {
      "sat.inprocess.substitute.ticks", "sat.inprocess.subsume.ticks",
      "sat.inprocess.vivify.ticks", "sat.inprocess.probe.ticks",
      "sat.inprocess.elim.ticks"};

  /// Run one pass on occurrence lists cleared of killed clause ids (order
  /// kept), charging its ticks.
  void runPass(Pass p, void (Simplifier::*body)()) {
    if (done()) return;
    for (std::vector<std::uint32_t>& list : occ_)
      std::erase_if(list, [this](std::uint32_t ci) { return live_[ci] == 0; });
    const std::uint64_t before = ticks_;
    (this->*body)();
    passTicks_[p] += ticks_ - before;
  }

  // ---- database primitives -------------------------------------------------

  static std::size_t litIdx(CnfLit l) {
    return 2 * (static_cast<std::size_t>(std::abs(l)) - 1) + (l < 0 ? 1 : 0);
  }

  /// Logical bytes of a clause of `size` literals, as the governor sees it.
  static std::size_t clauseBytes(std::size_t size) {
    return (size * 2 + 4) * sizeof(CnfLit);
  }

  /// 64-bit variable signature: a superset of c, or of c with one literal
  /// flipped, has every bit of c's signature.
  static std::uint64_t signature(const Clause& c) {
    std::uint64_t sig = 0;
    for (const CnfLit l : c) sig |= 1ull << (std::abs(l) & 63);
    return sig;
  }

  std::int8_t valueOf(CnfLit l) const {
    const std::int8_t v = val_[static_cast<std::size_t>(std::abs(l))];
    return l > 0 ? v : static_cast<std::int8_t>(-v);
  }

  /// Append a normalized (sorted, unique, tautology-free, assignment-free)
  /// clause; queues units. Does NOT emit proof steps — callers do, because
  /// whether the addition needs one depends on where the clause came from.
  std::uint32_t pushClause(Clause c) {
    const auto ci = static_cast<std::uint32_t>(db_.size());
    bytes_ += clauseBytes(c.size());
    if (c.size() == 1) pendingUnits_.push_back(c[0]);
    if (c.empty()) provedUnsat_ = true;
    for (CnfLit l : c) {
      occ_[litIdx(l)].push_back(ci);
      ++attached_[litIdx(l)];
    }
    sig_.push_back(signature(c));
    db_.push_back(std::move(c));
    live_.push_back(1);
    ++mutations_;
    return ci;
  }

  /// Kill a clause and release its literals: nothing reads a dead clause.
  void killClause(std::uint32_t ci, bool emitDelete) {
    if (live_[ci] == 0) return;
    live_[ci] = 0;
    ++mutations_;
    bytes_ -= clauseBytes(db_[ci].size());
    // Unit clauses are never deleted from the proof: the simplified CNF
    // re-emits every level-0 unit, so the checker database must keep them.
    if (emitDelete && proof_ != nullptr && db_[ci].size() > 1)
      proof_->del(std::move(db_[ci]));
    db_[ci] = Clause();
  }

  /// Sort + dedupe + drop assigned-false lits. Returns false for clauses
  /// that are tautologous or satisfied at level 0 (caller skips them). The
  /// signed sort fixes the literal order of every clause in the database;
  /// it places x and ¬x apart, so complements are found by binary search.
  bool normalize(Clause& c) const {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    Clause out;
    out.reserve(c.size());
    for (const CnfLit l : c) {
      if (l < 0 && std::binary_search(c.begin(), c.end(), -l))
        return false;  // tautology
      const std::int8_t v = valueOf(l);
      if (v > 0) return false;  // satisfied
      if (v < 0) continue;      // falsified literal: drop
      out.push_back(l);
    }
    c = std::move(out);
    return true;
  }

  void load(const prop::Cnf& in) {
    for (const Clause& orig : in.clauses) {
      if (provedUnsat_) return;
      Clause c = orig;
      if (!normalize(c)) continue;  // tautology (no proof step needed)
      if (c.size() != orig.size()) {
        // Strengthened against the level-0 units (or deduped): RUP.
        if (proof_ != nullptr) proof_->add(c);
        if (c.empty() && proof_ == nullptr) {
          // pushClause flags provedUnsat; proof already has the {} above.
        }
      }
      pushClause(std::move(c));
      if (!pendingUnits_.empty()) propagateUnits();
    }
  }

  // ---- level-0 unit propagation --------------------------------------------

  void assign(CnfLit u) {
    const auto v = static_cast<std::size_t>(std::abs(u));
    const std::int8_t want = u > 0 ? 1 : -1;
    if (val_[v] == -want) {
      if (proof_ != nullptr) proof_->add({});
      provedUnsat_ = true;
      return;
    }
    if (val_[v] == want) return;
    val_[v] = want;
    ++stats_.unitsDerived;
    unitQueue_.push_back(u);
  }

  /// Saturate the level-0 assignment: kill satisfied clauses, strengthen
  /// clauses with falsified literals. Restores the invariant that every
  /// live clause has size >= 2 and mentions no assigned variable.
  void propagateUnits() {
    for (CnfLit u : pendingUnits_) assign(u);
    pendingUnits_.clear();
    while (!unitQueue_.empty() && !provedUnsat_) {
      const CnfLit u = unitQueue_.front();
      unitQueue_.erase(unitQueue_.begin());
      for (const std::uint32_t ci : occ_[litIdx(u)]) {
        if (live_[ci] == 0) continue;
        killClause(ci, /*emitDelete=*/true);
        ++stats_.clausesRemoved;
      }
      // Snapshot: strengthening appends to db_ and occurrence lists.
      const std::vector<std::uint32_t> negOcc = occ_[litIdx(-u)];
      for (const std::uint32_t ci : negOcc) {
        if (live_[ci] == 0) continue;
        Clause c = db_[ci];
        if (!normalize(c)) {  // satisfied by another level-0 unit
          killClause(ci, /*emitDelete=*/true);
          ++stats_.clausesRemoved;
          continue;
        }
        stats_.litsRemoved += db_[ci].size() - c.size();
        ++stats_.clausesStrengthened;
        if (proof_ != nullptr) proof_->add(c);
        if (c.empty()) provedUnsat_ = true;
        killClause(ci, /*emitDelete=*/true);
        pushClause(std::move(c));
        if (provedUnsat_) return;
        if (!pendingUnits_.empty()) {
          for (CnfLit l : pendingUnits_) assign(l);
          pendingUnits_.clear();
        }
      }
    }
    unitQueue_.clear();
  }

  // ---- budget / work accounting --------------------------------------------

  bool done() const { return provedUnsat_ || stopped_; }

  /// Count `w` units of logical work; poll the governor periodically. On a
  /// trip the pipeline stops at the next safe point, leaving a consistent
  /// partially simplified database (inprocessing is best-effort).
  bool tick(std::uint64_t w = 1) {
    ticks_ += w;
    if (budget_ != nullptr && ticks_ >= nextPoll_) {
      nextPoll_ = ticks_ + 0x8000;
      if (budget_->poll(budgetSource_, bytes_)) stopped_ = true;
    }
    return stopped_;
  }

  // ---- pass 2: SCC equivalent-literal substitution -------------------------

  void substitutePass() {
    TRACE_SPAN("sat.inprocess.substitute");
    // Implication graph over literal nodes: binary clause (a b) gives
    // ¬a → b and ¬b → a.
    const std::size_t nodes = 2 * static_cast<std::size_t>(n_);
    std::vector<std::vector<std::uint32_t>> adj(nodes);
    for (std::size_t ci = 0; ci < db_.size(); ++ci) {
      if (live_[ci] == 0 || db_[ci].size() != 2) continue;
      const CnfLit a = db_[ci][0], b = db_[ci][1];
      adj[litIdx(-a)].push_back(static_cast<std::uint32_t>(litIdx(b)));
      adj[litIdx(-b)].push_back(static_cast<std::uint32_t>(litIdx(a)));
      if (tick(2)) return;
    }

    // Iterative Tarjan SCC.
    std::vector<std::uint32_t> comp(nodes, 0xffffffffu), low(nodes, 0),
        num(nodes, 0xffffffffu);
    std::vector<std::uint32_t> sccStack;
    std::vector<char> onStack(nodes, 0);
    std::uint32_t counter = 0, compCount = 0;
    struct Frame {
      std::uint32_t node;
      std::size_t edge;
    };
    std::vector<Frame> dfs;
    for (std::uint32_t root = 0; root < nodes; ++root) {
      if (num[root] != 0xffffffffu) continue;
      dfs.push_back({root, 0});
      num[root] = low[root] = counter++;
      sccStack.push_back(root);
      onStack[root] = 1;
      while (!dfs.empty()) {
        Frame& f = dfs.back();
        if (f.edge < adj[f.node].size()) {
          const std::uint32_t next = adj[f.node][f.edge++];
          if (num[next] == 0xffffffffu) {
            num[next] = low[next] = counter++;
            sccStack.push_back(next);
            onStack[next] = 1;
            dfs.push_back({next, 0});
          } else if (onStack[next] != 0) {
            low[f.node] = std::min(low[f.node], num[next]);
          }
          if (tick()) return;
          continue;
        }
        if (low[f.node] == num[f.node]) {
          for (;;) {
            const std::uint32_t w = sccStack.back();
            sccStack.pop_back();
            onStack[w] = 0;
            comp[w] = compCount;
            if (w == f.node) break;
          }
          ++compCount;
        }
        const std::uint32_t child = f.node;
        dfs.pop_back();
        if (!dfs.empty())
          low[dfs.back().node] = std::min(low[dfs.back().node], low[child]);
      }
    }

    // Representative literal per SCC: frozen variables win (they must not
    // be substituted away), then lowest variable, positive before negative.
    const auto idxLit = [](std::uint32_t i) -> CnfLit {
      const auto v = static_cast<CnfLit>(i / 2 + 1);
      return (i & 1) != 0 ? -v : v;
    };
    std::vector<CnfLit> rep(compCount, 0);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      const CnfLit l = idxLit(i);
      const auto v = static_cast<std::size_t>(std::abs(l));
      if (eliminated_[v] != 0 || val_[v] != 0) continue;
      CnfLit& r = rep[comp[i]];
      if (r == 0) {
        r = l;
        continue;
      }
      const bool lFrozen = frozen_[v] != 0;
      const bool rFrozen = frozen_[static_cast<std::size_t>(std::abs(r))] != 0;
      if (lFrozen != rFrozen) {
        if (lFrozen) r = l;
      } else if (std::abs(l) < std::abs(r)) {
        r = l;
      }
    }

    // x ≡ ¬x: the binary chains refute both polarities — UNSAT.
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (comp[litIdx(static_cast<CnfLit>(v))] ==
              comp[litIdx(-static_cast<CnfLit>(v))] &&
          val_[v] == 0 && eliminated_[v] == 0) {
        if (proof_ != nullptr) {
          proof_->add({-static_cast<CnfLit>(v)});
          proof_->add({static_cast<CnfLit>(v)});
          proof_->add({});
        }
        provedUnsat_ = true;
        return;
      }
    }

    // Substitution map per variable: v -> rep of the SCC of literal +v.
    std::vector<CnfLit> subst(n_ + 1, 0);
    bool any = false;
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (frozen_[v] != 0 || eliminated_[v] != 0 || val_[v] != 0) continue;
      const CnfLit r = rep[comp[litIdx(static_cast<CnfLit>(v))]];
      if (r == 0 || std::abs(r) == static_cast<CnfLit>(v)) continue;
      subst[v] = r;
      any = true;
    }
    if (!any) return;

    // Before any rewriting, materialize the DIRECT defining binaries
    // (¬v ∨ r) and (v ∨ ¬r) for every substituted pair. Each is RUP via
    // the (still fully intact) binary implication chains of the SCC. The
    // rewrites below are then RUP through these direct binaries no matter
    // in which order chain clauses get rewritten or killed — rewriting an
    // intra-SCC chain clause maps BOTH of its variables to the rep, which
    // yields a tautology and kills the clause, so a later variable's
    // chain support can otherwise disappear mid-pass. The sweep skips the
    // defining binaries (they would tautologize mid-sweep and take the
    // RUP support with them); they are deleted after all rewrites, so the
    // output CNF never contains them.
    const auto defLo = static_cast<std::uint32_t>(db_.size());
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (subst[v] == 0) continue;
      const CnfLit pv = static_cast<CnfLit>(v);
      const CnfLit r = subst[v];
      for (Clause c : {Clause{-pv, r}, Clause{pv, -r}}) {
        std::sort(c.begin(), c.end());
        if (proof_ != nullptr) proof_->add(c);
        pushClause(std::move(c));
      }
      if (tick(4)) return;
    }
    const auto defHi = static_cast<std::uint32_t>(db_.size());

    // Rewrite every clause that mentions a substituted variable.
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (subst[v] == 0) continue;
      for (const CnfLit l :
           {static_cast<CnfLit>(v), -static_cast<CnfLit>(v)}) {
        const std::vector<std::uint32_t> occs = occ_[litIdx(l)];
        for (const std::uint32_t ci : occs) {
          if (live_[ci] == 0 || (ci >= defLo && ci < defHi)) continue;
          Clause c;
          c.reserve(db_[ci].size());
          for (const CnfLit x : db_[ci]) {
            const auto xv = static_cast<std::size_t>(std::abs(x));
            const CnfLit r = subst[xv];
            c.push_back(r == 0 ? x : (x > 0 ? r : -r));
          }
          if (tick(c.size())) return;
          if (!normalize(c)) {
            // Substituted form is a tautology (e.g. the defining binary
            // clauses themselves): the original is redundant.
            killClause(ci, /*emitDelete=*/true);
            ++stats_.clausesRemoved;
            continue;
          }
          if (proof_ != nullptr) proof_->add(c);
          killClause(ci, /*emitDelete=*/true);
          pushClause(std::move(c));
        }
      }
      recon_.pushEquivalence(v, subst[v]);
      ++stats_.varsSubstituted;
      // The variable no longer occurs anywhere: exempt it from later
      // passes exactly like an eliminated one (reconstruction defines it).
      eliminated_[v] = 1;
    }
    // Retire the defining binaries now that no rewrite needs them.
    for (std::uint32_t ci = defLo; ci < defHi; ++ci)
      killClause(ci, /*emitDelete=*/true);
    propagateUnits();
  }

  // ---- pass 3: subsumption + self-subsumption ------------------------------

  void subsumePass() {
    TRACE_SPAN("sat.inprocess.subsume");
    std::vector<std::uint32_t> order;
    order.reserve(db_.size());
    for (std::uint32_t ci = 0; ci < db_.size(); ++ci)
      if (live_[ci] != 0) order.push_back(ci);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return db_[a].size() < db_[b].size();
                     });

    for (const std::uint32_t ci : order) {
      if (live_[ci] == 0) continue;  // subsumed by an earlier clause
      if (done()) return;
      // A copy: strengthening appends to db_.
      subC_ = db_[ci];
      const Clause& c = subC_;
      // Every clause that c subsumes or strengthens contains the variable
      // of some literal of c, in one polarity or the other: scan the two
      // occurrence lists of the least-occurring one.
      std::size_t p = 0, best = SIZE_MAX;
      for (std::size_t k = 0; k < c.size(); ++k) {
        const std::size_t n =
            occ_[litIdx(c[k])].size() + occ_[litIdx(-c[k])].size();
        if (n < best) {
          best = n;
          p = k;
        }
      }
      for (std::size_t k = 0; k < c.size(); ++k)
        litPos_[litIdx(c[k])] = static_cast<std::uint32_t>(k + 1);
      flips_.clear();
      subsumeScan(ci, occ_[litIdx(c[p])]);
      subsumeScan(ci, occ_[litIdx(-c[p])]);
      for (const CnfLit l : c) litPos_[litIdx(l)] = 0;
      // Self-subsumption: c with c[k] flipped subsumes d => ¬c[k] can be
      // resolved out of d (the resolvent c⊗d ⊆ d is RUP from c and d).
      // Applied in (k, id) order: that order fixes the ids of the new
      // clauses, and so the output order the InprocessPin tests pin.
      std::sort(flips_.begin(), flips_.end());
      for (const auto& [k, di] : flips_) {
        Clause d = db_[di];
        d.erase(std::find(d.begin(), d.end(), -c[k]));
        ++stats_.clausesStrengthened;
        ++stats_.litsRemoved;
        if (proof_ != nullptr) proof_->add(d);
        killClause(di, /*emitDelete=*/true);
        pushClause(std::move(d));
      }
    }
    propagateUnits();
  }

  /// One occurrence list of the pivot variable of subC_ (clause `ci`, its
  /// literals marked in litPos_): kill the clauses c subsumes, in list
  /// (= ascending id) order, and collect into flips_ the ones it
  /// strengthens. Drops dead ids from the list on the way. Without
  /// tautologies, a candidate contains each variable of c at most once, so
  /// it is a superset of c, of c with exactly one literal flipped, or
  /// neither.
  void subsumeScan(std::uint32_t ci, std::vector<std::uint32_t>& list) {
    const Clause& c = subC_;
    const std::uint64_t sig = sig_[ci];
    std::size_t kept = 0;
    for (const std::uint32_t di : list) {
      if (live_[di] == 0) continue;
      list[kept++] = di;
      if (di == ci || stopped_ || (sig & ~sig_[di]) != 0 ||
          db_[di].size() < c.size())
        continue;
      if (tick(db_[di].size())) continue;
      std::size_t hits = 0;
      std::uint32_t flipped = 0;  // 1 + position in c of the flipped literal
      for (const CnfLit x : db_[di]) {
        if (litPos_[litIdx(x)] != 0) {
          ++hits;
        } else if (const std::uint32_t k = litPos_[litIdx(-x)]; k != 0) {
          if (flipped != 0) break;  // two flips: both literals of c missing
          flipped = k;
        }
      }
      if (flipped == 0 && hits == c.size()) {
        killClause(di, /*emitDelete=*/true);
        ++stats_.clausesRemoved;
        --kept;
      } else if (flipped != 0 && hits + 1 == c.size()) {
        flips_.emplace_back(flipped - 1, di);
      }
    }
    tick(list.size());
    list.resize(kept);
  }

  // ---- counter-based propagation engine (vivification, probing) ------------
  //
  // Works on the live database under the invariant that no live clause
  // mentions an assigned variable. Database mutations are DEFERRED while
  // the engine is in use (plans are applied after the pass), so the
  // per-clause counters stay exact.

  struct Engine {
    Simplifier& s;
    std::vector<std::int8_t> tval;        // temporary assignment
    std::vector<CnfLit> trail;
    std::vector<std::uint32_t> nFalse, nTrue;
    std::size_t qhead = 0;
    bool conflict = false;

    explicit Engine(Simplifier& owner)
        : s(owner),
          tval(owner.n_ + 1, 0),
          nFalse(owner.db_.size(), 0),
          nTrue(owner.db_.size(), 0) {}

    std::int8_t value(CnfLit l) const {
      const std::int8_t v = tval[static_cast<std::size_t>(std::abs(l))];
      return l > 0 ? v : static_cast<std::int8_t>(-v);
    }

    void enqueue(CnfLit l) {
      if (value(l) != 0) {
        if (value(l) < 0) conflict = true;
        return;
      }
      tval[static_cast<std::size_t>(std::abs(l))] =
          static_cast<std::int8_t>(l > 0 ? 1 : -1);
      trail.push_back(l);
    }

    /// Propagate to fixpoint, ignoring clause `ignore` (the clause being
    /// vivified must not shorten itself). Returns true on conflict.
    bool propagate(std::uint32_t ignore) {
      while (qhead < trail.size() && !conflict) {
        const CnfLit p = trail[qhead++];
        for (const std::uint32_t ci : s.occ_[litIdx(p)]) {
          if (s.live_[ci] == 0) continue;
          ++nTrue[ci];
        }
        for (const std::uint32_t ci : s.occ_[litIdx(-p)]) {
          if (s.live_[ci] == 0 || ci == ignore) continue;
          ++nFalse[ci];
          if (nTrue[ci] != 0) continue;
          const std::size_t size = s.db_[ci].size();
          if (nFalse[ci] == size) {
            conflict = true;
            break;
          }
          if (nFalse[ci] == size - 1) {
            for (const CnfLit l : s.db_[ci]) {
              if (value(l) == 0) {
                enqueue(l);
                break;
              }
            }
          }
        }
        s.ticks_ += s.attached_[litIdx(p)] + s.attached_[litIdx(-p)];
      }
      return conflict;
    }

    /// Undo everything past `mark` trail entries.
    void backtrack(std::size_t mark) {
      while (trail.size() > mark) {
        const CnfLit p = trail.back();
        trail.pop_back();
        tval[static_cast<std::size_t>(std::abs(p))] = 0;
        for (const std::uint32_t ci : s.occ_[litIdx(p)])
          if (s.live_[ci] != 0) --nTrue[ci];
        for (const std::uint32_t ci : s.occ_[litIdx(-p)])
          if (s.live_[ci] != 0 && nFalse[ci] > 0) --nFalse[ci];
        s.ticks_ += s.attached_[litIdx(p)] + s.attached_[litIdx(-p)];
      }
      qhead = trail.size();
      conflict = false;
    }
  };

  // ---- pass 4: vivification ------------------------------------------------

  void vivifyPass() {
    TRACE_SPAN("sat.inprocess.vivify");
    Engine eng(*this);
    struct Plan {
      std::uint32_t ci;
      Clause shortened;
    };
    std::vector<Plan> plans;
    const std::uint64_t limit = ticks_ + opts_.vivifyTickLimit;
    for (std::uint32_t ci = 0; ci < eng.nFalse.size(); ++ci) {
      if (live_[ci] == 0 || db_[ci].size() < 2) continue;
      if (ticks_ >= limit) {
        ++vivifyCapped_;
        break;
      }
      if (tick()) break;
      const Clause& c = db_[ci];
      Clause kept;
      bool shortened = false;
      for (const CnfLit l : c) {
        const std::int8_t v = eng.value(l);
        if (v > 0) {
          // ¬(kept) propagated l: the clause kept ∪ {l} is RUP and the
          // remaining literals are redundant.
          kept.push_back(l);
          shortened = kept.size() < c.size();
          break;
        }
        if (v < 0) {
          shortened = true;  // ¬(kept) propagated ¬l: drop l
          continue;
        }
        eng.enqueue(-l);
        if (eng.propagate(ci)) {
          // Conflict: ¬(kept ∪ {l}) refutes by unit propagation.
          kept.push_back(l);
          shortened = kept.size() < c.size();
          break;
        }
        kept.push_back(l);
      }
      eng.backtrack(0);
      if (shortened && kept.size() < c.size())
        plans.push_back({ci, std::move(kept)});
    }
    for (Plan& p : plans) {
      if (done()) return;
      if (live_[p.ci] == 0) continue;
      stats_.litsRemoved += db_[p.ci].size() - p.shortened.size();
      ++stats_.clausesStrengthened;
      if (proof_ != nullptr) proof_->add(p.shortened);
      killClause(p.ci, /*emitDelete=*/true);
      pushClause(std::move(p.shortened));
    }
    propagateUnits();
  }

  // ---- pass 5: failed-literal probing --------------------------------------

  void probePass() {
    TRACE_SPAN("sat.inprocess.probe");
    // Probe only literals whose assertion propagates through some binary
    // clause — the others cannot fail by unit propagation.
    std::vector<char> isCand(2 * static_cast<std::size_t>(n_) + 2, 0);
    for (std::size_t ci = 0; ci < db_.size(); ++ci) {
      if (live_[ci] == 0 || db_[ci].size() != 2) continue;
      isCand[litIdx(-db_[ci][0])] = 1;
      isCand[litIdx(-db_[ci][1])] = 1;
    }
    Engine eng(*this);
    std::vector<CnfLit> failed;
    const std::uint64_t limit = ticks_ + opts_.probeTickLimit;
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (ticks_ >= limit) {
        ++probeCapped_;
        break;
      }
      if (val_[v] != 0 || eliminated_[v] != 0) continue;
      for (const CnfLit l :
           {static_cast<CnfLit>(v), -static_cast<CnfLit>(v)}) {
        if (isCand[litIdx(l)] == 0) continue;
        if (tick()) break;
        eng.enqueue(l);
        if (eng.propagate(0xffffffffu)) failed.push_back(-l);
        eng.backtrack(0);
      }
      if (done()) break;
    }
    for (const CnfLit u : failed) {
      if (provedUnsat_) return;
      if (valueOf(u) > 0) continue;  // already derived transitively
      ++stats_.failedLiterals;
      if (proof_ != nullptr) proof_->add({u});
      assign(u);
      propagateUnits();
    }
  }

  // ---- pass 6: bounded variable elimination --------------------------------

  /// Gate detection for elimination-by-substitution. Shape (for l = +v or
  /// -v): one definition clause D = (l ∨ m1 ∨ ... ∨ mk) plus the binaries
  /// (¬l ∨ ¬mi) for every i — the Tseitin encoding of l ↔ ¬m1∧...∧¬mk,
  /// which the AIG translation mass-produces. When such a gate exists,
  /// resolving on v only needs gate-side × non-gate-side cross products:
  /// every omitted resolvent (non-gate × non-gate) is implied by the kept
  /// ones (Eén–Biere, SatELite), so equisatisfiability, the reconstruction
  /// witness (still ALL clauses of v), and the proof protocol (kept
  /// resolvents are ordinary RUP resolvents) are unchanged. Full NiVER
  /// counting would refuse most of these variables.
  struct Gate {
    std::uint32_t def = 0;            // the long definition clause
    std::vector<std::uint32_t> bins;  // the (¬l ∨ ¬mi) binaries
    bool defOnPos = false;            // l == +v (def sits in the pos list)
  };

  bool findGate(std::uint32_t v, const std::vector<std::uint32_t>& pos,
                const std::vector<std::uint32_t>& neg, Gate& out) {
    for (const bool onPos : {true, false}) {
      const CnfLit l = onPos ? static_cast<CnfLit>(v) : -static_cast<CnfLit>(v);
      const auto& defs = onPos ? pos : neg;
      const auto& binSide = onPos ? neg : pos;
      // Map "other literal" of every live binary (¬l ∨ o) to its clause.
      binByOther_.clear();
      for (const std::uint32_t ci : binSide) {
        if (db_[ci].size() != 2) continue;
        const CnfLit o = db_[ci][0] == -l ? db_[ci][1] : db_[ci][0];
        binByOther_.emplace_back(o, ci);
      }
      if (binByOther_.empty()) continue;
      for (const std::uint32_t ci : defs) {
        if (db_[ci].size() < 3) continue;  // binaries are SCC territory
        out.bins.clear();
        bool ok = true;
        for (const CnfLit m : db_[ci]) {
          if (m == l) continue;
          const auto it = std::find_if(
              binByOther_.begin(), binByOther_.end(),
              [m](const auto& e) { return e.first == -m; });
          if (it == binByOther_.end()) {
            ok = false;
            break;
          }
          out.bins.push_back(it->second);
        }
        if (ok) {
          out.def = ci;
          out.defOnPos = onPos;
          return true;
        }
      }
    }
    return false;
  }

  void elimPass() {
    TRACE_SPAN("sat.inprocess.elim");
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (done()) return;
      if (frozen_[v] != 0 || eliminated_[v] != 0 || val_[v] != 0) continue;
      std::vector<std::uint32_t> pos, neg;
      for (const std::uint32_t ci : occ_[litIdx(static_cast<CnfLit>(v))])
        if (live_[ci] != 0) pos.push_back(ci);
      for (const std::uint32_t ci : occ_[litIdx(-static_cast<CnfLit>(v))])
        if (live_[ci] != 0) neg.push_back(ci);
      if (pos.empty() && neg.empty()) continue;  // unconstrained already
      if (pos.size() > kElimOccLimit || neg.size() > kElimOccLimit) continue;

      // The (pos, neg) clause pairs to resolve: the full cross product, or
      // only the gate-side × non-gate-side pairs when v is gate-defined.
      // That is elimination by substitution (SatELite): when v is defined by
      // an AND-style Tseitin gate, the other resolvents are implied, so the
      // growth bound passes on the definitional variables the AIG
      // translation mass-produces.
      Gate gate;
      pairs_.clear();
      if (findGate(v, pos, neg, gate)) {
        const auto isGateClause = [&](std::uint32_t ci) {
          return ci == gate.def ||
                 std::find(gate.bins.begin(), gate.bins.end(), ci) !=
                     gate.bins.end();
        };
        for (const std::uint32_t pi : pos)
          for (const std::uint32_t ni : neg) {
            const bool pg = gate.defOnPos ? pi == gate.def : isGateClause(pi);
            const bool ng = gate.defOnPos ? isGateClause(ni) : ni == gate.def;
            if (pg != ng)  // exactly one side from the gate
              pairs_.emplace_back(pi, ni);
          }
      } else {
        for (const std::uint32_t pi : pos)
          for (const std::uint32_t ni : neg) pairs_.emplace_back(pi, ni);
      }

      // All non-tautological resolvents on v over the selected pairs.
      std::vector<Clause> resolvents;
      bool tooMany = false;
      for (const auto& [pi, ni] : pairs_) {
        if (tick(db_[pi].size() + db_[ni].size())) return;
        Clause r;
        r.reserve(db_[pi].size() + db_[ni].size());
        for (const CnfLit l : db_[pi])
          if (l != static_cast<CnfLit>(v)) r.push_back(l);
        for (const CnfLit l : db_[ni])
          if (l != -static_cast<CnfLit>(v)) r.push_back(l);
        if (!normalize(r)) continue;  // tautological resolvent
        resolvents.push_back(std::move(r));
        if (resolvents.size() > pos.size() + neg.size() + kElimGrowth) {
          tooMany = true;
          break;
        }
      }
      if (tooMany) continue;

      // Commit: resolvents first (each RUP against the still-present
      // parents), then remove every clause of v; the removed clauses are
      // the reconstruction witness.
      if (proof_ != nullptr)
        for (const Clause& r : resolvents) proof_->add(r);
      std::vector<Clause> witness;
      witness.reserve(pos.size() + neg.size());
      for (const std::uint32_t ci : pos) witness.push_back(db_[ci]);
      for (const std::uint32_t ci : neg) witness.push_back(db_[ci]);
      recon_.pushElimination(v, std::move(witness));
      for (const std::uint32_t ci : pos) killClause(ci, /*emitDelete=*/true);
      for (const std::uint32_t ci : neg) killClause(ci, /*emitDelete=*/true);
      stats_.clausesRemoved += pos.size() + neg.size();
      for (Clause& r : resolvents) pushClause(std::move(r));
      eliminated_[v] = 1;
      ++stats_.varsEliminated;
      if (!pendingUnits_.empty()) propagateUnits();
    }
  }

  // ---- output --------------------------------------------------------------

  SimplifyResult finish() {
    SimplifyResult out;
    out.cnf.numVars = n_;
    if (provedUnsat_) {
      out.cnf.addClause({});
      out.provedUnsat = true;
    } else {
      for (std::uint32_t v = 1; v <= n_; ++v)
        if (val_[v] != 0)
          out.cnf.addClause({val_[v] > 0 ? static_cast<CnfLit>(v)
                                         : -static_cast<CnfLit>(v)});
      for (std::size_t ci = 0; ci < db_.size(); ++ci)
        if (live_[ci] != 0) out.cnf.clauses.push_back(db_[ci]);
    }
    stats_.clausesAfter = out.cnf.clauses.size();
    stats_.reconstructionDepth = recon_.depth();
    out.stats = stats_;
    out.recon = std::move(recon_);
    if (trace::Collector* c = trace::active()) {
      c->addCounter("sat.inprocess.rounds", stats_.rounds);
      c->addCounter("sat.inprocess.clauses_before", stats_.clausesBefore);
      c->addCounter("sat.inprocess.clauses_after", stats_.clausesAfter);
      c->addCounter("sat.inprocess.clauses_removed", stats_.clausesRemoved);
      c->addCounter("sat.inprocess.clauses_strengthened",
                    stats_.clausesStrengthened);
      c->addCounter("sat.inprocess.lits_removed", stats_.litsRemoved);
      c->addCounter("sat.inprocess.vars_eliminated", stats_.varsEliminated);
      c->addCounter("sat.inprocess.vars_substituted",
                    stats_.varsSubstituted);
      c->addCounter("sat.inprocess.failed_literals", stats_.failedLiterals);
      c->maxCounter("sat.inprocess.reconstruction_depth",
                    stats_.reconstructionDepth);
      // Work, not output: collector-only, outside core::reportCounters.
      for (int p = 0; p < kNumPasses; ++p)
        c->addCounter(kTickCounters[p], passTicks_[p]);
      c->addCounter("sat.inprocess.vivify.capped", vivifyCapped_);
      c->addCounter("sat.inprocess.probe.capped", probeCapped_);
    }
    return out;
  }

  const InprocessOptions opts_;
  Proof* proof_;
  BudgetGovernor* budget_;
  int budgetSource_ = -1;

  std::uint32_t n_;
  std::vector<Clause> db_;
  std::vector<std::uint64_t> sig_;  // signature() per clause
  std::vector<char> live_;
  std::vector<std::int8_t> val_;
  std::vector<char> frozen_;
  std::vector<char> eliminated_;
  std::vector<std::vector<std::uint32_t>> occ_;  // compacted by runPass
  // Per literal: clauses ever attached, i.e. the length of its occurrence
  // list had dead ids never been dropped. The engine charges its ticks in
  // this unit, so the vivify/probe caps do not move with compaction.
  std::vector<std::uint64_t> attached_;

  std::vector<CnfLit> pendingUnits_;
  std::vector<CnfLit> unitQueue_;

  // Scratch for elimPass/findGate (cleared per use; members to keep the
  // allocations).
  std::vector<std::pair<CnfLit, std::uint32_t>> binByOther_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  // Scratch for subsumePass: the clause being applied, 1 + the position of
  // each of its literals (by litIdx), and the (position, id) pairs it
  // strengthens.
  Clause subC_;
  std::vector<std::uint32_t> litPos_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> flips_;

  Reconstructor recon_;
  InprocessStats stats_;
  std::uint64_t mutations_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t passTicks_[kNumPasses] = {};
  std::uint64_t vivifyCapped_ = 0;  // rounds stopped at vivifyTickLimit
  std::uint64_t probeCapped_ = 0;   // rounds stopped at probeTickLimit
  std::uint64_t nextPoll_ = 0x8000;
  std::size_t bytes_ = 0;
  bool provedUnsat_ = false;
  bool stopped_ = false;
};

}  // namespace

void Reconstructor::pushEquivalence(std::uint32_t var, CnfLit rep) {
  VELEV_CHECK(rep != 0 &&
              static_cast<std::uint32_t>(std::abs(rep)) != var);
  steps_.push_back({var, rep, {}});
}

void Reconstructor::pushElimination(std::uint32_t var,
                                    std::vector<Clause> clauses) {
  steps_.push_back({var, 0, std::move(clauses)});
}

void Reconstructor::extend(std::vector<bool>& model) const {
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    if (it->rep != 0) {
      const auto rv = static_cast<std::size_t>(std::abs(it->rep));
      VELEV_CHECK(rv < model.size() && it->var < model.size());
      model[it->var] = it->rep > 0 ? model[rv] : !model[rv];
      continue;
    }
    // Elimination witness: false satisfies every clause unless some clause
    // is left unsatisfied, in which case true does (all resolvents hold
    // under the model, so the polarity flip fixes every positive clause
    // without breaking a negative one).
    model[it->var] = false;
    for (const Clause& c : it->clauses) {
      bool sat = false;
      for (const CnfLit l : c) {
        const auto v = static_cast<std::size_t>(std::abs(l));
        VELEV_CHECK(v < model.size());
        if ((l > 0) == model[v]) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        model[it->var] = true;
        break;
      }
    }
  }
}

SimplifyResult inprocess(const prop::Cnf& in, const InprocessOptions& opts,
                         Proof* proof, BudgetGovernor* budget,
                         std::span<const std::uint32_t> frozen) {
  if (!opts.enabled) {
    // Exact pass-through (not even clause normalization), so --no-inprocess
    // reproduces the historical pipeline bit for bit.
    SimplifyResult out;
    out.cnf = in;
    out.stats.clausesBefore = out.stats.clausesAfter = in.clauses.size();
    return out;
  }
  Simplifier s(in, opts, proof, budget, frozen);
  return s.run();
}

Result solveCnfInprocessed(const prop::Cnf& cnf, const InprocessOptions& iopts,
                           std::vector<bool>* model, Stats* stats,
                           std::int64_t conflictBudget, Proof* proof,
                           BudgetGovernor* budget, InprocessStats* istats) {
  if (!iopts.enabled)
    return solveCnf(cnf, model, stats, conflictBudget, proof, budget);
  SimplifyResult sr = inprocess(cnf, iopts, proof, budget);
  if (istats != nullptr) *istats = sr.stats;
  // Even a provedUnsat simplification goes through solveCnf (the simplified
  // CNF contains the empty clause, so the call returns immediately): the
  // sat.solve span and the Stats are filled on every path.
  const Result r =
      solveCnf(sr.cnf, model, stats, conflictBudget, proof, budget);
  if (sr.provedUnsat) return Result::Unsat;
  if (r == Result::Sat && model != nullptr) sr.recon.extend(*model);
  return r;
}

}  // namespace velev::sat
