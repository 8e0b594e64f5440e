#include "sat/memo.hpp"

#include "support/hash.hpp"

namespace velev::sat {

std::uint64_t SolveMemo::key(const prop::Cnf& cnf,
                             const InprocessOptions& iopts,
                             std::int64_t conflictBudget) {
  std::uint64_t h = hashValues(
      {0x536f6c76654d656dULL,  // domain tag: "SolveMem"
       cnf.numVars, cnf.clauses.size(),
       static_cast<std::uint64_t>(conflictBudget),
       static_cast<std::uint64_t>(iopts.enabled),
       static_cast<std::uint64_t>(iopts.substitute),
       static_cast<std::uint64_t>(iopts.subsume),
       static_cast<std::uint64_t>(iopts.vivify),
       static_cast<std::uint64_t>(iopts.probe),
       static_cast<std::uint64_t>(iopts.varElim),
       iopts.vivifyTickLimit, iopts.probeTickLimit});
  for (const prop::Clause& c : cnf.clauses) {
    h = hashCombine(h, c.size());
    for (const prop::CnfLit l : c)
      h = hashCombine(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(l)));
  }
  return h;
}

std::optional<SolveMemo::Entry> SolveMemo::find(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  ++hits_;
  return it->second;
}

void SolveMemo::store(std::uint64_t key, Entry entry) {
  if (entry.result == Result::Unknown) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(key) != 0) return;
  if (entries_.size() >= maxEntries_ && !order_.empty()) {
    entries_.erase(order_.front());
    order_.erase(order_.begin());
  }
  entries_.emplace(key, std::move(entry));
  order_.push_back(key);
}

std::size_t SolveMemo::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t SolveMemo::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

}  // namespace velev::sat
