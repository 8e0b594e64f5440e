#include "core/result_store.hpp"

#include <filesystem>
#include <sstream>

#include "support/json.hpp"
#include "support/trace.hpp"

namespace velev::core {

namespace fs = std::filesystem;

namespace {

/// The storage policy: no errors, no `timeout`, no `skipped`.
bool storable(const VerifyResponse& resp) {
  return resp.error.empty() && resp.verdict != Verdict::Timeout &&
         resp.verdict != Verdict::Skipped;
}

bool isCacheKey(std::string_view key) {
  return key.size() == 16 &&
         key.find_first_not_of("0123456789abcdef") == std::string_view::npos;
}

/// Line 1 of a store this build writes.
std::string headerLine() {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.kv("version", kResponseSchemaVersion);
  w.kv("git_describe", trace::gitDescribe());
  w.endObject();
  return compactJson(os.str());
}

/// Whether `line` is a header naming this build's schema and build.
bool currentHeader(const std::string& line) {
  const std::optional<JsonValue> v = parseJson(line);
  const JsonValue* version = v.has_value() ? v->find("version") : nullptr;
  return version != nullptr && version->isNumber() &&
         version->number == kResponseSchemaVersion &&
         v->stringAt("git_describe") == trace::gitDescribe();
}

}  // namespace

ResultStore::ResultStore(const std::string& dir) {
  TRACE_SPAN("store.open");
  std::error_code ec;
  fs::create_directories(dir, ec);  // a failed open below degrades to cold
  const fs::path path = fs::path(dir) / "results.jsonl";
  const std::string header = headerLine();

  std::vector<std::string> kept;  // the text of records_, line for line
  std::uint64_t dropped = 0;
  {
    std::ifstream in(path);
    std::string line;
    const bool current = std::getline(in, line) && currentHeader(line);
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::optional<VerifyResponse> resp;
      if (current) resp = VerifyResponse::parse(line);
      if (!resp.has_value() || !isCacheKey(resp->cacheKey) ||
          !storable(*resp)) {
        ++dropped;
        continue;
      }
      const auto [it, fresh] = index_.emplace(resp->cacheKey, records_.size());
      if (fresh) {
        records_.push_back(std::move(*resp));
        kept.push_back(std::move(line));
      } else {
        records_[it->second] = std::move(*resp);
        kept[it->second] = std::move(line);
      }
    }
  }

  // Fold: the file becomes exactly the header plus the kept records. Only a
  // checked, renamed rewrite opens the store for appends.
  const fs::path tmp = path.string() + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << header << '\n';
  for (const std::string& line : kept) out << line << '\n';
  out.close();
  if (!out.fail()) fs::rename(tmp, path, ec);
  if (out.fail() || ec)
    fs::remove(tmp, ec);
  else
    out_.open(path, std::ios::app);

  trace::counterAdd("store.restored", records_.size());
  trace::counterAdd("store.dropped", dropped);
}

const VerifyResponse* ResultStore::find(std::string_view cacheKey) const {
  const auto it = index_.find(std::string(cacheKey));
  return it == index_.end() ? nullptr : &records_[it->second];
}

bool ResultStore::put(const VerifyResponse& resp) {
  if (!storable(resp) || !isCacheKey(resp.cacheKey)) return false;
  // The wire id and the cache flag describe one delivery, not the result.
  VerifyResponse rec = resp;
  rec.id = 0;
  rec.cached = false;
  const std::string line = compactJson(rec.toJson()) + '\n';
  std::lock_guard<std::mutex> lk(mutex_);
  if (!out_.is_open()) return false;
  out_ << line;
  out_.flush();
  // After a failed write the file may end in a torn line; appending more
  // would glue the next record onto it, so the store stops here.
  if (out_.fail()) out_.close();
  return out_.is_open();
}

}  // namespace velev::core
