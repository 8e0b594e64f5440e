#include "core/request.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "support/hash.hpp"
#include "support/trace.hpp"

namespace velev::core {

VerifyOptions VerifyRequest::options() const {
  VerifyOptions opts;
  opts.strategy = strategy;
  opts.engine = engine;
  opts.sim.coneOfInfluence = coneOfInfluence;
  opts.budget = budget();
  opts.skipSat = skipSat;
  opts.ufScheme = ufScheme;
  opts.inprocess.enabled = inprocess;
  return opts;
}

std::optional<std::string> VerifyRequest::validate() const {
  if (robSize < 1 || robSize > kMaxRobSize)
    return "need 1 <= rob_size <= " + std::to_string(kMaxRobSize);
  if (issueWidth < 1 || issueWidth > robSize)
    return "need 1 <= issue_width <= rob_size";
  if (bug.kind != models::BugKind::None) {
    const unsigned limit = models::bugIndexLimit(bug.kind, config());
    if (bug.index < 1 || bug.index > limit)
      return "bug_index out of range for " +
             std::string(models::bugKindName(bug.kind)) + " (1.." +
             std::to_string(limit) + ")";
  }
  return std::nullopt;
}

void VerifyRequest::writeJson(JsonWriter& w, bool includeId) const {
  w.beginObject();
  w.kv("version", kRequestSchemaVersion);
  if (includeId) w.kv("id", id);
  w.kv("rob_size", robSize);
  w.kv("issue_width", issueWidth);
  w.kv("bug_kind", models::bugKindName(bug.kind));
  w.kv("bug_index", bug.index);
  w.kv("strategy", strategyName(strategy));
  w.kv("engine", engineName(engine));
  w.kv("uf_scheme", evc::ufSchemeName(ufScheme));
  w.kv("skip_sat", skipSat);
  w.kv("cone_of_influence", coneOfInfluence);
  w.kv("inprocess", inprocess);
  w.kv("timeout_seconds", timeoutSeconds);
  w.kv("memory_budget_bytes", memoryBudgetBytes);
  w.kv("sat_conflict_budget", satConflictBudget);
  w.endObject();
}

std::string VerifyRequest::toJson(bool includeId) const {
  std::ostringstream os;
  JsonWriter w(os);
  writeJson(w, includeId);
  return os.str();
}

namespace {

/// Whether `v` is a number with an exact value of type T. The bounds are
/// powers of two, so they are exact as doubles.
template <class T>
bool isIntegerOf(const JsonValue& v) {
  constexpr int bits = std::numeric_limits<T>::digits;
  const double hi = std::ldexp(1.0, bits);
  const double lo = std::numeric_limits<T>::is_signed ? -hi : 0.0;
  return v.isNumber() && std::trunc(v.number) == v.number &&
         v.number >= lo && v.number < hi;
}

/// Strict field cursor over one JSON object: every member must be consumed
/// by exactly one `take` call, or finish() reports it as unknown.
class FieldReader {
 public:
  explicit FieldReader(const JsonValue& v) : v_(v) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  void fail(std::string msg) {
    if (error_.empty()) error_ = std::move(msg);
  }

  const JsonValue* take(std::string_view key) {
    consumed_.emplace_back(key);
    return v_.find(key);
  }

  /// Integer field of type T. A fraction, or a value outside T's range, is
  /// refused before any cast (a double-to-integer cast out of range is
  /// undefined behaviour, and a truncated one would alias another value).
  template <class T>
  void takeInt(std::string_view key, T* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!isIntegerOf<T>(*f))
      return fail("field '" + std::string(key) + "' must be an integer in " +
                  std::to_string(std::numeric_limits<T>::min()) + ".." +
                  std::to_string(std::numeric_limits<T>::max()));
    *out = static_cast<T>(f->number);
  }

  void takeDouble(std::string_view key, double* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isNumber())
      return fail("field '" + std::string(key) + "' must be a number");
    *out = f->number;
  }

  void takeBool(std::string_view key, bool* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isBool())
      return fail("field '" + std::string(key) + "' must be a boolean");
    *out = f->boolean;
  }

  void takeString(std::string_view key, std::string* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isString())
      return fail("field '" + std::string(key) + "' must be a string");
    *out = f->string;
  }

  /// Enum field through a *FromName() inverse.
  template <class E, class FromName>
  void takeEnum(std::string_view key, E* out, FromName fromName) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isString())
      return fail("field '" + std::string(key) + "' must be a string");
    const auto parsed = fromName(f->string);
    if (!parsed.has_value())
      return fail("unknown " + std::string(key) + ": '" + f->string + "'");
    *out = *parsed;
  }

  /// After all takes: any member not consumed is an unknown field.
  void finish() {
    if (!error_.empty()) return;
    for (const auto& [key, value] : v_.object) {
      (void)value;
      bool known = false;
      for (const std::string& c : consumed_)
        if (c == key) { known = true; break; }
      if (!known) return fail("unknown field '" + key + "'");
    }
  }

 private:
  const JsonValue& v_;
  std::vector<std::string> consumed_;
  std::string error_;
};

bool checkVersion(FieldReader& r, int expected, const char* what) {
  const JsonValue* f = r.take("version");
  if (f == nullptr || !f->isNumber()) {
    r.fail(std::string(what) + " is missing the 'version' field");
    return false;
  }
  if (f->number != expected) {
    char version[32];
    std::snprintf(version, sizeof version, "%g", f->number);
    r.fail("unsupported " + std::string(what) + " version " + version +
           " (this build speaks version " + std::to_string(expected) + ")");
    return false;
  }
  return true;
}

std::optional<JsonValue> parseObject(std::string_view text,
                                     std::string* error) {
  std::string parseError;
  std::optional<JsonValue> v = parseJson(text, &parseError);
  if (!v.has_value()) {
    if (error != nullptr) *error = "malformed JSON: " + parseError;
    return std::nullopt;
  }
  if (!v->isObject()) {
    if (error != nullptr) *error = "expected a JSON object";
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::optional<VerifyRequest> VerifyRequest::fromJson(const JsonValue& v,
                                                     std::string* error) {
  if (!v.isObject()) {
    if (error != nullptr) *error = "expected a JSON object";
    return std::nullopt;
  }
  FieldReader r(v);
  VerifyRequest req;
  if (checkVersion(r, kRequestSchemaVersion, "request")) {
    r.takeInt("id", &req.id);
    r.takeInt("rob_size", &req.robSize);
    r.takeInt("issue_width", &req.issueWidth);
    r.takeEnum("bug_kind", &req.bug.kind, models::bugKindFromName);
    r.takeInt("bug_index", &req.bug.index);
    r.takeEnum("strategy", &req.strategy, strategyFromName);
    r.takeEnum("engine", &req.engine, engineFromName);
    r.takeEnum("uf_scheme", &req.ufScheme, evc::ufSchemeFromName);
    r.takeBool("skip_sat", &req.skipSat);
    r.takeBool("cone_of_influence", &req.coneOfInfluence);
    r.takeBool("inprocess", &req.inprocess);
    r.takeDouble("timeout_seconds", &req.timeoutSeconds);
    r.takeInt("memory_budget_bytes", &req.memoryBudgetBytes);
    r.takeInt("sat_conflict_budget", &req.satConflictBudget);
    r.finish();
  }
  if (r.ok()) {
    if (std::optional<std::string> invalid = req.validate();
        invalid.has_value()) {
      if (error != nullptr) *error = *invalid;
      return std::nullopt;
    }
    return req;
  }
  if (error != nullptr) *error = r.error();
  return std::nullopt;
}

std::optional<VerifyRequest> VerifyRequest::parse(std::string_view text,
                                                  std::string* error) {
  const std::optional<JsonValue> v = parseObject(text, error);
  if (!v.has_value()) return std::nullopt;
  return fromJson(*v, error);
}

std::uint64_t VerifyRequest::cacheKey() const {
  // Hash the canonical (id-free) JSON together with the code version: a
  // rebuilt binary must never serve a stale cached verdict.
  std::uint64_t h = 0x76656c65765f7221ULL;  // "velev_r!"
  for (const char c : toJson(/*includeId=*/false))
    h = hashCombine(h, static_cast<unsigned char>(c));
  for (const char* p = trace::gitDescribe(); *p != '\0'; ++p)
    h = hashCombine(h, static_cast<unsigned char>(*p));
  return h;
}

std::string VerifyRequest::cacheKeyHex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, cacheKey());
  return buf;
}

VerifyResponse VerifyResponse::fromReport(const VerifyRequest& req,
                                          const VerifyReport& rep,
                                          double wallSeconds) {
  VerifyResponse resp;
  resp.id = req.id;
  resp.cacheKey = req.cacheKeyHex();
  resp.verdict = rep.outcome.verdict;
  resp.reason = rep.outcome.reason;
  resp.failedSlice = rep.outcome.failedSlice;
  resp.exitCode = verdictExitCode(rep.outcome.verdict);
  resp.wallSeconds = wallSeconds;
  resp.seconds = rep.outcome.seconds;
  resp.peakArenaBytes = rep.outcome.peakArenaBytes;
  resp.rssHighWaterKb = rep.outcome.rssHighWaterKb;
  resp.counters = reportCounters(rep);
  return resp;
}

VerifyResponse VerifyResponse::makeError(std::uint64_t id,
                                         std::string message) {
  VerifyResponse resp;
  resp.id = id;
  resp.error = std::move(message);
  resp.exitCode = 2;
  return resp;
}

void VerifyResponse::writeJson(JsonWriter& w) const {
  w.beginObject();
  w.kv("version", kResponseSchemaVersion);
  w.kv("id", id);
  if (!error.empty()) {
    w.kv("error", error);
    w.kv("exit_code", exitCode);
    w.endObject();
    return;
  }
  w.kv("cached", cached);
  w.kv("cache_key", cacheKey);
  w.kv("verdict", verdictName(verdict));
  if (!reason.empty()) w.kv("reason", reason);
  if (failedSlice != 0) w.kv("failed_slice", failedSlice);
  w.kv("exit_code", exitCode);
  w.kv("wall_seconds", wallSeconds);
  w.key("stage_seconds");
  w.beginObject();
  w.kv("sim", seconds.sim);
  w.kv("rewrite", seconds.rewrite);
  w.kv("translate", seconds.translate);
  w.kv("sat", seconds.sat);
  w.kv("bdd", seconds.bdd);
  w.endObject();
  w.kv("peak_arena_bytes", peakArenaBytes);
  w.kv("rss_high_water_kb", rssHighWaterKb);
  w.key("counters");
  w.beginObject();
  for (const auto& [name, value] : counters) w.kv(name, value);
  w.endObject();
  w.endObject();
}

std::string VerifyResponse::toJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  writeJson(w);
  return os.str();
}

std::optional<VerifyResponse> VerifyResponse::fromJson(const JsonValue& v,
                                                       std::string* error) {
  if (!v.isObject()) {
    if (error != nullptr) *error = "expected a JSON object";
    return std::nullopt;
  }
  FieldReader r(v);
  VerifyResponse resp;
  if (checkVersion(r, kResponseSchemaVersion, "response")) {
    r.takeInt("id", &resp.id);
    r.takeString("error", &resp.error);
    r.takeBool("cached", &resp.cached);
    r.takeString("cache_key", &resp.cacheKey);
    r.takeEnum("verdict", &resp.verdict, verdictFromName);
    r.takeString("reason", &resp.reason);
    r.takeInt("failed_slice", &resp.failedSlice);
    r.takeInt("exit_code", &resp.exitCode);
    r.takeDouble("wall_seconds", &resp.wallSeconds);
    if (const JsonValue* stages = r.take("stage_seconds");
        stages != nullptr) {
      if (!stages->isObject())
        r.fail("field 'stage_seconds' must be an object");
      else
        for (const auto& [name, value] : stages->object) {
          double* stage = name == "sim"         ? &resp.seconds.sim
                          : name == "rewrite"   ? &resp.seconds.rewrite
                          : name == "translate" ? &resp.seconds.translate
                          : name == "sat"       ? &resp.seconds.sat
                          : name == "bdd"       ? &resp.seconds.bdd
                                                : nullptr;
          if (stage == nullptr || !value.isNumber()) {
            r.fail("stage_seconds member '" + name +
                   "' must be a number named sim/rewrite/translate/sat/bdd");
            break;
          }
          *stage = value.number;
        }
    }
    r.takeInt("peak_arena_bytes", &resp.peakArenaBytes);
    r.takeInt("rss_high_water_kb", &resp.rssHighWaterKb);
    if (const JsonValue* counters = r.take("counters"); counters != nullptr) {
      if (!counters->isObject())
        r.fail("field 'counters' must be an object");
      else
        for (const auto& [name, value] : counters->object) {
          if (!isIntegerOf<std::uint64_t>(value)) {
            r.fail("counter '" + name + "' must be a non-negative integer");
            break;
          }
          resp.counters.emplace_back(name,
                                     static_cast<std::uint64_t>(value.number));
        }
    }
    r.finish();
  }
  if (r.ok()) return resp;
  if (error != nullptr) *error = r.error();
  return std::nullopt;
}

std::optional<VerifyResponse> VerifyResponse::parse(std::string_view text,
                                                    std::string* error) {
  const std::optional<JsonValue> v = parseObject(text, error);
  if (!v.has_value()) return std::nullopt;
  return fromJson(*v, error);
}

VerifyReport verify(const VerifyRequest& req, const VerifyOptions& opts) {
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, req.config(), req.bug);
  auto spec = models::buildSpec(cx, isa);
  return verifyWith(cx, isa, *impl, *spec, opts);
}

VerifyReport verify(const VerifyRequest& req, sat::SolveMemo* memo) {
  VerifyOptions opts = req.options();
  opts.satMemo = memo;
  return verify(req, opts);
}

}  // namespace velev::core
