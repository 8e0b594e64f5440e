// Minimal JSON emitter and reader for the machine-readable reports
// (BENCH_<name>.json, velev_verify --json, and the trace subsystem's
// manifest.json / trace.json). Both directions are deliberately tiny —
// a ~100-line emitter plus a ~150-line recursive-descent reader beat a
// dependency. The reader exists so the *tests* can round-trip what the
// tools emit (trace_test parses manifests back; cli_test validates
// --trace output); production code only writes.
//
// Writer usage:
//   JsonWriter w(os);
//   w.beginObject();
//   w.key("bench"); w.value("table2_pe_only");
//   w.key("cells"); w.beginArray(); ... w.endArray();
//   w.endObject();
//
// The writer inserts commas and newline indentation; keys/values must
// alternate correctly inside objects (checked).
//
// Reader usage:
//   std::string err;
//   std::optional<JsonValue> v = parseJson(text, &err);
//   if (v) { const JsonValue* cells = v->find("cells"); ... }
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace velev {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  void key(std::string_view k) {
    VELEV_CHECK(!stack_.empty() && stack_.back().object);
    VELEV_CHECK(!stack_.back().keyPending);
    separate();
    writeString(k);
    os_ << ": ";
    stack_.back().keyPending = true;
  }

  void value(std::string_view v) {
    preValue();
    writeString(v);
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(bool v) {
    preValue();
    os_ << (v ? "true" : "false");
  }
  void value(double v) {
    preValue();
    // JSON has no NaN/Inf; clamp to null.
    if (v != v || v > 1e308 || v < -1e308) {
      os_ << "null";
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os_ << buf;
  }
  void value(std::int64_t v) {
    preValue();
    os_ << v;
  }
  void value(std::uint64_t v) {
    preValue();
    os_ << v;
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }

  template <class T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

 private:
  struct Frame {
    bool object = false;
    bool keyPending = false;
    bool any = false;
  };

  void open(char c) {
    preValue();
    os_ << c;
    stack_.push_back({c == '{', false, false});
  }

  void close(char c) {
    VELEV_CHECK(!stack_.empty() && !stack_.back().keyPending);
    const bool any = stack_.back().any;
    stack_.pop_back();
    if (any) {
      os_ << '\n';
      indent();
    }
    os_ << c;
    if (stack_.empty()) os_ << '\n';
  }

  // Called before any value (or container opening) is emitted.
  void preValue() {
    if (stack_.empty()) return;  // root value
    if (stack_.back().object) {
      VELEV_CHECK(stack_.back().keyPending);
      stack_.back().keyPending = false;
    } else {
      separate();
    }
  }

  void separate() {
    if (stack_.back().any) os_ << ',';
    stack_.back().any = true;
    os_ << '\n';
    indent();
  }

  void indent() {
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
  }

  void writeString(std::string_view s) {
    os_ << '"';
    for (char c : s) {
      switch (c) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\n': os_ << "\\n"; break;
        case '\t': os_ << "\\t"; break;
        case '\r': os_ << "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os_ << buf;
          } else {
            os_ << c;
          }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  std::vector<Frame> stack_;
};

/// Parsed JSON value. Objects preserve insertion order (handy for
/// comparing against the deterministic writer output); numbers are held
/// as double, which is lossless for every count this repository emits
/// (all well below 2^53).
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool isNull() const { return type == Type::Null; }
  bool isBool() const { return type == Type::Bool; }
  bool isNumber() const { return type == Type::Number; }
  bool isString() const { return type == Type::String; }
  bool isArray() const { return type == Type::Array; }
  bool isObject() const { return type == Type::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (type != Type::Object) return nullptr;
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }

  /// Numeric member as uint64 (0 when absent / non-numeric / negative /
  /// 2^64 or more; a fraction truncates).
  std::uint64_t uintAt(std::string_view key) const {
    const JsonValue* v = find(key);
    if (v == nullptr || !v->isNumber() || !(v->number >= 0) ||
        v->number >= 18446744073709551616.0)
      return 0;
    return static_cast<std::uint64_t>(v->number);
  }
  /// Numeric member as double (0 when absent / non-numeric).
  double numberAt(std::string_view key) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->isNumber() ? v->number : 0;
  }
  /// String member ("" when absent / non-string).
  std::string_view stringAt(std::string_view key) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->isString() ? std::string_view(v->string)
                                         : std::string_view();
  }
};

/// Parse a complete JSON document. Returns nullopt on malformed input and,
/// when `error` is given, a one-line "offset N: what" diagnostic.
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* error = nullptr);

/// Collapse JsonWriter's newline+indent formatting into a single line, for
/// newline-delimited wire protocols (velev_serve). Safe on writer output
/// because the writer escapes every control character inside strings: a
/// raw '\n' can only be formatting, and the only characters it ever emits
/// after one are indent spaces.
inline std::string compactJson(std::string_view pretty) {
  std::string out;
  out.reserve(pretty.size());
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] == '\n') {
      while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
      continue;
    }
    out += pretty[i];
  }
  return out;
}

}  // namespace velev
