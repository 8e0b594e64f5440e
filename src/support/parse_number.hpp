// Strict number parsing for command-line flags, environment variables and
// DIMACS tokens: the whole string must be one number of type T inside
// [lo, hi]. No sign wrap ("-1" is not 4294967295 unsigned), no trailing
// junk ("4x" is not 4), no leading whitespace or '+', no overflow.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>

namespace velev {

template <class T>
std::optional<T> parseNumber(std::string_view text, T lo, T hi) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (!(lo <= value && value <= hi)) return std::nullopt;  // NaN fails too
  return value;
}

/// parseNumber() for the value of a command-line flag or environment
/// variable `name`: anything else prints an error and exits 2, the
/// usage-error code of every tool and bench.
template <class T>
T parseNumberOrExit(std::string_view name, std::string_view text, T lo, T hi) {
  if (const std::optional<T> value = parseNumber<T>(text, lo, hi))
    return *value;
  std::ostringstream msg;
  msg << "error: " << name << " expects a number in " << lo << ".." << hi
      << ", got '" << text << "'\n";
  std::fputs(msg.str().c_str(), stderr);
  std::exit(2);
}

}  // namespace velev
