#pragma once
// Line-oriented JSON helpers shared by every JSON writer and reader in
// the tree: the resume journal (core/journal.cpp), the trace and metrics
// exporters (obs/trace.cpp, obs/metrics.cpp) and the `obs report`
// parser.  One codec, one escaping convention:
//
//   * writers emit one complete JSON object per line, strings escaped
//     for '"' and '\\' only, doubles at %.17g (round-trips every finite
//     IEEE double);
//   * readers extract fields by key from a single line without a full
//     parser — keys are unique within one line by construction — and
//     treat any malformed/torn line as absent (std::nullopt), never as
//     an error.  That torn-tail tolerance is what makes the journal
//     safe to append to from a process that may die mid-write.
//
// Header-only and dependency-free so every layer (exec is the lowest
// common library) can share it.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace a64fxcc::exec::jsonio {

/// Escape-append `s` into `out` ('"' and '\\' get a backslash; our
/// writers never embed control characters in logged strings).
inline void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// Append one "key":"value" pair (value escaped).
inline void field_str(std::string& out, const char* key,
                      const std::string& v) {
  out += "\"";
  out += key;
  out += "\":\"";
  append_escaped(out, v);
  out += "\"";
}

/// Append one "key":value numeric pair at full precision (%.17g
/// round-trips every finite IEEE double; writers keep infinities out of
/// the file entirely).
inline void field_num(std::string& out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"%s\":%.17g", key, v);
  out += buf;
}

/// Extract the raw string value of "key":"..." (escape-aware); nullopt
/// when the key is absent or the line is torn mid-string.
inline std::optional<std::string> get_str(const std::string& line,
                                          const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) return std::nullopt;  // torn line
      out.push_back(line[++i]);
    } else if (c == '"') {
      return out;
    } else {
      out.push_back(c);
    }
  }
  return std::nullopt;  // unterminated: torn line
}

/// Extract the numeric value of "key":N; nullopt when absent or torn.
inline std::optional<double> get_num(const std::string& line,
                                     const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return v;
}

}  // namespace a64fxcc::exec::jsonio
