#include "core/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace a64fxcc::core::args {

std::optional<int> parse_int(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(v);
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::string> unknown_flag(int argc, const char* const* argv,
                                        int first,
                                        std::span<const std::string_view> known) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    const bool ok = std::any_of(known.begin(), known.end(),
                                [arg](std::string_view k) {
                                  return k.ends_with('=') ? arg.starts_with(k)
                                                          : arg == k;
                                });
    if (!ok) return std::string(arg);
  }
  return std::nullopt;
}

}  // namespace a64fxcc::core::args
