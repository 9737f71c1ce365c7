#pragma once
// Strict command-line value parsing for the CLI front end.
//
// The historical std::atoi/std::atof flag parsing silently turned any
// non-numeric value into 0 — `--jobs=all` became --jobs=0, `--retries=x`
// became no retries, `--deadline=5s` became no deadline — which is the
// worst possible failure mode for an hours-long study: the run proceeds
// with a policy the user did not ask for.  These helpers parse the
// whole string or reject it, so the CLI can refuse malformed flags with
// a diagnostic and a consistent non-zero exit code instead.  For the
// same reason a flag the command does not know is an error, not a no-op:
// a misspelt or retired flag must not run a study with defaults.

#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace a64fxcc::core::args {

/// Parse a whole string as a base-10 integer.  Rejects empty strings,
/// trailing garbage ("4x"), and out-of-int-range values.  Leading
/// whitespace and a sign are accepted (strtol rules).
[[nodiscard]] std::optional<int> parse_int(const std::string& s);

/// Parse a whole string as a finite double.  Rejects empty strings,
/// trailing garbage ("0.5s"), inf/nan, and out-of-range values.
[[nodiscard]] std::optional<double> parse_double(const std::string& s);

/// The first argument of argv[first, argc) that starts with "--" but
/// names no flag in `known`, or nullopt when every such argument is
/// known.  A `known` entry ending in '=' is a value flag and matches
/// any argument with that prefix ("--scale=" matches "--scale=0.5");
/// any other entry is a switch and matches only itself ("--csv").
/// Arguments not starting with "--" (positionals) are not checked.
[[nodiscard]] std::optional<std::string> unknown_flag(
    int argc, const char* const* argv, int first,
    std::span<const std::string_view> known);

}  // namespace a64fxcc::core::args
