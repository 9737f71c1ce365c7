// Strict CLI parsing (core/args.hpp): the value helpers behind --jobs,
// --retries, --deadline, --scale, --search-keep and the
// --placement-search mode keyword, and the unknown-flag check of the
// study commands.  The old atoi/atof path turned "--jobs=all" into
// jobs=0 silently; these must parse the whole string or reject it, and
// a flag no command knows must be rejected rather than ignored.

#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/args.hpp"
#include "runtime/search.hpp"

namespace {

using a64fxcc::core::args::parse_double;
using a64fxcc::core::args::parse_int;
using a64fxcc::core::args::unknown_flag;
using a64fxcc::runtime::parse_search_mode;
using a64fxcc::runtime::SearchMode;

TEST(ParseInt, AcceptsWholeBase10Integers) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("+8"), 8);
  EXPECT_EQ(parse_int("  16"), 16);  // strtol skips leading whitespace
  EXPECT_EQ(parse_int(std::to_string(INT_MAX)), INT_MAX);
  EXPECT_EQ(parse_int(std::to_string(INT_MIN)), INT_MIN);
}

TEST(ParseInt, RejectsEmptyGarbageAndOverflow) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("   ").has_value());
  EXPECT_FALSE(parse_int("all").has_value());
  EXPECT_FALSE(parse_int("4x").has_value());      // trailing garbage
  EXPECT_FALSE(parse_int("4 ").has_value());      // trailing space too
  EXPECT_FALSE(parse_int("1.5").has_value());     // not an integer
  EXPECT_FALSE(parse_int("0x10").has_value());    // base 10 only
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());
  EXPECT_FALSE(parse_int("-99999999999999999999").has_value());
}

TEST(ParseDouble, AcceptsWholeFiniteDoubles) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("0.5"), 0.5);
  EXPECT_EQ(parse_double("-2.25"), -2.25);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  EXPECT_EQ(parse_double("  30"), 30.0);
}

TEST(ParseDouble, RejectsEmptyGarbageInfAndNan) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("big").has_value());
  EXPECT_FALSE(parse_double("5s").has_value());   // trailing unit
  EXPECT_FALSE(parse_double("0.5.5").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());  // parses, but not finite
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());  // overflows to inf
}

TEST(ParseSearchMode, AcceptsExactlyTheTwoModes) {
  EXPECT_EQ(parse_search_mode("exhaustive"), SearchMode::Exhaustive);
  EXPECT_EQ(parse_search_mode("halving"), SearchMode::Halving);
}

TEST(ParseSearchMode, RejectsTyposCaseAndDecorations) {
  // Strict contract: a typo must reject (CLI exits 1), never fall back
  // to either mode silently.
  EXPECT_FALSE(parse_search_mode("").has_value());
  EXPECT_FALSE(parse_search_mode("banana").has_value());
  EXPECT_FALSE(parse_search_mode("Halving").has_value());
  EXPECT_FALSE(parse_search_mode("EXHAUSTIVE").has_value());
  EXPECT_FALSE(parse_search_mode("halving ").has_value());
  EXPECT_FALSE(parse_search_mode(" halving").has_value());
  EXPECT_FALSE(parse_search_mode("halv").has_value());
  EXPECT_FALSE(parse_search_mode("exhaustive|halving").has_value());
}

// --search-keep uses parse_int + the CLI's >= 1 guard; the boundary
// values the guard must separate parse unambiguously.
TEST(ParseSearchKeep, BoundaryValuesParseForTheGuard) {
  EXPECT_EQ(parse_int("1"), 1);
  EXPECT_EQ(parse_int("0"), 0);    // parses; CLI rejects with exit 1
  EXPECT_EQ(parse_int("-3"), -3);  // parses; CLI rejects with exit 1
  EXPECT_FALSE(parse_int("two").has_value());
}

constexpr std::string_view kKnown[] = {"--scale=", "--jobs=", "--csv",
                                       "--fail-fast"};

std::optional<std::string> first_unknown(std::vector<const char*> argv) {
  return unknown_flag(static_cast<int>(argv.size()), argv.data(), 2, kKnown);
}

TEST(UnknownFlag, KnownFlagsAndPositionalsPass) {
  EXPECT_FALSE(first_unknown({"a64fxcc", "table"}).has_value());
  EXPECT_FALSE(first_unknown({"a64fxcc", "table", "micro", "--scale=0.5",
                              "--jobs=2", "--csv", "--fail-fast"})
                   .has_value());
  // Only "--" arguments are flags; positionals and single-dash words
  // are left to the command.
  EXPECT_FALSE(first_unknown({"a64fxcc", "table", "micro", "-v"}).has_value());
  // Value checking is the value parsers' job, not this one's.
  EXPECT_FALSE(first_unknown({"a64fxcc", "table", "--jobs=abc"}).has_value());
}

TEST(UnknownFlag, RetiredMultiProcessFlagsAreRejected) {
  EXPECT_EQ(first_unknown({"a64fxcc", "table", "micro", "--procs=2"}),
            "--procs=2");
  EXPECT_EQ(first_unknown({"a64fxcc", "table", "micro", "--shard-dir=x"}),
            "--shard-dir=x");
  EXPECT_EQ(first_unknown({"a64fxcc", "run", "2mm", "--lease-deadline=5"}),
            "--lease-deadline=5");
}

TEST(UnknownFlag, ReportsTheFirstUnknownFlag) {
  EXPECT_EQ(first_unknown({"a64fxcc", "table", "micro", "--csv", "--bogus=3",
                           "--procs=2"}),
            "--bogus=3");
}

TEST(UnknownFlag, SwitchesMatchWholeAndValueFlagsNeedTheirEquals) {
  // A switch takes no value, and a value flag without '=' is not it.
  EXPECT_EQ(first_unknown({"a64fxcc", "table", "--csv=1"}), "--csv=1");
  EXPECT_EQ(first_unknown({"a64fxcc", "table", "--jobs"}), "--jobs");
  EXPECT_EQ(first_unknown({"a64fxcc", "table", "--csvx"}), "--csvx");
  EXPECT_EQ(first_unknown({"a64fxcc", "table", "--"}), "--");
  // argv[0..first) is never inspected.
  EXPECT_FALSE(first_unknown({"--x", "--y"}).has_value());
}

}  // namespace
