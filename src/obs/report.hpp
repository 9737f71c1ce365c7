#pragma once
// `a64fxcc obs report` — offline summaries and diffs over the JSON
// artifacts this tree writes: a metrics registry (`--metrics=out.json`)
// or a Chrome trace (`--trace=out.json`).
//
//   obs report A.json               summarize one artifact
//   obs report A.json B.json        diff two runs of the same kind:
//                                   counter deltas, phase-time deltas
//   ... --threshold=0.25            additionally gate like
//                                   tools/check_bench_regression.py:
//                                   non-zero exit when any time metric
//                                   of B grew more than 25% over A
//
// The parser reads only our own writers' output (obs::Registry::to_json
// and Tracer::to_chrome_json) — keys are unique per scope by
// construction — and is tolerant in the durable-log tradition: unknown
// fields are skipped, a file that is neither kind is an error, never a
// crash.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace a64fxcc::obs {

/// One phaseSummary entry of a trace document.
struct PhaseTotal {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0;
  double max_seconds = 0;
};

/// The count/sum/min/max header of one histogram (buckets are not
/// needed for summaries or diffs).
struct HistTotal {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

/// A parsed metrics or trace artifact.
struct ReportDoc {
  enum class Kind { Metrics, Trace };
  Kind kind = Kind::Metrics;
  std::string path;
  std::map<std::string, std::uint64_t> counters;   // metrics only
  std::map<std::string, double> gauges;            // metrics only
  std::map<std::string, HistTotal> histograms;     // metrics only
  std::vector<PhaseTotal> phases;                  // trace only
};

/// Load and classify one artifact.  nullopt (with *err set) when the
/// file cannot be read or is neither a metrics nor a trace document.
[[nodiscard]] std::optional<ReportDoc> load_report_doc(
    const std::string& path, std::string* err);

/// Human-readable one-artifact summary.
[[nodiscard]] std::string summarize_report(const ReportDoc& doc);

struct ReportDiff {
  std::string text;      ///< rendered diff
  bool regressed = false;  ///< any gated time metric of `cur` exceeded
                           ///< base * (1 + threshold); only meaningful
                           ///< when a threshold was applied
};

/// Diff two artifacts of the same kind (base -> cur).  `threshold < 0`
/// disables gating (regressed stays false).  Time metrics gate like
/// the bench-regression script, inverted for "lower is better": a
/// phase's total seconds (trace) or a histogram's sum (metrics) fails
/// when cur > base * (1 + threshold).
[[nodiscard]] ReportDiff diff_reports(const ReportDoc& base,
                                      const ReportDoc& cur,
                                      double threshold);

}  // namespace a64fxcc::obs
