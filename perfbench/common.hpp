#pragma once
// Shared definitions of the a64fxcc repository benchmark.  README.md in
// this directory lists the workloads, the metrics, and which end-to-end
// metric each per-layer metric is predicted to move.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One benchmark run, as given on the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir;  ///< result, Chrome trace and layer-table files
  std::string git_sha;
};

/// One reported metric, always with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Correctness bookkeeping: one entry per checked cell (a benchmark x
/// compiler evaluation, a kernel x compiler advisory, or one cell of a
/// replayed table).
class Checks {
 public:
  /// Record one checked cell; an empty `failure` means every check held.
  void cell(const std::string& failure);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// The first few failure messages, for the report.
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Share of the checked cells that passed every check (1 when all did).
[[nodiscard]] double pass_share(const Checks& c);

/// What one workload run hands back to main().
struct WorkloadResult {
  /// End-to-end metrics without tracing, per-layer metrics with it.
  std::vector<Metric> metrics;
  Checks checks;
  /// Human-readable lines printed ahead of the result (the tail
  /// percentile and its sample count, files written, ...).
  std::vector<std::string> notes;
};

/// Seed of the `index`-th derived input (SplitMix64 over base + index):
/// study and kernel seeds are pure functions of the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t index);

[[nodiscard]] double median(std::vector<double> v);

/// The sample at a fixed percentile (nearest rank), with the number of
/// samples beyond it.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v, double percentile);

/// Percentile of a workload's unit_tail_ms.  It is fixed per workload, so
/// two runs always compare the same percentile however many units fit
/// in a run.  For the study workloads it is the highest of {99.9, 99, 95,
/// 90, 75, 50} that keeps at least ten samples beyond it in a 25 s run
/// even when units take twice as long as the slowest host phase measured
/// (README.md, Sizing).  kernel_advisor cycles through a pool of 2048
/// kernels, so its p99.9 would be the time of the pool's two or three
/// largest kernels; p99 spans about twenty.
inline constexpr double kPaperColdTailPct = 90;
inline constexpr double kSeedSweepWarmTailPct = 95;
inline constexpr double kKernelAdvisorTailPct = 99;
/// Percentile of exec.cell_tail_us: a traced study run holds tens of
/// thousands of cells.
inline constexpr double kCellTailPct = 99;

/// "<metric> = pNN of N samples (K beyond it): V <unit>", the value
/// multiplied by `scale`; flagged when fewer than ten samples lie beyond.
[[nodiscard]] std::string tail_note(const char* metric, const Tail& t,
                                    const char* unit, double scale);

/// Fill `res` with the end-to-end metrics of an untraced run from the
/// set-up and unit times (seconds), the cells completed, and the peak
/// RSS read when the last unit ended (so untimed checks after it do not
/// count).  unit_tail_ms is taken at `tail_pct`.  Call after the last
/// correctness check.
void add_end_to_end(WorkloadResult& res, const std::vector<double>& setup_s,
                    const std::vector<double>& unit_s, std::size_t cells,
                    double peak_rss_mb, double tail_pct);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Minimum number of units a run measures, however short --seconds is.
inline constexpr std::size_t kMinUnits = 3;
/// Set-up is repeated and its median reported: at least 5 times, then
/// until 0.3 s of set-up time or 1001 repetitions, whichever comes first.
/// The host's speed wanders within a fraction of a second, so a median
/// over a shorter window follows where the window fell.
[[nodiscard]] inline bool more_setup(const std::vector<double>& setup_s) {
  double spent = 0;
  for (const double s : setup_s) spent += s;
  return setup_s.size() < 5 || (setup_s.size() < 1001 && spent < 0.3);
}

[[nodiscard]] WorkloadResult run_paper_cold(const RunConfig& cfg);
[[nodiscard]] WorkloadResult run_seed_sweep_warm(const RunConfig& cfg);
[[nodiscard]] WorkloadResult run_kernel_advisor(const RunConfig& cfg);

/// Write `text` to `dir/name`; returns the path, or "" on failure.
std::string write_file(const std::string& dir, const std::string& name,
                       const std::string& text);

}  // namespace perfbench
