#pragma once
// Per-layer self-time attribution over obs::Tracer records.
//
// A span's self time is its duration minus the part its direct child
// spans cover; nesting is decided per thread from the tracer's sequence
// numbers.  Spans the library opens (cell, compile, analysis:*, plan,
// explore, evaluate:sweep, search:round, measure, evaluate, backoff) map
// to their module; spans this benchmark opens around its own calls are
// named "<layer>/<call>".  On the thread that drives a traced window the
// self times of all layers plus the uncovered remainder add up to the
// window's wall clock.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// The module a span name belongs to ("other" for names this table does
/// not know).
[[nodiscard]] std::string layer_of(std::string_view span);

class LayerProfile {
 public:
  /// Fold one traced window: the tracer's records, the tracer thread id
  /// of the driving thread, and the window's bounds on the tracer clock.
  void add(const std::vector<a64fxcc::obs::Tracer::Record>& records,
           int main_tid, double begin_us, double end_us);

  /// Self time of all spans named `name`, on every thread.
  [[nodiscard]] double self_us(std::string_view name) const;
  /// Summed duration (child spans included) of all spans named `name`.
  [[nodiscard]] double total_us(std::string_view name) const;
  /// Self time of every span of `layer`, on every thread.
  [[nodiscard]] double layer_self_us(std::string_view layer) const;
  /// Durations of the "cell" spans (one per evaluated study cell).
  [[nodiscard]] const std::vector<double>& cell_us() const noexcept {
    return cell_us_;
  }
  /// Summed wall clock of the folded windows.
  [[nodiscard]] double window_us() const noexcept { return window_us_; }
  /// Part of the windows covered by top-level spans of the driving thread.
  [[nodiscard]] double covered_us() const noexcept { return covered_us_; }

  /// The per-layer self-time table (text), with the uncovered share.
  [[nodiscard]] std::string table() const;

 private:
  struct Acc {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_main_us = 0;
    double self_worker_us = 0;
  };
  std::map<std::string, Acc, std::less<>> spans_;
  std::vector<double> cell_us_;
  double window_us_ = 0;
  double covered_us_ = 0;
};

/// Add the layer table over `units` traced units to `res`, and write it
/// and the Chrome trace JSON of `exported` next to the result file.
void add_layer_report(WorkloadResult& res, const RunConfig& cfg,
                      const LayerProfile& prof, std::size_t units,
                      const a64fxcc::obs::Tracer& exported);

}  // namespace perfbench
