#pragma once
// Deterministic fault injection + per-cell execution policies.
//
// FaultPlan is the test rig that proves the fault-tolerance layer works:
// it deterministically injects compile errors, runtime errors and hangs
// per (seed, benchmark, compiler, attempt) by drawing from the cell's
// existing RNG stream (runtime::cell_stream).  Because the draw depends
// only on cell identity — never on worker count, scheduling order or
// wall-clock — an injected study is exactly as reproducible as a clean
// one: byte-identical tables for any --jobs value, and a retry of the
// same attempt index always sees the same fault.
//
// RunContext carries the per-attempt execution policy into the harness:
// which fault (if any) to inject, the cell's wall-clock deadline, and an
// optional external cancellation flag.  The harness calls checkpoint()
// at every placement-exploration and performance-run iteration — the
// cooperative cancellation points that make a hung cell time out instead
// of wedging a worker.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "runtime/outcome.hpp"

namespace a64fxcc::obs {
class Tracer;  // forward: keeps this header dependency-light
}

namespace a64fxcc::runtime {

enum class FaultKind : std::uint8_t { None, Compile, Runtime, Hang };

[[nodiscard]] const char* to_string(FaultKind k);

/// Uniform [0,1) from a 64-bit hash — shared by fault decisions and the
/// retry-backoff jitter so both stay a pure function of cell identity.
[[nodiscard]] double hash_u01(std::uint64_t h);

struct FaultPlan {
  double compile = 0;  ///< probability of an injected compile error
  double runtime = 0;  ///< probability of an injected runtime error
  double hang = 0;     ///< probability of an injected hang
  /// Extra salt so a fault schedule never correlates with measurement
  /// noise drawn from the same cell stream.
  std::uint64_t salt = 0xFA017ULL;

  [[nodiscard]] bool enabled() const noexcept {
    return compile > 0 || runtime > 0 || hang > 0;
  }

  /// The fault (if any) injected into one evaluation attempt of one
  /// cell.  Deterministic: depends only on the arguments, so results
  /// are bit-identical for any worker count, and a cell that fails on
  /// attempt 0 may deterministically succeed on attempt 1.
  [[nodiscard]] FaultKind decide(std::uint64_t seed,
                                 const std::string& benchmark,
                                 const std::string& compiler,
                                 int attempt) const;

  /// Parse "compile:0.05,runtime:0.02,hang:0.01" (any subset,
  /// any order; rates in [0,1]).  Returns nullopt on malformed input.
  [[nodiscard]] static std::optional<FaultPlan> parse(const std::string& text);

  /// Canonical textual form (round-trips through parse).
  [[nodiscard]] std::string spec() const;
};

/// Per-attempt execution context threaded through Harness::run.  The
/// study layer fills policy fields; the harness arms the clock and hits
/// checkpoint() from its evaluation loops.
struct RunContext {
  /// Fault decided for this attempt (FaultPlan::decide), if any.
  FaultKind injected = FaultKind::None;
  /// Wall-clock budget for this cell; 0 = unlimited.
  double deadline_seconds = 0;
  /// Retry attempt index this context evaluates (0 = first try).
  int attempt = 0;
  /// Optional external cancellation (checked at every checkpoint).
  const std::atomic<bool>* cancel = nullptr;
  /// Optional span collector: the harness opens compile/explore/measure
  /// spans on it.  Diagnostics-only — never consulted for results.
  obs::Tracer* tracer = nullptr;

  /// Start the deadline clock (harness calls this on entry).
  void arm() noexcept { start_ = std::chrono::steady_clock::now(); }

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Cooperative cancellation point: throws CellError(Timeout) once the
  /// deadline is exhausted or the external cancel flag is set.  The
  /// message is deterministic (no elapsed time) so timed-out cells stay
  /// byte-identical across worker counts.
  void checkpoint() const;

 private:
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace a64fxcc::runtime
