#pragma once
// Cell-level failure taxonomy.
//
// Failed cells are first-class data in the paper — Figure 2 explicitly
// marks GNU's six micro-kernel runtime errors and Kernel 22's "compiler
// error" — so a failed (benchmark x compiler) cell must never abort the
// study.  Every cell terminates in exactly one CellStatus:
//
//   Ok            valid measurement
//   CompileError  the compiler model rejected the kernel (paper: "CE")
//   RuntimeError  the produced executable fails at run time (paper: "RE")
//   Timeout       the cell exceeded its wall-clock deadline ("TO")
//   Crashed       the evaluation itself threw an unexpected exception
//                 ("XX"; beyond the paper — the study-survives guarantee)
//
// The first three mirror compilers::CompileOutcome::Status (the quirk DB
// maps paper-documented bugs onto them); Timeout and Crashed can only be
// produced by the execution layer.  This header is dependency-free so
// the exec event layer can name statuses without linking runtime.

#include <cstdint>
#include <stdexcept>
#include <string>

namespace a64fxcc::runtime {

enum class CellStatus : std::uint8_t {
  Ok,
  CompileError,
  RuntimeError,
  Timeout,
  Crashed,
};

/// Long-form label (CSV/JSON "status" column; the first three strings
/// predate the taxonomy and must stay byte-stable).
[[nodiscard]] inline const char* to_string(CellStatus st) {
  switch (st) {
    case CellStatus::Ok: return "ok";
    case CellStatus::CompileError: return "compiler error";
    case CellStatus::RuntimeError: return "runtime error";
    case CellStatus::Timeout: return "timeout";
    case CellStatus::Crashed: return "crash";
  }
  return "?";
}

/// Figure-2 cell marker (ANSI table).
[[nodiscard]] inline const char* marker(CellStatus st) {
  switch (st) {
    case CellStatus::Ok: return "ok";
    case CellStatus::CompileError: return "CE";
    case CellStatus::RuntimeError: return "RE";
    case CellStatus::Timeout: return "TO";
    case CellStatus::Crashed: return "XX";
  }
  return "?";
}

/// Every status, in enum order.  Consumers that handle each status
/// (parse_status below) iterate this instead of hand-listing the enum,
/// so a new status cannot be silently dropped.
inline constexpr CellStatus kAllStatuses[] = {
    CellStatus::Ok,   CellStatus::CompileError, CellStatus::RuntimeError,
    CellStatus::Timeout, CellStatus::Crashed,
};

/// Parse a long-form label back into a status (journal decode).
[[nodiscard]] inline bool parse_status(const std::string& label,
                                       CellStatus* out) {
  for (const CellStatus st : kAllStatuses) {
    if (label == to_string(st)) {
      *out = st;
      return true;
    }
  }
  return false;
}

/// Classified cell failure: thrown inside a cell evaluation (injected
/// faults, deadline checkpoints) and caught at the study layer, which
/// records it as the cell's terminal outcome instead of aborting the
/// batch.
class CellError : public std::runtime_error {
 public:
  CellError(CellStatus status, const std::string& msg)
      : std::runtime_error(msg), status_(status) {}
  [[nodiscard]] CellStatus status() const noexcept { return status_; }

 private:
  CellStatus status_;
};

}  // namespace a64fxcc::runtime
