#include "runtime/fault.hpp"

#include <cstdio>
#include <cstdlib>

#include "cache/fingerprint.hpp"
#include "runtime/harness.hpp"

namespace a64fxcc::runtime {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::Compile: return "compile";
    case FaultKind::Runtime: return "runtime";
    case FaultKind::Hang: return "hang";
  }
  return "?";
}

double hash_u01(std::uint64_t h) {
  // 53 mantissa bits -> [0, 1).
  return static_cast<double>(cache::mix64(h) >> 11) * 0x1.0p-53;
}

FaultKind FaultPlan::decide(std::uint64_t seed, const std::string& benchmark,
                            const std::string& compiler, int attempt) const {
  if (!enabled()) return FaultKind::None;
  const std::uint64_t stream = cell_stream(benchmark, compiler);
  const double u = hash_u01(cache::mix64(seed ^ salt) ^ stream ^
                            (0xA77E0000ULL + static_cast<std::uint64_t>(attempt)));
  if (u < compile) return FaultKind::Compile;
  if (u < compile + runtime) return FaultKind::Runtime;
  if (u < compile + runtime + hang) return FaultKind::Hang;
  return FaultKind::None;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::string key = item.substr(0, colon);
    const std::string val = item.substr(colon + 1);
    char* end = nullptr;
    const double rate = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || !(rate >= 0.0 && rate <= 1.0))
      return std::nullopt;
    if (key == "compile") plan.compile = rate;
    else if (key == "runtime") plan.runtime = rate;
    else if (key == "hang") plan.hang = rate;
    else return std::nullopt;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (plan.compile + plan.runtime + plan.hang > 1.0)
    return std::nullopt;
  return plan;
}

std::string FaultPlan::spec() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "compile:%g,runtime:%g,hang:%g", compile,
                runtime, hang);
  return buf;
}

void RunContext::checkpoint() const {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    throw CellError(CellStatus::Timeout, "cell cancelled");
  }
  if (deadline_seconds > 0 && elapsed_seconds() > deadline_seconds) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "deadline of %gs exceeded (attempt %d)",
                  deadline_seconds, attempt);
    throw CellError(CellStatus::Timeout, buf);
  }
}

}  // namespace a64fxcc::runtime
