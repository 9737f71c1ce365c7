// perfbench: the a64fxcc repository benchmark.
//
//   perfbench --workload paper_cold|seed_sweep_warm|kernel_advisor
//             --seed N --seconds S --trace 0|1 [--out-dir D] [--git-sha X]
//
// Runs one workload for S seconds and prints, as the last line of
// stdout, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  The lines before it give the environment block and notes;
// the same data, plus any trace artefacts, go to files under --out-dir.
// Exits 1 when a correctness check fails, 2 on a usage or run error.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Wall seconds for `threads` threads to each finish the same fixed
/// integer workload: with enough CPUs it does not grow with `threads`.
/// Each thread spins for about 0.3 s; much shorter spins under-count the
/// CPUs of a virtual machine whose idle vCPUs are slow to wake.
double spin_seconds(int threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i)
    pool.emplace_back([&sink, i] {
      std::uint64_t x = static_cast<std::uint64_t>(i) + 1;
      for (int k = 0; k < 250'000'000; ++k)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  for (auto& t : pool) t.join();
  return sink.load() == 0 ? 0 : seconds_since(t0);
}

/// The environment block recorded with every result.
std::string environment(const RunConfig& cfg) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const int spins[] = {1, 2, 4};
  double spin_s[3] = {};
  double effective = 0;
  for (int i = 0; i < 3; ++i) {
    spin_s[i] = spin_seconds(spins[i]);
    if (spin_s[i] > 0)
      effective = std::max(effective, spins[i] * spin_s[0] / spin_s[i]);
  }
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\":%u,\"affinity_cpus\":%d,\"effective_cpus\":%.3f,"
      "\"spin_s\":{\"1\":%.4f,\"2\":%.4f,\"4\":%.4f},\"build_type\":%s,"
      "\"compiler\":%s,\"git_sha\":%s}",
      std::thread::hardware_concurrency(), affinity, effective, spin_s[0],
      spin_s[1], spin_s[2], json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(std::string(PERFBENCH_CXX_ID) + " " + PERFBENCH_CXX_VERSION)
          .c_str(),
      json_string(cfg.git_sha).c_str());
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_cold|seed_sweep_warm|kernel_advisor --seed N "
               "--seconds S --trace 0|1 [--out-dir D] [--git-sha X]\n",
               why);
  return 2;
}

template <typename T>
bool parse_number(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && p == end;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.out_dir = ".";
  cfg.git_sha = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    int trace = 0;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, &cfg.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, &cfg.seconds) || cfg.seconds < 1 ||
          cfg.seconds > 3600)
        return usage("bad --seconds (1..3600)");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_number(value, &trace) || (trace != 0 && trace != 1))
        return usage("bad --trace (0 or 1)");
      cfg.trace = trace == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else if (flag == "--git-sha") {
      cfg.git_sha = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");

  WorkloadResult res;
  try {
    if (cfg.workload == "paper_cold")
      res = run_paper_cold(cfg);
    else if (cfg.workload == "seed_sweep_warm")
      res = run_seed_sweep_warm(cfg);
    else if (cfg.workload == "kernel_advisor")
      res = run_kernel_advisor(cfg);
    else
      return usage(("unknown workload '" + cfg.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 2;
  }
  const std::string env = environment(cfg);

  const Checks& checks = res.checks;
  const bool correct = checks.attempted() > 0 && checks.failed() == 0;
  std::string metrics = "{";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    metrics += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
               json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
               "}";
  }
  metrics += "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(checks.attempted()) +
      ", \"failed\": " + std::to_string(checks.failed()) +
      ", \"metrics\": " + metrics + "}";

  std::string notes = "[";
  std::string failures = "[";
  for (std::size_t i = 0; i < res.notes.size(); ++i)
    notes += (i ? "," : "") + json_string(res.notes[i]);
  for (std::size_t i = 0; i < checks.failures().size(); ++i)
    failures += (i ? "," : "") + json_string(checks.failures()[i]);
  const std::string name = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                           "-trace" + (cfg.trace ? "1" : "0") + ".json";
  const std::string path = write_file(
      cfg.out_dir, name,
      "{\"workload\":" + json_string(cfg.workload) +
          ",\"seed\":" + std::to_string(cfg.seed) +
          ",\"seconds\":" + std::to_string(cfg.seconds) +
          ",\"env\":" + env + ",\"notes\":" + notes + "],\"failures\":" +
          failures + "],\"result\":" + result + "}\n");

  for (const auto& n : res.notes) std::printf("%s\n", n.c_str());
  for (const auto& f : checks.failures())
    std::printf("check failed: %s\n", f.c_str());
  std::printf("env %s\n", env.c_str());
  std::printf("result file: %s\n", path.empty() ? "(not written)" : path.c_str());
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
