#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

void Checks::cell(const std::string& failure) {
  attempted_ += 1;
  if (failure.empty()) return;
  failed_ += 1;
  if (failures_.size() < 20) failures_.push_back(failure);
}

double pass_share(const Checks& c) {
  return c.attempted() > 0 ? 1.0 - static_cast<double>(c.failed()) /
                                       static_cast<double>(c.attempted())
                           : 0.0;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, double percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Nearest rank: the ceil(p/100 * n)-th smallest sample.
  const auto rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  t.value = v[idx];
  t.beyond = v.size() - 1 - idx;
  return t;
}

std::string tail_note(const char* metric, const Tail& t, const char* unit,
                      double scale) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s = p%g of %zu samples (%zu beyond it): %.6g %s%s", metric,
                t.percentile, t.samples, t.beyond, t.value * scale, unit,
                t.beyond < 10 ? "; fewer than 10 beyond, so this tail is noisy"
                              : "");
  return buf;
}

void add_end_to_end(WorkloadResult& res, const std::vector<double>& setup_s,
                    const std::vector<double>& unit_s, std::size_t cells,
                    double peak_rss_mb, double tail_pct) {
  double total_s = 0;
  for (const double s : unit_s) total_s += s;
  const Tail t = tail(unit_s, tail_pct);
  res.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"cells_per_s", static_cast<double>(cells) / total_s, "1/s"},
      {"unit_p50_ms", median(unit_s) * 1e3, "ms"},
      {"unit_tail_ms", t.value * 1e3, "ms"},
      {"pass_share", pass_share(res.checks), "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  res.notes.push_back(tail_note("unit_tail_ms", t, "ms", 1e3));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string write_file(const std::string& dir, const std::string& name,
                       const std::string& text) {
  const std::string path = dir + "/" + name;
  std::ofstream f(path, std::ios::binary);
  f << text;
  return f.good() ? path : std::string();
}

}  // namespace perfbench
