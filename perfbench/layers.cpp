#include "layers.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::string layer_of(std::string_view span) {
  if (const auto slash = span.find('/'); slash != std::string_view::npos)
    return std::string(span.substr(0, slash));
  if (span.starts_with("analysis:")) return "analysis";
  static const std::map<std::string_view, const char*> kLibrarySpans = {
      {"cell", "exec"},          {"backoff", "runtime"},
      {"compile", "compilers"},  {"plan", "perf"},
      {"evaluate", "perf"},      {"evaluate:sweep", "perf"},
      {"explore", "runtime"},    {"search:round", "runtime"},
      {"measure", "runtime"}};
  const auto it = kLibrarySpans.find(span);
  return it != kLibrarySpans.end() ? it->second : "other";
}

void LayerProfile::add(
    const std::vector<a64fxcc::obs::Tracer::Record>& records, int main_tid,
    double begin_us, double end_us) {
  window_us_ += end_us - begin_us;
  std::map<int, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < records.size(); ++i)
    by_tid[records[i].tid].push_back(i);

  std::vector<double> child_us(records.size(), 0.0);
  std::vector<bool> top(records.size(), false);
  for (auto& [tid, idx] : by_tid) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return records[a].begin_seq < records[b].begin_seq;
    });
    std::vector<std::size_t> open;  // spans enclosing the current one
    for (const std::size_t i : idx) {
      while (!open.empty() &&
             records[open.back()].end_seq < records[i].begin_seq)
        open.pop_back();
      const auto& r = records[i];
      if (open.empty())
        top[i] = true;
      else
        child_us[open.back()] += r.end_us - r.begin_us;
      open.push_back(i);
    }
  }

  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    const double dur = r.end_us - r.begin_us;
    Acc& a = spans_[r.name];
    a.count += 1;
    a.total_us += dur;
    (r.tid == main_tid ? a.self_main_us : a.self_worker_us) +=
        dur - child_us[i];
    if (top[i] && r.tid == main_tid) covered_us_ += dur;
    if (r.name == "cell") cell_us_.push_back(dur);
  }
}

double LayerProfile::self_us(std::string_view name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0
                            : it->second.self_main_us + it->second.self_worker_us;
}

double LayerProfile::total_us(std::string_view name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second.total_us;
}

double LayerProfile::layer_self_us(std::string_view layer) const {
  double s = 0;
  for (const auto& [name, a] : spans_)
    if (layer_of(name) == layer) s += a.self_main_us + a.self_worker_us;
  return s;
}

std::string LayerProfile::table() const {
  struct Row {
    double main_us = 0;
    double worker_us = 0;
    std::uint64_t spans = 0;
  };
  std::map<std::string, Row> layers;
  for (const auto& [name, a] : spans_) {
    Row& row = layers[layer_of(name)];
    row.main_us += a.self_main_us;
    row.worker_us += a.self_worker_us;
    row.spans += a.count;
  }
  const double wall = window_us_ > 0 ? window_us_ : 1;
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "# self time per layer over %.3f ms of traced wall clock\n"
                "# main = the thread driving the workload (its rows plus "
                "'uncovered' sum to the wall clock);\n"
                "# workers = engine worker threads (parallel, not part of "
                "the sum)\n"
                "%-10s %14s %9s %16s %10s\n",
                window_us_ / 1e3, "layer", "self_ms_main", "share",
                "self_ms_workers", "spans");
  out += buf;
  double main_total = 0;
  for (const auto& [layer, row] : layers) {
    main_total += row.main_us;
    std::snprintf(buf, sizeof buf, "%-10s %14.3f %8.2f%% %16.3f %10llu\n",
                  layer.c_str(), row.main_us / 1e3,
                  100.0 * row.main_us / wall, row.worker_us / 1e3,
                  static_cast<unsigned long long>(row.spans));
    out += buf;
  }
  const double uncovered = window_us_ - covered_us_;
  std::snprintf(buf, sizeof buf, "%-10s %14.3f %8.2f%%\n", "uncovered",
                uncovered / 1e3, 100.0 * uncovered / wall);
  out += buf;
  std::snprintf(buf, sizeof buf, "%-10s %14.3f %8.2f%%\n", "total",
                (main_total + uncovered) / 1e3,
                100.0 * (main_total + uncovered) / wall);
  out += buf;
  out += "\n# self time per span name\n";
  for (const auto& [name, a] : spans_) {
    std::snprintf(buf, sizeof buf, "%-22s %-10s %14.3f %16.3f %10llu\n",
                  name.c_str(), layer_of(name).c_str(), a.self_main_us / 1e3,
                  a.self_worker_us / 1e3,
                  static_cast<unsigned long long>(a.count));
    out += buf;
  }
  return out;
}

void add_layer_report(WorkloadResult& res, const RunConfig& cfg,
                      const LayerProfile& prof, std::size_t units,
                      const a64fxcc::obs::Tracer& exported) {
  const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed);
  const std::string table = prof.table();
  res.notes.push_back("layer self times over " + std::to_string(units) +
                      " traced units:");
  res.notes.push_back(table);
  res.notes.push_back("layer table: " +
                      write_file(cfg.out_dir, tag + ".layers.txt", table));
  res.notes.push_back(
      "Chrome trace of the first traced unit: " +
      write_file(cfg.out_dir, tag + ".trace.json", exported.to_chrome_json()));
}

}  // namespace perfbench
