// The two study workloads: paper_cold (one fresh 108 x 5 study per unit,
// cold cache tier) and seed_sweep_warm (successive studies with distinct
// seeds on one shared, pre-warmed cache tier).  Both measure studies at
// jobs=1.  On a host whose usable CPU count drifts, the unit time of a
// parallel study follows the host rather than the program: measured on a
// 4-vCPU virtual machine at 4 workers, the 10-seed quartile spread of
// seed_sweep_warm's tail was 0.27, against 0.10 for a serial study.  Parallel execution is still
// checked, by the replay below.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/study.hpp"
#include "ir/node.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "report/figure2.hpp"

namespace perfbench {
namespace {

using namespace a64fxcc;
using runtime::CellStatus;

/// Figure 2's documented failures, written out from the paper rather
/// than read from the quirk database under test: GNU fails six RIKEN
/// micro kernels at run time (Sec. 3.1) and Kernel 22 does not compile
/// with the clang-based compilers (Fig. 2 note).  Every other cell of
/// the 108 x 5 study is expected to be Ok.
struct PaperFailure {
  const char* benchmark;
  const char* compiler;
  CellStatus status;
};
constexpr PaperFailure kPaperFailures[] = {
    {"k02", "GNU", CellStatus::RuntimeError},
    {"k05", "GNU", CellStatus::RuntimeError},
    {"k09", "GNU", CellStatus::RuntimeError},
    {"k13", "GNU", CellStatus::RuntimeError},
    {"k17", "GNU", CellStatus::RuntimeError},
    {"k21", "GNU", CellStatus::RuntimeError},
    {"k22", "FJclang", CellStatus::CompileError},
    {"k22", "LLVM", CellStatus::CompileError},
    {"k22", "LLVM+Polly", CellStatus::CompileError},
};
constexpr std::size_t kPaperBenchmarks = 108;
constexpr std::size_t kPaperCompilers = 5;

CellStatus expected_status(const std::string& bench, const std::string& comp) {
  for (const auto& f : kPaperFailures)
    if (bench == f.benchmark && comp == f.compiler) return f.status;
  return CellStatus::Ok;
}

/// Placement candidates per suite row, from a standalone harness on the
/// study's machine model.
std::vector<std::vector<runtime::Placement>> candidates_of(
    const std::vector<kernels::Benchmark>& suite) {
  const runtime::Harness h(machine::a64fx());
  std::vector<std::vector<runtime::Placement>> out;
  out.reserve(suite.size());
  for (const auto& b : suite)
    out.push_back(h.candidate_placements(b.traits, b.kernel.meta().parallel));
  return out;
}

void check_table(const report::Table& t,
                 const std::vector<std::vector<runtime::Placement>>& cands,
                 Checks& checks) {
  if (t.rows.size() != kPaperBenchmarks ||
      t.compilers.size() != kPaperCompilers || cands.size() != t.rows.size()) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "table is %zu x %zu, expected %zu x %zu",
                  t.rows.size(), t.compilers.size(), kPaperBenchmarks,
                  kPaperCompilers);
    checks.cell(buf);
    return;
  }
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    const auto& row = t.rows[r];
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const auto& m = row.cells[c];
      const CellStatus want = expected_status(row.benchmark, t.compilers[c]);
      std::string why;
      if (m.status != want) {
        why = std::string("status ") + runtime::to_string(m.status) +
              ", paper says " + runtime::to_string(want);
      } else if (m.valid()) {
        if (!(std::isfinite(m.best_seconds) && m.best_seconds > 0 &&
              std::isfinite(m.median_seconds) &&
              m.best_seconds <= m.median_seconds)) {
          why = "best/median seconds not finite, positive and ordered";
        } else if (std::find(cands[r].begin(), cands[r].end(), m.placement) ==
                   cands[r].end()) {
          why = "chosen placement is not a candidate placement";
        }
      }
      checks.cell(why.empty() ? why
                              : row.benchmark + " x " + t.compilers[c] +
                                    ": " + why);
    }
  }
}

/// Every field of a cell, floats in hex: equal text means bit-equal cells.
std::string cell_text(const runtime::MeasuredRun& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%d %a %a %a %d %d %a %a ",
                static_cast<int>(m.status), m.best_seconds, m.median_seconds,
                m.cv, m.placement.ranks, m.placement.threads, m.gflops,
                m.mem_gbs);
  return buf + m.bottleneck + "|" + m.decisions + "|" + m.diagnostic;
}

/// The replayed table must be byte-identical to the measured one.
void check_replay(const report::Table& measured, const report::Table& replay,
                  Checks& checks) {
  if (measured.rows.size() != replay.rows.size() ||
      measured.compilers != replay.compilers) {
    checks.cell("replay table shape differs");
    return;
  }
  for (std::size_t r = 0; r < measured.rows.size(); ++r)
    for (std::size_t c = 0; c < measured.rows[r].cells.size(); ++c) {
      const bool same = cell_text(measured.rows[r].cells[c]) ==
                        cell_text(replay.rows[r].cells[c]);
      checks.cell(same ? std::string()
                       : measured.rows[r].benchmark + " x " +
                             measured.compilers[c] +
                             ": jobs=1 replay differs from the measured table");
    }
}

core::StudyOptions study_options(std::uint64_t seed, int jobs,
                                 cache::Service* svc,
                                 obs::Tracer* tracer = nullptr,
                                 exec::EventSink* sink = nullptr) {
  core::StudyOptions o;
  o.scale = 1.0;
  o.seed = seed;
  o.jobs = jobs;
  o.cache_service = svc;
  o.tracer = tracer;
  o.sink = sink;
  return o;
}

/// Cache-tier counters of the caches the study layers use.
struct TierCounts {
  std::uint64_t hits[3] = {};  ///< compile, plans, estimates
  std::uint64_t misses[3] = {};
  std::size_t bytes = 0;       ///< whole tier
};

TierCounts tier_counts(const cache::Service& svc) {
  static constexpr const char* kNames[3] = {"compile", "plans", "estimates"};
  TierCounts t;
  for (const auto& cs : svc.stats()) {
    t.bytes += cs.stats.bytes;
    for (int i = 0; i < 3; ++i)
      if (cs.name == kNames[i]) {
        t.hits[i] = cs.stats.hits;
        t.misses[i] = cs.stats.misses;
      }
  }
  return t;
}

double rate(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0.0;
}

/// Per-layer data folded over the traced units of one run.
struct TraceAcc {
  LayerProfile profile;
  obs::Registry registry;
  std::uint64_t tier_hits[3] = {};
  std::uint64_t tier_misses[3] = {};
  double tier_bytes = 0;
  std::size_t units = 0;
  std::unique_ptr<obs::Tracer> exported;  ///< first traced unit's spans
};

int hardware_cpus() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Statements of every Ok cell's compiled kernel, read back from the
/// study's compile cache (no compile work: every entry is a hit).
double stmts_per_ok_cell(const core::Study& study,
                         const std::vector<kernels::Benchmark>& suite,
                         const report::Table& t) {
  std::uint64_t stmts = 0;
  std::uint64_t cells = 0;
  for (std::size_t r = 0; r < t.rows.size(); ++r)
    for (std::size_t c = 0; c < t.rows[r].cells.size(); ++c) {
      if (!t.rows[r].cells[c].valid()) continue;
      const auto out = study.harness().compile_cached(
          study.options().compilers[c], suite[r].kernel);
      if (!out->ok()) continue;
      for (const auto& root : out->kernel->roots())
        ir::for_each_stmt(*root, [&](const ir::Stmt&) { ++stmts; });
      ++cells;
    }
  return cells > 0 ? static_cast<double>(stmts) / static_cast<double>(cells)
                   : 0.0;
}

/// Nanoseconds per runtime::noise_sample draw, timed over the study's
/// own performance-phase keys: the ten streams of every Ok cell.
double noise_ns_per_draw(std::uint64_t seed,
                         const std::vector<kernels::Benchmark>& suite,
                         const report::Table& t) {
  struct Key {
    std::uint64_t stream;
    double cv;
  };
  std::vector<Key> keys;
  for (std::size_t r = 0; r < t.rows.size(); ++r)
    for (std::size_t c = 0; c < t.rows[r].cells.size(); ++c) {
      if (!t.rows[r].cells[c].valid()) continue;
      const std::uint64_t base =
          runtime::cell_stream(t.rows[r].benchmark, t.compilers[c]);
      for (std::uint64_t k = 0; k < 10; ++k)
        keys.push_back({base ^ (0xABCD0000ULL + k), suite[r].traits.noise_cv});
    }
  if (keys.empty()) return 0;
  std::vector<double> per_draw_ns;
  double sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (const Key& k : keys) sink += runtime::noise_sample(seed, k.stream, 1.0, k.cv);
    per_draw_ns.push_back(seconds_since(t0) * 1e9 /
                          static_cast<double>(keys.size()));
  }
  if (!(sink > 0)) return 0;  // keeps the draws observable
  return median(per_draw_ns);
}

/// Share of the Ok cells whose best_seconds is bit-identical between
/// two studies with different seeds.
double alias_share(const report::Table& a, const report::Table& b) {
  std::uint64_t ok = 0;
  std::uint64_t same = 0;
  for (std::size_t r = 0; r < a.rows.size() && r < b.rows.size(); ++r)
    for (std::size_t c = 0; c < a.rows[r].cells.size(); ++c) {
      const auto& x = a.rows[r].cells[c];
      const auto& y = b.rows[r].cells[c];
      if (!x.valid() || !y.valid()) continue;
      ++ok;
      if (std::bit_cast<std::uint64_t>(x.best_seconds) ==
          std::bit_cast<std::uint64_t>(y.best_seconds))
        ++same;
    }
  return ok > 0 ? static_cast<double>(same) / static_cast<double>(ok) : 0.0;
}

/// Worker count of the measured studies (see the file comment).
constexpr int kJobs = 1;

/// `warm`: one shared cache tier, filled during set-up.
WorkloadResult run_studies(const RunConfig& cfg, bool warm) {
  WorkloadResult res;
  Checks& checks = res.checks;

  // ---- set-up: suite build + Study construction (+ the warming study) --
  std::vector<kernels::Benchmark> suite;
  std::unique_ptr<cache::Service> shared;
  std::vector<double> setup_s;
  std::vector<double> suite_ms;
  const std::uint64_t warm_seed = derive_seed(cfg.seed, ~0ULL);
  std::vector<std::vector<runtime::Placement>> cands;
  while (more_setup(setup_s)) {
    suite.clear();
    shared.reset();
    const auto t0 = Clock::now();
    suite = kernels::all_benchmarks(1.0);
    suite_ms.push_back(seconds_since(t0) * 1e3);
    std::optional<report::Table> warm_table;
    if (warm) {
      shared = std::make_unique<cache::Service>();
      const core::Study study(study_options(warm_seed, kJobs, shared.get()));
      warm_table = study.run_suite(suite);
    } else {
      const core::Study study(study_options(warm_seed, kJobs, nullptr));
    }
    setup_s.push_back(seconds_since(t0));
    if (cands.empty()) cands = candidates_of(suite);
    if (warm_table) check_table(*warm_table, cands, checks);
  }
  cache::Service* const svc = shared.get();

  // ---- measured units -------------------------------------------------
  std::vector<double> unit_s;        // untraced units
  std::vector<double> traced_s;      // traced units (--trace 1)
  std::optional<report::Table> first_table;
  std::uint64_t first_seed = 0;
  TraceAcc acc;
  std::size_t cells = 0;
  std::size_t rendered = 0;  // keeps the report output observable
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(cfg.seconds);
  for (std::uint64_t u = 0;
       Clock::now() < deadline || unit_s.size() + traced_s.size() < kMinUnits;
       ++u) {
    const std::uint64_t seed = derive_seed(cfg.seed, u);
    // Trace runs alternate untraced and traced units: the traced ones
    // give the layer numbers, the pair gives the tracing overhead.
    const bool traced = cfg.trace && u % 2 == 1;
    std::unique_ptr<obs::Tracer> tr;
    std::unique_ptr<obs::MetricsSink> sink;
    if (traced) {
      tr = std::make_unique<obs::Tracer>();
      sink = std::make_unique<obs::MetricsSink>();
    }
    const int main_tid = tr ? tr->current_tid() : 0;
    const double begin_us = tr ? tr->now_us() : 0;
    TierCounts before;
    TierCounts after;
    report::Table table;
    const auto t0 = Clock::now();
    {
      std::optional<core::Study> study;
      {
        const auto sp = obs::scoped(tr.get(), "core/study");
        study.emplace(
            study_options(seed, kJobs, svc, tr.get(), sink.get()));
      }
      if (tr) {
        const auto sp = obs::scoped(tr.get(), "obs/tier_stats");
        before = tier_counts(study->cache_service());
      }
      {
        const auto sp = obs::scoped(tr.get(), "exec/run_suite");
        table = study->run_suite(suite);
      }
      {
        const auto sp = obs::scoped(tr.get(), "report/render");
        const core::Summary s = core::summarize(table);
        rendered += report::render_ansi(table).size() +
                    static_cast<std::size_t>(s.benchmarks);
      }
      if (tr) {
        const auto sp = obs::scoped(tr.get(), "obs/tier_stats");
        after = tier_counts(study->cache_service());
      }
      const auto sp = obs::scoped(tr.get(), "cache/release");
      study.reset();
    }
    const double secs = seconds_since(t0);
    (traced ? traced_s : unit_s).push_back(secs);
    cells += table.rows.size() * table.compilers.size();

    if (tr) {
      acc.profile.add(tr->records(), main_tid, begin_us, tr->now_us());
      acc.registry.merge(sink->snapshot());
      for (int i = 0; i < 3; ++i) {
        acc.tier_hits[i] += after.hits[i] - before.hits[i];
        acc.tier_misses[i] += after.misses[i] - before.misses[i];
      }
      acc.tier_bytes += static_cast<double>(after.bytes);
      acc.units += 1;
      if (!acc.exported) acc.exported = std::move(tr);
    }
    check_table(table, cands, checks);
    if (!first_table) {
      first_table = std::move(table);
      first_seed = seed;
    }
  }

  const double rss_mb = peak_rss_mb();

  // ---- untimed replay of the first unit's seed -------------------------
  // On a fresh tier and in parallel: the table must not depend on the
  // worker count or on the tier's warmth.
  const core::Study replay(
      study_options(first_seed, std::min(4, hardware_cpus()), nullptr));
  const report::Table replay_table = replay.run_suite(suite);
  check_replay(*first_table, replay_table, checks);

  if (!cfg.trace) {
    add_end_to_end(res, setup_s, unit_s, cells, rss_mb,
                   warm ? kSeedSweepWarmTailPct : kPaperColdTailPct);
    res.notes.push_back("report bytes rendered: " + std::to_string(rendered));
    return res;
  }

  // ---- per-layer metrics (traced units only) ---------------------------
  const core::Study alias(study_options(first_seed ^ 1, kJobs, svc));
  const report::Table alias_table = alias.run_suite(suite);
  check_table(alias_table, cands, checks);

  const LayerProfile& prof = acc.profile;
  const obs::Registry& reg = acc.registry;
  const double units = static_cast<double>(acc.units);
  const double per_cell =
      1.0 / (units * static_cast<double>(kPaperBenchmarks * kPaperCompilers));
  const double trials =
      static_cast<double>(reg.counter("search_survivor_trials"));
  const double pruned =
      static_cast<double>(reg.counter("search_candidates_pruned"));
  const auto sweep = reg.histograms.find("estimate_sweep_configs");
  double cell_total_us = 0;
  for (const double us : prof.cell_us()) cell_total_us += us;
  const double run_suite_us = prof.total_us("exec/run_suite");
  const Tail cell_tail = tail(prof.cell_us(), kCellTailPct);
  res.metrics = {
      {"kernels.suite_build_ms", median(suite_ms), "ms"},
      {"compilers.compile_us_per_cell", prof.layer_self_us("compilers") * per_cell, "us"},
      {"compilers.compiles", static_cast<double>(reg.counter("compile_cache_misses")) / units, "count"},
      {"compilers.ir_stmts_out", stmts_per_ok_cell(replay, suite, replay_table), "count"},
      {"analysis.self_us_per_cell", prof.layer_self_us("analysis") * per_cell, "us"},
      {"analysis.hit_rate", rate(reg.counter("analysis_cache_hits"), reg.counter("analysis_cache_misses")), "ratio"},
      {"perf.plan_us_per_cell", prof.self_us("plan") * per_cell, "us"},
      {"perf.evaluate_us_per_cell", (prof.self_us("evaluate:sweep") + prof.self_us("evaluate")) * per_cell, "us"},
      {"perf.sweep_configs", sweep != reg.histograms.end() ? sweep->second.sum / units : 0.0, "count"},
      {"runtime.explore_us_per_cell", (prof.self_us("explore") + prof.self_us("search:round")) * per_cell, "us"},
      {"runtime.search_trials", trials / units, "count"},
      {"runtime.search_pruned_share", pruned + trials / 3 > 0 ? pruned / (pruned + trials / 3) : 0.0, "ratio"},
      {"runtime.measure_us_per_cell", prof.self_us("measure") * per_cell, "us"},
      {"runtime.noise_draws", (10.0 * static_cast<double>(reg.counter("cells_ok")) + trials) / units, "count"},
      {"runtime.noise_ns_per_draw", noise_ns_per_draw(first_seed, suite, *first_table), "ns"},
      {"runtime.noise_alias_share", alias_share(*first_table, alias_table), "ratio"},
      {"cache.compile_hit_rate", rate(acc.tier_hits[0], acc.tier_misses[0]), "ratio"},
      {"cache.plan_hit_rate", rate(acc.tier_hits[1], acc.tier_misses[1]), "ratio"},
      {"cache.estimate_hit_rate", rate(acc.tier_hits[2], acc.tier_misses[2]), "ratio"},
      {"cache.bytes", acc.tier_bytes / units, "bytes"},
      {"exec.worker_busy_share", run_suite_us > 0 ? cell_total_us / (run_suite_us * kJobs) : 0.0, "ratio"},
      {"exec.cell_tail_us", cell_tail.value, "us"},
      {"report.render_ms", prof.self_us("report/render") / units / 1e3, "ms"},
      {"obs.trace_overhead", median(traced_s) / median(unit_s) - 1.0, "ratio"},
      {"obs.span_coverage", prof.covered_us() / prof.window_us(), "ratio"},
  };
  res.notes.push_back(tail_note("exec.cell_tail_us", cell_tail, "us", 1.0));
  add_layer_report(res, cfg, prof, acc.units, *acc.exported);
  return res;
}

}  // namespace

WorkloadResult run_paper_cold(const RunConfig& cfg) {
  return run_studies(cfg, /*warm=*/false);
}

WorkloadResult run_seed_sweep_warm(const RunConfig& cfg) {
  return run_studies(cfg, /*warm=*/true);
}

}  // namespace perfbench
