// kernel_advisor: seeded synthetic kernels, each compiled under the five
// paper compilers and modelled the way `a64fxcc file` / `show` does —
// compilers::compile, then perf::analyze + perf::evaluate at the
// single-core and the full-node placement.  No study, cache tier,
// placement search or noise code runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.hpp"
#include "compilers/compiler_model.hpp"
#include "interp/interpreter.hpp"
#include "ir/node.hpp"
#include "kernels/benchmark.hpp"
#include "kernels/synthetic.hpp"
#include "layers.hpp"
#include "perf/plan.hpp"

namespace perfbench {
namespace {

using namespace a64fxcc;

/// Distinct kernels per run; units cycle through them.  Large enough that
/// the mix of cheap and expensive kernels is nearly the same for every
/// seed.
constexpr std::size_t kPool = 2048;
/// Set-ups timed back to back per set-up sample: one set-up takes well
/// under a microsecond.
constexpr int kSetupBatch = 1000;
/// Kernels whose compiled forms are checked against the source by the
/// IR interpreter (five compilers each).
constexpr std::size_t kEquivalenceKernels = 6;
/// Largest kernel the equivalence check interprets: N^depth loop
/// iterations and total tensor bytes.
constexpr double kInterpIterations = 1 << 20;
constexpr std::int64_t kInterpBytes = 32 << 20;
/// Problem scale of the benchmarks `a64fxcc show` and `emit` work on.
constexpr double kShowScale = 0.25;

/// Depth of the deepest loop nest under `n`.
int depth_of(const ir::Node& n) {
  if (!n.is_loop()) return 0;
  int d = 0;
  for (const auto& c : n.loop.body) d = std::max(d, depth_of(*c));
  return 1 + d;
}

int depth_of(const ir::Kernel& k) {
  int d = 0;
  for (const auto& r : k.roots()) d = std::max(d, depth_of(*r));
  return d;
}

/// Loop-nest shape of one paper benchmark: the depth of its deepest nest,
/// the most statements directly in one loop body, and the geometric mean
/// of the deepest nest's loop extents (bounds evaluated at the declared
/// parameters with outer loop variables at 0; empty triangular bounds
/// skipped).
struct NestShape {
  int depth = 0;
  int stmts = 0;
  std::int64_t extent = 0;
};

NestShape shape_of(const ir::Kernel& k) {
  NestShape s;
  const ir::Node* deepest = nullptr;
  for (const auto& r : k.roots()) {
    const int d = depth_of(*r);
    if (d > s.depth) {
      s.depth = d;
      deepest = r.get();
    }
    ir::for_each_loop(*r, [&](const ir::Loop& l) {
      int n = 0;
      for (const auto& c : l.body) n += c->is_stmt() ? 1 : 0;
      s.stmts = std::max(s.stmts, n);
    });
  }
  if (deepest == nullptr) return s;
  const auto env = k.param_env();
  double log_sum = 0;
  int loops = 0;
  ir::for_each_loop(*deepest, [&](const ir::Loop& l) {
    const std::int64_t e = l.upper.evaluate(env) - l.lower.evaluate(env);
    if (e <= 0) return;
    log_sum += std::log(static_cast<double>(e));
    ++loops;
  });
  s.extent = loops > 0 ? std::max<std::int64_t>(
                             1, std::llround(std::exp(log_sum / loops)))
                       : 1;
  return s;
}

/// Shapes of the 108 paper benchmarks at the scale `show` uses: the
/// advisor's kernels take their depth, statement count and extent from
/// these.
std::vector<NestShape> paper_shapes() {
  std::vector<NestShape> shapes;
  for (const auto& b : kernels::all_benchmarks(kShowScale)) {
    const NestShape s = shape_of(b.kernel);
    if (s.depth > 0) shapes.push_back(s);
  }
  return shapes;
}

/// Synthetic kernel shaped like a paper benchmark drawn by `ks`: OpenMP
/// parallel outer loops, gathers and triangular bounds allowed.
/// synthetic_kernel draws the nest depth from [1, max_depth], so seeds
/// derived from `ks` are tried, at most 64, until the depth is the
/// benchmark's.
ir::Kernel make_kernel(std::uint64_t ks, const std::vector<NestShape>& shapes) {
  const NestShape& s = shapes[ks % shapes.size()];
  kernels::SyntheticOptions o;
  o.max_depth = s.depth;
  o.max_stmts = std::max(1, s.stmts);
  o.dim = s.extent;
  o.allow_triangular = true;
  o.allow_indirect = true;
  o.allow_parallel = true;
  for (std::uint64_t attempt = 0;; ++attempt) {
    ir::Kernel k = kernels::synthetic_kernel(derive_seed(ks, attempt), o);
    if (depth_of(k) == s.depth || attempt == 63) return k;
  }
}

/// Small enough for the equivalence check's interpreter.
bool interpretable(const ir::Kernel& k) {
  const double n = static_cast<double>(k.params().front().value);
  return std::pow(n, depth_of(k)) <= kInterpIterations &&
         k.footprint_bytes() <= kInterpBytes;
}

/// What the advisor needs besides the kernel: built once per run.
struct Setup {
  std::vector<compilers::CompilerSpec> specs;
  machine::Machine machine;
  perf::ExecConfig single_core;
  perf::ExecConfig full_node;
};

Setup make_setup() {
  Setup s{compilers::paper_compilers(), machine::a64fx(), {}, {}};
  s.single_core = perf::make_config(1, 1, s.machine);
  s.full_node =
      perf::make_config(s.machine.domains, s.machine.cores_per_domain, s.machine);
  return s;
}

/// One kernel x compiler advisory.
struct Advice {
  compilers::CompileOutcome::Status status{};
  double single_core_s = 0;
  double full_node_s = 0;
  analysis::ManagerCounters analysis;
  std::uint64_t stmts = 0;  ///< compiled statements (traced units only)
};

Advice advise(const compilers::CompilerSpec& spec, const ir::Kernel& k,
              const Setup& s, obs::Tracer* tr) {
  Advice a;
  std::optional<compilers::CompileOutcome> out;
  {
    const auto sp = obs::scoped(tr, "compilers/compile");
    out.emplace(
        compilers::compile(spec, k, compilers::CompileContext{.tracer = tr}));
  }
  a.status = out->status;
  a.analysis = out->analysis_cache;
  if (out->ok()) {
    std::optional<perf::KernelPlan> plan;
    {
      const auto sp = obs::scoped(tr, "perf/analyze");
      plan.emplace(perf::analyze(*out->kernel, s.machine));
    }
    {
      const auto sp = obs::scoped(tr, "perf/evaluate");
      a.single_core_s =
          perf::evaluate(*plan, s.single_core, out->profile).seconds *
          out->time_multiplier;
      a.full_node_s = perf::evaluate(*plan, s.full_node, out->profile).seconds *
                      out->time_multiplier;
    }
    if (tr != nullptr) {
      const auto sp = obs::scoped(tr, "obs/ir_stats");
      for (const auto& root : out->kernel->roots())
        ir::for_each_stmt(*root, [&](const ir::Stmt&) { ++a.stmts; });
    }
    const auto sp = obs::scoped(tr, "perf/release");
    plan.reset();
  }
  const auto sp = obs::scoped(tr, "compilers/release");
  out.reset();
  return a;
}

/// "kernel shapes from N paper benchmarks at scale 0.25: ..." ranges.
std::string shapes_note(const std::vector<NestShape>& shapes) {
  NestShape lo{1 << 30, 1 << 30, std::int64_t{1} << 62};
  NestShape hi;
  for (const auto& s : shapes) {
    lo = {std::min(lo.depth, s.depth), std::min(lo.stmts, s.stmts),
          std::min(lo.extent, s.extent)};
    hi = {std::max(hi.depth, s.depth), std::max(hi.stmts, s.stmts),
          std::max(hi.extent, s.extent)};
  }
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "kernel shapes from %zu paper benchmarks at scale %g: depth "
                "%d-%d, statements per body %d-%d, extent %lld-%lld",
                shapes.size(), kShowScale, lo.depth, hi.depth, lo.stmts,
                hi.stmts, static_cast<long long>(lo.extent),
                static_cast<long long>(hi.extent));
  return buf;
}

/// No paper quirk is keyed on a synthetic kernel, so every advisory must
/// compile and model to finite, positive times.
std::string check_advice(const Advice& a, const ir::Kernel& k,
                         const compilers::CompilerSpec& spec) {
  if (a.status != compilers::CompileOutcome::Status::Ok)
    return k.name() + " x " + spec.name + ": compile failed";
  if (!(std::isfinite(a.single_core_s) && a.single_core_s > 0 &&
        std::isfinite(a.full_node_s) && a.full_node_s > 0))
    return k.name() + " x " + spec.name + ": modelled time not finite and positive";
  return {};
}

}  // namespace

WorkloadResult run_kernel_advisor(const RunConfig& cfg) {
  WorkloadResult res;
  Checks& checks = res.checks;

  // Set-up first, as an advisor does before its first request, on the
  // process's fresh heap.
  std::vector<double> setup_s;
  Setup setup = make_setup();
  while (more_setup(setup_s)) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupBatch; ++i) setup = make_setup();
    setup_s.push_back(seconds_since(t0) / kSetupBatch);
  }

  // Inputs (not set-up): the kernel pool, generated from the seed in the
  // shapes of the paper benchmarks.
  std::vector<ir::Kernel> pool;
  pool.reserve(kPool);
  const auto tg = Clock::now();
  const std::vector<NestShape> shapes = paper_shapes();
  for (std::size_t i = 0; i < kPool; ++i)
    pool.push_back(make_kernel(derive_seed(cfg.seed, i), shapes));
  const double generate_ms = seconds_since(tg) * 1e3;
  res.notes.push_back(shapes_note(shapes));

  std::vector<double> unit_s;
  std::vector<double> traced_s;
  LayerProfile prof;
  std::unique_ptr<obs::Tracer> exported;
  analysis::ManagerCounters analysis;
  std::uint64_t stmts = 0;
  std::uint64_t ok_cells = 0;
  std::size_t traced_units = 0;
  std::size_t cells = 0;
  std::vector<Advice> advice(setup.specs.size());
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(cfg.seconds);
  for (std::uint64_t u = 0;
       Clock::now() < deadline || unit_s.size() + traced_s.size() < kMinUnits;
       ++u) {
    // Trace runs advise on every kernel twice, once traced and once not,
    // in alternating order, so the pair gives the tracing overhead on
    // identical work.
    const std::uint64_t pair = cfg.trace ? u / 2 : u;
    const ir::Kernel& k = pool[pair % kPool];
    const bool traced = cfg.trace && (u % 2 == 1) != (pair % 2 == 1);
    std::unique_ptr<obs::Tracer> tr =
        traced ? std::make_unique<obs::Tracer>() : nullptr;
    const int main_tid = tr ? tr->current_tid() : 0;
    const double begin_us = tr ? tr->now_us() : 0;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < setup.specs.size(); ++c)
      advice[c] = advise(setup.specs[c], k, setup, tr.get());
    (traced ? traced_s : unit_s).push_back(seconds_since(t0));
    cells += setup.specs.size();

    for (std::size_t c = 0; c < setup.specs.size(); ++c) {
      checks.cell(check_advice(advice[c], k, setup.specs[c]));
      if (!traced) continue;
      analysis.hits += advice[c].analysis.hits;
      analysis.misses += advice[c].analysis.misses;
      if (advice[c].status == compilers::CompileOutcome::Status::Ok) {
        stmts += advice[c].stmts;
        ++ok_cells;
      }
    }
    if (tr) {
      prof.add(tr->records(), main_tid, begin_us, tr->now_us());
      ++traced_units;
      if (!exported) exported = std::move(tr);
    }
  }

  const double rss_mb = peak_rss_mb();

  // The compiled kernels of a seeded subsample, drawn among the pool's
  // kernels small enough to interpret, must compute what their source
  // computes, as the IR interpreter sees it.
  std::vector<bool> picked(kPool, false);
  std::size_t checked = 0;
  for (std::uint64_t j = 0;
       checked < kEquivalenceKernels && j < 4 * kPool; ++j) {
    const std::uint64_t pick = derive_seed(cfg.seed ^ 0x5EED5EEDULL, j);
    const ir::Kernel& k = pool[pick % kPool];
    if (picked[pick % kPool] || !interpretable(k)) continue;
    picked[pick % kPool] = true;
    ++checked;
    for (const auto& spec : setup.specs) {
      const auto out = compilers::compile(spec, k);
      std::string why;
      if (!out.ok()) {
        why = "compile failed";
      } else if (!interp::equivalent(k, *out.kernel, 1e-9, 1e-12, &why, pick)) {
        why = "not equivalent to its source: " + why;
      }
      checks.cell(why.empty() ? why : k.name() + " x " + spec.name + ": " + why);
    }
  }
  if (checked < kEquivalenceKernels)
    checks.cell("only " + std::to_string(checked) +
                " pool kernels are small enough for the equivalence check");

  if (!cfg.trace) {
    add_end_to_end(res, setup_s, unit_s, cells, rss_mb, kKernelAdvisorTailPct);
    return res;
  }

  const double units = static_cast<double>(traced_units);
  const double per_cell =
      1.0 / (units * static_cast<double>(setup.specs.size()));
  const double analysis_total = analysis.hits + analysis.misses;
  // Layers this workload never enters report 0: no study, cache tier,
  // engine, search, noise or report code runs.
  res.metrics = {
      {"kernels.suite_build_ms", generate_ms, "ms"},
      {"compilers.compile_us_per_cell", prof.layer_self_us("compilers") * per_cell, "us"},
      {"compilers.compiles", static_cast<double>(setup.specs.size()), "count"},
      {"compilers.ir_stmts_out", ok_cells > 0 ? static_cast<double>(stmts) / static_cast<double>(ok_cells) : 0.0, "count"},
      {"analysis.self_us_per_cell", prof.layer_self_us("analysis") * per_cell, "us"},
      {"analysis.hit_rate", analysis_total > 0 ? analysis.hits / analysis_total : 0.0, "ratio"},
      {"perf.plan_us_per_cell", prof.self_us("perf/analyze") * per_cell, "us"},
      {"perf.evaluate_us_per_cell", prof.self_us("perf/evaluate") * per_cell, "us"},
      {"perf.sweep_configs", 0, "count"},
      {"runtime.explore_us_per_cell", 0, "us"},
      {"runtime.search_trials", 0, "count"},
      {"runtime.search_pruned_share", 0, "ratio"},
      {"runtime.measure_us_per_cell", 0, "us"},
      {"runtime.noise_draws", 0, "count"},
      {"runtime.noise_ns_per_draw", 0, "ns"},
      {"runtime.noise_alias_share", 0, "ratio"},
      {"cache.compile_hit_rate", 0, "ratio"},
      {"cache.plan_hit_rate", 0, "ratio"},
      {"cache.estimate_hit_rate", 0, "ratio"},
      {"cache.bytes", 0, "bytes"},
      {"exec.worker_busy_share", 0, "ratio"},
      {"exec.cell_tail_us", 0, "us"},
      {"report.render_ms", 0, "ms"},
      {"obs.trace_overhead", median(traced_s) / median(unit_s) - 1.0, "ratio"},
      {"obs.span_coverage", prof.covered_us() / prof.window_us(), "ratio"},
  };
  add_layer_report(res, cfg, prof, traced_units, *exported);
  return res;
}

}  // namespace perfbench
