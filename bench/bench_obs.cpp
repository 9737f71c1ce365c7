// bench_obs — overhead of the observability layer.
//
// Three measurements, emitted human-readable plus one JSON trajectory
// line (stdout):
//   1. study overhead: the same suite with tracing + metrics attached vs
//      bare, same worker count — the "disabled observability is free,
//      enabled observability is cheap" claim;
//   2. raw span cost: spans/second through a live tracer, and through a
//      null tracer (the disabled path the harness always executes);
//   3. the diagnostics-only contract: both tables must be byte-identical
//      (exit code 1 if not).
//
// Usage: bench_obs [--scale=f] [--jobs=N]

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace a64fxcc;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);
  int jobs = 4;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) jobs = std::atoi(argv[i] + 7);

  const auto suite = kernels::polybench_suite(args.scale);
  std::printf("== Observability overhead (PolyBench, scale %g, %d workers) ==\n",
              args.scale, jobs);

  // 1. The same study bare vs fully observed (tracer + metrics sink).
  core::StudyOptions bare;
  bare.scale = args.scale;
  bare.jobs = jobs;
  auto t0 = std::chrono::steady_clock::now();
  const auto table_bare = core::Study(std::move(bare)).run_suite(suite);
  const double t_bare = seconds_since(t0);

  obs::Tracer tracer;
  obs::MetricsSink metrics;
  core::StudyOptions observed;
  observed.scale = args.scale;
  observed.jobs = jobs;
  observed.tracer = &tracer;
  observed.sink = &metrics;
  t0 = std::chrono::steady_clock::now();
  const auto table_observed = core::Study(std::move(observed)).run_suite(suite);
  const double t_observed = seconds_since(t0);
  const double overhead = t_observed / t_bare - 1.0;
  std::printf("  study: %6.3fs bare, %6.3fs observed (%+.1f%% overhead, "
              "%zu spans collected)\n",
              t_bare, t_observed, 100.0 * overhead, tracer.size());

  // 2. Raw span throughput: live tracer vs the null path.
  constexpr int kSpans = 200000;
  const std::string b = "bench";
  const std::string c = "CC";
  obs::Tracer hot;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) obs::scoped(&hot, "span", b, c).end();
  const double t_live = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) obs::scoped(nullptr, "span", b, c).end();
  const double t_null = seconds_since(t0);
  const double live_per_sec = kSpans / t_live;
  const double null_per_sec = kSpans / t_null;
  std::printf("  spans: %.0f/s live (%.0f ns each), %.0f/s disabled "
              "(%.2f ns each)\n",
              live_per_sec, 1e9 * t_live / kSpans, null_per_sec,
              1e9 * t_null / kSpans);

  // 3. The contract: observation must not change a byte of the table.
  const bool identical =
      report::render_csv(table_bare) == report::render_csv(table_observed);
  std::printf("  observed table == bare table: %s\n",
              identical ? "yes" : "NO — OBSERVABILITY PERTURBS RESULTS");

  benchutil::claim("obs.study_overhead", "~0", overhead, "");
  benchutil::claim("obs.live_spans_per_sec", ">1e6", live_per_sec, "");
  benchutil::claim("obs.null_span_ns", "~0", 1e9 * t_null / kSpans, "ns");

  std::printf(
      "\n{\"bench\":\"obs\",\"scale\":%g,\"jobs\":%d,"
      "\"bare_seconds\":%.4f,\"observed_seconds\":%.4f,"
      "\"obs_overhead\":%.4f,\"spans\":%zu,"
      "\"live_spans_per_sec\":%.0f,\"null_spans_per_sec\":%.0f,"
      "\"identical\":%s}\n",
      args.scale, jobs, t_bare, t_observed, overhead, tracer.size(),
      live_per_sec, null_per_sec, identical ? "true" : "false");

  return identical ? 0 : 1;
}
