// Tests for the measurement harness: placement candidates respect the
// benchmark traits, exploration picks sensible placements, noise is
// deterministic per seed, errors propagate, and the library-fraction
// model caps compiler influence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "kernels/archetypes.hpp"
#include "kernels/benchmark.hpp"
#include "runtime/harness.hpp"
#include "runtime/search.hpp"

namespace {

using namespace a64fxcc;
using kernels::ArchParams;
using kernels::Benchmark;
using runtime::Harness;
using runtime::Placement;
using runtime::PlacementSearch;
using runtime::SearchMode;
using runtime::SearchPlan;

Harness make_harness(std::uint64_t seed = 42) {
  return Harness(machine::a64fx(), seed);
}

Benchmark triad_bench(std::int64_t n = 1 << 22) {
  ArchParams p{.name = "t",
               .language = ir::Language::C,
               .parallel = ir::ParallelModel::OpenMP,
               .suite = "test",
               .n = n};
  return {kernels::stream_triad(p), kernels::BenchmarkTraits{}};
}

TEST(Placements, SingleCoreGetsOnlyOne) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({.single_core = true});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], (Placement{1, 1}));
}

TEST(Placements, WeakScalingGetsRecommendedOnly) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({.explore_placements = false});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], (Placement{4, 12}));
}

TEST(Placements, OneCmgLimitedToTwelveThreads) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({.one_cmg = true});
  for (const auto& p : c) {
    EXPECT_EQ(p.ranks, 1);
    EXPECT_LE(p.threads, 12);
  }
  EXPECT_GE(c.size(), 4u);
}

TEST(Placements, Pow2RanksRespected) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({.pow2_ranks_only = true});
  for (const auto& p : c) EXPECT_EQ(p.ranks & (p.ranks - 1), 0) << p.ranks;
}

TEST(Placements, DefaultSetIncludesRecommendedFirstAndFits) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({});
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(c[0], (Placement{4, 12}));
  for (const auto& p : c) EXPECT_LE(p.ranks * p.threads, 48);
}

TEST(Placements, GeneratedListsAreDedupedAndFeasibleEverywhere) {
  // Infeasible (ranks x threads > cores) and duplicate combos are now
  // skipped at generation time rather than filtered afterwards; the
  // recommended placement stays first wherever it is feasible.
  using kernels::BenchmarkTraits;
  const BenchmarkTraits traits[] = {{},
                                    {.pow2_ranks_only = true},
                                    {.one_cmg = true},
                                    {.single_core = true},
                                    {.explore_placements = false}};
  const ir::ParallelModel models[] = {ir::ParallelModel::MpiOpenMP,
                                      ir::ParallelModel::OpenMP,
                                      ir::ParallelModel::Serial};
  for (const auto& m :
       {machine::a64fx(), machine::a64fx_fx700(), machine::thunderx2(),
        machine::xeon_cascadelake()}) {
    const Harness h(m, 42);
    for (const auto& tr : traits) {
      for (const auto model : models) {
        const auto c = h.candidate_placements(tr, model);
        ASSERT_FALSE(c.empty()) << m.name;
        for (const auto& p : c) {
          EXPECT_GE(p.ranks, 1) << m.name;
          EXPECT_GE(p.threads, 1) << m.name;
          EXPECT_LE(p.ranks * p.threads, m.total_cores()) << m.name;
        }
        for (std::size_t i = 0; i < c.size(); ++i)
          for (std::size_t j = i + 1; j < c.size(); ++j)
            EXPECT_FALSE(c[i] == c[j])
                << m.name << " dup " << c[i].ranks << "x" << c[i].threads;
        // one_cmg sweeps threads ascending (recommended = 1 x cpd comes
        // last); every other explored list leads with the recommendation.
        const auto rec = h.recommended_for(model, tr);
        if (!tr.one_cmg && rec.ranks * rec.threads <= m.total_cores() &&
            (!tr.pow2_ranks_only || (rec.ranks & (rec.ranks - 1)) == 0))
          EXPECT_EQ(c[0], rec) << m.name;
      }
    }
  }
}

TEST(Harness, RunProducesOrderedStats) {
  const auto h = make_harness();
  const auto b = triad_bench();
  const auto m = h.run(compilers::fjtrad(), b);
  ASSERT_TRUE(m.valid());
  EXPECT_GT(m.best_seconds, 0);
  EXPECT_LE(m.best_seconds, m.median_seconds);
  EXPECT_GE(m.cv, 0);
  EXPECT_FALSE(m.bottleneck.empty());
}

TEST(Harness, DeterministicPerSeed) {
  const auto b = triad_bench();
  const auto m1 = make_harness(7).run(compilers::gnu(), b);
  const auto m2 = make_harness(7).run(compilers::gnu(), b);
  EXPECT_DOUBLE_EQ(m1.best_seconds, m2.best_seconds);
  const auto m3 = make_harness(8).run(compilers::gnu(), b);
  EXPECT_NE(m1.best_seconds, m3.best_seconds);
}

TEST(Harness, QuirkErrorsPropagate) {
  // k22 under FJclang is a declared compile error.
  for (const auto& b : kernels::microkernel_suite(0.01)) {
    if (b.name() != "k22") continue;
    const auto m = make_harness().run(compilers::fjclang(), b);
    EXPECT_EQ(m.status, runtime::CellStatus::CompileError);
    EXPECT_FALSE(m.valid());
    EXPECT_TRUE(std::isinf(m.best_seconds));
  }
}

TEST(Harness, ExplorationBeatsOrMatchesRecommended) {
  // The chosen placement can never be slower (in model time) than the
  // model-appropriate recommended placement by more than noise.
  const auto h = make_harness();
  const auto b = triad_bench(1 << 24);
  const auto m = h.run(compilers::llvm12(), b);
  const auto rec_p = h.recommended_for(b.kernel.meta().parallel, b.traits);
  const double rec = h.model_time(compilers::llvm12(), b, rec_p);
  EXPECT_LE(m.best_seconds, rec * 1.10);
}

TEST(Harness, RecommendedPlacementPerModel) {
  const auto h = make_harness();
  EXPECT_EQ(h.recommended_for(ir::ParallelModel::MpiOpenMP, {}),
            (Placement{4, 12}));
  EXPECT_EQ(h.recommended_for(ir::ParallelModel::OpenMP, {}),
            (Placement{1, 48}));
  EXPECT_EQ(h.recommended_for(ir::ParallelModel::Serial, {}), (Placement{1, 1}));
  EXPECT_EQ(h.recommended_for(ir::ParallelModel::OpenMP, {.one_cmg = true}),
            (Placement{1, 12}));
}

TEST(Placements, OpenMpKernelsOnlyVaryThreads) {
  const auto h = make_harness();
  const auto c = h.candidate_placements({}, ir::ParallelModel::OpenMP);
  for (const auto& p : c) EXPECT_EQ(p.ranks, 1);
  EXPECT_GE(c.size(), 5u);
}

TEST(Harness, LibraryFractionCapsCompilerInfluence) {
  // With 93% of time in SSL2, even a compiler that doubles user-code
  // speed moves total time by only a few percent (the HPL observation).
  auto b = triad_bench(1 << 22);
  b.traits.library_fraction = 0.93;
  const auto h = make_harness();
  const double fj = h.model_time(compilers::fjtrad(), b, {4, 12});
  const double lv = h.model_time(compilers::llvm12(), b, {4, 12});
  const double gain = fj / lv;
  EXPECT_LT(gain, 1.15);
  EXPECT_GT(gain, 0.9);
}

TEST(Harness, NoiseCvRoughlyMatchesTrait) {
  auto b = triad_bench();
  b.traits.noise_cv = 0.22;  // BabelStream-class
  const auto m = make_harness().run(compilers::fjtrad(), b);
  // 10 samples of a CV=0.22 lognormal: sample CV within a loose band.
  EXPECT_GT(m.cv, 0.05);
  EXPECT_LT(m.cv, 0.5);
}

TEST(Harness, BestOfTenBelowModelTime) {
  // Reporting the fastest of 10 noisy runs biases below the model mean.
  auto b = triad_bench();
  b.traits.noise_cv = 0.1;
  const auto h = make_harness();
  const auto m = h.run(compilers::fjtrad(), b);
  const double t_model = h.model_time(compilers::fjtrad(), b, m.placement);
  EXPECT_LT(m.best_seconds, t_model * 1.02);
}

TEST(NoiseSample, SeedingContractIsPureAndStreamKeyed) {
  // The documented seeding contract (harness.hpp): each (seed, stream)
  // pair is hashed into a counter-based key and the sample is computed
  // from that key alone — NOT drawn in sequence from a shared
  // generator.  A sample is a pure function of (seed, stream, t, cv):
  const double a = runtime::noise_sample(42, 7, 1.0, 0.1);
  EXPECT_EQ(a, runtime::noise_sample(42, 7, 1.0, 0.1));  // bitwise stable
  // Equal streams give bit-equal samples by design (this is why the
  // harness derives a distinct substream per trial)...
  EXPECT_EQ(runtime::noise_sample(42, 7, 2.0, 0.1),
            2.0 * (a / 1.0));  // same multiplicative factor, scaled t
  // ...and distinct streams or seeds decorrelate via the hash mixing.
  EXPECT_NE(a, runtime::noise_sample(42, 8, 1.0, 0.1));
  EXPECT_NE(a, runtime::noise_sample(43, 7, 1.0, 0.1));
  // Draw-order independence: interleaving other draws cannot perturb a
  // stream (there is no generator state to advance).
  (void)runtime::noise_sample(42, 1000, 1.0, 0.1);
  EXPECT_EQ(a, runtime::noise_sample(42, 7, 1.0, 0.1));
  // cv <= 0 and non-finite t pass through untouched.
  EXPECT_EQ(runtime::noise_sample(42, 7, 3.5, 0.0), 3.5);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(runtime::noise_sample(42, 7, inf, 0.1), inf);
}

TEST(NoiseSample, GoldenDrawsPinTheGeneratorVersion) {
  // The resume journal folds kNoiseGeneratorVersion into its cell key
  // (harness.hpp), so under one version the draw for a fixed (seed,
  // stream) must never change.  If these values move, bump
  // kNoiseGeneratorVersion and update it and the values here together.
  // The tolerance is far below any change of the draw and above the
  // last-ulp drift a different libm may give exp/log/cos.
  EXPECT_EQ(runtime::kNoiseGeneratorVersion, 2u);
  EXPECT_NEAR(runtime::noise_sample(42, 7, 1.0, 0.1), 0.89471885578534494,
              1e-12);
  EXPECT_NEAR(runtime::noise_sample(43, 7, 1.0, 0.1), 0.85245138067314619,
              1e-12);
  EXPECT_NEAR(runtime::noise_sample(0, 0, 1.0, 0.1), 1.2153247526816631,
              1e-12);
}

TEST(NoiseSample, StandardizedLogFactorIsStandardNormal) {
  // log(sample / t) / sigma must be N(0, 1) over many distinct streams:
  // the Box–Muller draw is the whole distribution, so its first two
  // moments are checked directly (2^18 draws: the bounds are > 4 standard
  // errors wide).
  const double cv = 0.1;
  const double sigma = std::sqrt(std::log1p(cv * cv));
  constexpr std::uint64_t kStreams = 1 << 18;
  double sum = 0;
  double sum_sq = 0;
  for (std::uint64_t s = 0; s < kStreams; ++s) {
    const double z =
        std::log(runtime::noise_sample(42, s, 1.0, cv)) / sigma;
    ASSERT_TRUE(std::isfinite(z)) << "stream " << s;
    sum += z;
    sum_sq += z * z;
  }
  const double n = static_cast<double>(kStreams);
  const double mean = sum / n;
  const double sd = std::sqrt((sum_sq - n * mean * mean) / (n - 1));
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(sd, 1.0, 0.01);
}

TEST(NoiseSample, NeighbouringSeedsDoNotAliasCells) {
  // Seeds s and s^1 must give independent studies.  The measure-phase
  // substreams are base ^ (0xABCD0000 + r), so a generator keyed on
  // seed ^ stream would only permute the ten runs between the two seeds
  // and repeat most best-of-10 values bit for bit.
  const auto suite = kernels::all_benchmarks(0.25);
  const auto specs = compilers::paper_compilers();
  for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{42, 43},
                             std::pair<std::uint64_t, std::uint64_t>{10, 11}}) {
    const Harness ha = make_harness(a);
    const Harness hb = make_harness(b);
    int ok = 0;
    int same = 0;
    for (const auto& bench : suite)
      for (const auto& spec : specs) {
        const auto ma = ha.run(spec, bench);
        const auto mb = hb.run(spec, bench);
        if (!ma.valid() || !mb.valid()) continue;
        ++ok;
        if (ma.best_seconds == mb.best_seconds) ++same;
      }
    ASSERT_GT(ok, 500) << "seeds " << a << "/" << b;
    EXPECT_LE(same, ok / 50) << "seeds " << a << "/" << b << ": " << same
                             << " of " << ok << " cells bit-identical";
  }
}

TEST(NoiseSample, HarnessSamplesDeriveFromCellSubstreams) {
  // The measure phase's r-th sample uses substream base ^ (0xABCD0000 +
  // r) of the cell stream — assert run() actually follows the contract
  // (the samples' min must be reproducible from noise_sample alone).
  auto b = triad_bench();
  b.traits.noise_cv = 0.1;
  const auto h = make_harness();
  const auto m = h.run(compilers::fjtrad(), b);
  const double t_model = h.model_time(compilers::fjtrad(), b, m.placement);
  const std::uint64_t base = runtime::cell_stream(b.name(), "FJtrad");
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 10; ++r) {
    best = std::min(best, runtime::noise_sample(h.seed(),
                                                base ^ (0xABCD0000ULL + r),
                                                t_model, b.traits.noise_cv));
  }
  EXPECT_EQ(m.best_seconds, best);
}

// --- Guided placement search (successive halving over model estimates) ---

PlacementSearch halving(int keep = 0) {
  return PlacementSearch({SearchMode::Halving, keep});
}

TEST(PlacementSearchPlan, ExhaustiveModeKeepsEveryCandidate) {
  const PlacementSearch s({SearchMode::Exhaustive, 0});
  const std::vector<double> times{3.0, 1.0, 2.0};
  const SearchPlan p = s.plan(times, 0.1);
  EXPECT_EQ(p.survivors, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(p.rounds.empty());
  EXPECT_EQ(p.pruned(), 0);
}

TEST(PlacementSearchPlan, ShortListsAndNonFiniteTimesKeepAll) {
  const PlacementSearch s = halving();
  const std::vector<double> one{3.0};
  EXPECT_EQ(s.plan(one, 0.1).survivors, (std::vector<std::size_t>{0}));
  // A non-finite model estimate means the ranking is meaningless; the
  // plan must fall back to the exhaustive schedule rather than prune on
  // garbage.
  const std::vector<double> inf{1.0, std::numeric_limits<double>::infinity(),
                                2.0};
  const SearchPlan p = s.plan(inf, 0.1);
  EXPECT_EQ(p.survivors, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(p.rounds.empty());
}

TEST(PlacementSearchPlan, HalvesToDerivedFloorPreservingOriginalIndices) {
  // 16 candidates, descending powers of two: the two fastest are the
  // LAST two indices, so surviving "original index" order proves the
  // plan reports pre-ranking indices (the noise-stream contract), not
  // rank positions.
  std::vector<double> times(16);
  for (std::size_t i = 0; i < times.size(); ++i)
    times[i] = std::pow(2.0, 15.0 - static_cast<double>(i));
  const SearchPlan p = halving().plan(times, 0.01);
  // floor = max(2, ceil(16/8)) = 2; schedule 16 -> 8 -> 4 -> 2.
  ASSERT_EQ(p.rounds.size(), 3u);
  EXPECT_EQ(p.rounds[0].frontier, 16);
  EXPECT_EQ(p.rounds[0].pruned, 8);
  EXPECT_EQ(p.rounds[1].frontier, 8);
  EXPECT_EQ(p.rounds[1].pruned, 4);
  EXPECT_EQ(p.rounds[2].frontier, 4);
  EXPECT_EQ(p.rounds[2].pruned, 2);
  EXPECT_EQ(p.pruned(), 14);
  EXPECT_EQ(p.survivors, (std::vector<std::size_t>{14, 15}));
}

TEST(PlacementSearchPlan, NoiseBandIsUnprunable) {
  // All four candidates sit well inside the 10-sigma band of cv = 0.5:
  // noisy trials could promote any of them, so none may be pruned.
  const std::vector<double> times{1.0, 1.01, 1.02, 0.99};
  const SearchPlan p = halving().plan(times, 0.5);
  EXPECT_EQ(p.survivors, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(p.rounds.empty());
  EXPECT_EQ(p.pruned(), 0);
}

TEST(PlacementSearchPlan, ZeroCvBandCollapsesToExactTies) {
  // cv = 0 means trials are noise-free: only exact model-time ties with
  // the minimum are unprunable.  Three candidates tie at 1.0.
  const std::vector<double> times{5.0, 1.0, 1.0, 3.0, 2.0, 1.0};
  const SearchPlan p = halving().plan(times, 0.0);
  ASSERT_EQ(p.rounds.size(), 1u);
  EXPECT_EQ(p.rounds[0].frontier, 6);
  EXPECT_EQ(p.rounds[0].pruned, 3);
  EXPECT_EQ(p.survivors, (std::vector<std::size_t>{1, 2, 5}));
  EXPECT_EQ(p.pruned(), 3);
}

TEST(PlacementSearchPlan, KeepWidensTheFloor) {
  std::vector<double> times(16);
  for (std::size_t i = 0; i < times.size(); ++i)
    times[i] = std::pow(2.0, 15.0 - static_cast<double>(i));
  // --search-keep=5 halts the halving at 5 survivors: 16 -> 8 -> 5.
  const SearchPlan p = halving(5).plan(times, 0.01);
  ASSERT_EQ(p.rounds.size(), 2u);
  EXPECT_EQ(p.rounds[1].frontier, 8);
  EXPECT_EQ(p.rounds[1].pruned, 3);
  EXPECT_EQ(p.survivors, (std::vector<std::size_t>{11, 12, 13, 14, 15}));
  // keep >= n degenerates to the exhaustive schedule.
  const std::vector<double> four{4.0, 3.0, 2.0, 1.0};
  const SearchPlan q = halving(100).plan(four, 0.01);
  EXPECT_EQ(q.survivors, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(q.rounds.empty());
}

TEST(Harness, DegenerateMachineRaisesClassifiedCellError) {
  // A machine whose topology admits no rank x thread candidate must
  // fail the cell as a classified RuntimeError, not index an empty
  // placement vector (UB before this guard existed).
  machine::Machine m = machine::a64fx();
  m.cores_per_domain = 0;
  const Harness h(m, 42);
  auto b = triad_bench();
  b.traits.one_cmg = true;
  EXPECT_TRUE(
      h.candidate_placements(b.traits, ir::ParallelModel::OpenMP).empty());
  try {
    (void)h.run(compilers::fjtrad(), b);
    FAIL() << "expected CellError";
  } catch (const runtime::CellError& e) {
    EXPECT_EQ(e.status(), runtime::CellStatus::RuntimeError);
    EXPECT_NE(std::string(e.what()).find("no feasible placement"),
              std::string::npos)
        << e.what();
  }
}

TEST(Harness, HalvingMatchesExhaustiveAndRecordsItsSchedule) {
  // The headline guarantee at harness level: halving returns the exact
  // measurement exhaustive would (placement, best, median), and its
  // metrics describe a consistent schedule.
  auto b = triad_bench();
  b.traits.noise_cv = 0.05;
  Harness ex = make_harness();
  ex.set_placement_search({SearchMode::Exhaustive, 0});
  Harness ha = make_harness();
  ha.set_placement_search({SearchMode::Halving, 0});
  runtime::RunMetrics me;
  runtime::RunMetrics mh;
  const auto re = ex.run(compilers::fjtrad(), b, &me);
  const auto rh = ha.run(compilers::fjtrad(), b, &mh);
  ASSERT_TRUE(re.valid());
  EXPECT_EQ(re.placement, rh.placement);
  EXPECT_EQ(re.best_seconds, rh.best_seconds);
  EXPECT_EQ(re.median_seconds, rh.median_seconds);
  EXPECT_EQ(re.cv, rh.cv);
  // Exhaustive emits no search telemetry at all.
  EXPECT_TRUE(me.search_rounds.empty());
  EXPECT_EQ(me.search_survivor_trials, 0);
  EXPECT_EQ(me.search_candidates_pruned, 0);
  // Halving's counters are internally consistent: pruned sums over the
  // rounds, and every survivor got exactly 3 noisy trials.
  const auto cands =
      ha.candidate_placements(b.traits, ir::ParallelModel::OpenMP);
  int pruned = 0;
  for (const auto& r : mh.search_rounds) pruned += r.pruned;
  EXPECT_EQ(pruned, mh.search_candidates_pruned);
  EXPECT_EQ(mh.search_survivor_trials,
            3 * (static_cast<int>(cands.size()) - pruned));
  EXPECT_GT(mh.search_candidates_pruned, 0);
  if (!mh.search_rounds.empty())
    EXPECT_EQ(mh.search_rounds.front().frontier,
              static_cast<int>(cands.size()));
}

}  // namespace
