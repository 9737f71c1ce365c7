#pragma once
// Guided placement search: successive halving over model estimates.
//
// The exhaustive explore phase runs 3 noisy trials for every candidate
// placement of a cell — 3N draws for a list of N.  The noise-free model
// scores (one detail-less evaluate_sweep batch, PR 9) already rank the
// candidates; PlacementSearch turns that ranking into a pruning
// schedule so only a small frontier of survivors receives the noisy
// trials, while the chosen placement — and therefore the study table —
// stays byte-identical to the exhaustive sweep.
//
// The schedule is successive halving clipped by a noise head-room band:
//
//   1. Rank all N candidates by (model time, original index) ascending.
//   2. The *band* is every candidate whose model time is within
//      exp(kBandSigmas * sigma) of the minimum, where sigma is the
//      lognormal noise parameter of the benchmark's trait CV
//      (sigma = sqrt(log1p(cv^2)), the exact value noise_sample uses).
//      Band members are unprunable: multiplicative noise of the
//      observed magnitude can still reorder them, so they must all be
//      measured.  (Across every current suite x compiler x {4 scales,
//      20 seeds} the exhaustively-chosen placement sits at most 3.42
//      sigma above the frontier minimum; the band keeps 10.)
//   3. Halving rounds: the frontier is repeatedly cut to
//      max(keep-floor, band size, ceil(frontier/2)) until a round can
//      no longer prune.  The keep floor derives from the list size
//      (max(2, ceil(N/8))) unless --search-keep pins it higher.
//
// Survivors are reported in ascending *original* index order.  That
// ordering is the whole identity argument: the explore loop draws each
// survivor's trials from the same `base ^ (pi * 8191 + trial)` streams
// the exhaustive loop would use (noise_sample is a pure single-draw
// function of (seed, stream), never a shared sequence), so the survivor
// trials are literally a subsequence of the exhaustive loop's draws.
// As long as the exhaustive winner is a survivor — the band guarantee —
// the strict-< minimum over that subsequence is attained at the same
// (placement, trial) as over the full sequence, and best_p/t_best come
// out bit-identical.  Everything here is a pure function of
// (times, cv, options): no wall-clock, no scheduling, no RNG.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace a64fxcc::runtime {

/// Explore-phase placement selection strategy (`--placement-search=`).
enum class SearchMode : std::uint8_t {
  Exhaustive,  ///< 3 noisy trials for every candidate (the paper's loop)
  Halving,     ///< noisy trials only for the halving survivors
};

/// Parse "exhaustive"/"halving"; nullopt on anything else (strict CLI
/// contract — a typo must reject, never fall back silently).
[[nodiscard]] std::optional<SearchMode> parse_search_mode(
    const std::string& s);

[[nodiscard]] const char* to_string(SearchMode m) noexcept;

/// One halving round: how many candidates entered it and how many its
/// cut removed.  Feeds the search:round spans, the search_round_frontier
/// histogram, and the search_candidates_pruned counter.
struct SearchRound {
  int frontier = 0;  ///< candidates entering the round
  int pruned = 0;    ///< candidates the round's cut removed (> 0)
};

/// The deterministic pruning schedule for one candidate list.
struct SearchPlan {
  /// Indices into the original candidate list that must receive the
  /// noisy trials, ascending — the subsequence order the identity
  /// argument above relies on.  Equals {0..N-1} when nothing prunes.
  std::vector<std::size_t> survivors;
  /// The halving rounds that produced the frontier (empty when nothing
  /// could be pruned: flat landscapes, tiny lists, exhaustive mode).
  std::vector<SearchRound> rounds;

  [[nodiscard]] int pruned() const noexcept {
    int n = 0;
    for (const auto& r : rounds) n += r.pruned;
    return n;
  }
};

class PlacementSearch {
 public:
  /// Sigmas of lognormal head room the band keeps.  The empirical
  /// requirement over every current suite is 3.42; 10 leaves a wide
  /// margin (a pruned candidate would need a >7-sigma pair of draws to
  /// beat a survivor) while still pruning ~3.5x of all candidates.
  static constexpr double kBandSigmas = 10.0;

  struct Options {
    SearchMode mode = SearchMode::Exhaustive;
    /// Frontier floor (`--search-keep=K`); 0 derives max(2, ceil(N/8))
    /// from the list size.  The floor only ever *widens* the frontier —
    /// the noise band is never cut below, so identity cannot be traded
    /// away by a small K.
    int keep = 0;
  };

  PlacementSearch() = default;
  explicit PlacementSearch(Options opt) : opt_(opt) {}

  /// The pruning schedule for one cell's candidate list.  `times` are
  /// the noise-free model times in candidate order (library-fraction
  /// adjusted, exactly what the explore trials perturb); `noise_cv` is
  /// the benchmark's trait CV.  Pure and deterministic.  Exhaustive
  /// mode, lists shorter than 2, and non-finite scores (a defensive
  /// guard — valid cells always score finite) return the keep-all plan.
  [[nodiscard]] SearchPlan plan(std::span<const double> times,
                                double noise_cv) const;

  [[nodiscard]] const Options& options() const noexcept { return opt_; }

 private:
  Options opt_;
};

}  // namespace a64fxcc::runtime
