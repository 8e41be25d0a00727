// match_prune.hpp — coarse-to-fine hypothesis search with
// branch-and-bound pruning (SmaConfig::search_mode == SearchMode::kPruned).
//
// The paper brute-forces all (2N_zs+1)^2 hypotheses per pixel; PRs 3/5/7
// made each of them cheap (precompute -> SIMD lanes -> pool threads).
// This layer evaluates FEWER of them, two ways:
//
//  1. Coarse seeding: a cheap tracking pass on a downsampled pyramid
//     level (imaging/pyramid.hpp) yields a per-pixel motion estimate;
//     the upsampled, median+Gaussian-smoothed, rounded winner
//     (core/hierarchical.hpp's upsample_flow, the same smoothing recipe
//     track_pair_hierarchical uses for its priors) seeds a SHRUNKEN fine
//     window of half-width prune_refine_radius around it.  Pixels whose
//     seed is invalid or falls outside the search area keep the full
//     window — the per-pixel exact fallback.
//
//  2. Branch-and-bound residual lower bound: the Eq. (3) residual is a
//     sum of nonnegative per-row terms (weights 1/E, 1/G > 0), so the
//     MINIMIZED residual of any row subset lower-bounds the minimized
//     full residual: min_th E_full(th) >= min_th E_prefix(th).  At the
//     half-template checkpoint (template rows v < 0 accumulated) the
//     prefix system — its hypothesis-invariant A^T A from
//     accumulate_window_span, its A^T b / b^T b from the rows already
//     swept — is solved and scored; if that bound already exceeds the
//     incumbent by more than kPruneBoundSlack, the hypothesis is
//     abandoned before the remaining rows' 18-MAC accumulation.  A
//     SINGULAR prefix system yields residual(theta = 0) = b^T b, which is
//     an UPPER bound of the prefix minimum, so singular prefixes never
//     prune (bound 0).
//
// Determinism (DESIGN.md §16): completed evaluations run the identical
// floating-point sequence as evaluate_hypothesis_precomputed, and the
// bound can only discard hypotheses that provably cannot improve the
// incumbent (strict inequality + slack, so exact ties survive); each
// pixel's incumbent evolves only within its own fixed scan order, so the
// winner — and therefore the FlowField — is bit-identical across
// backends, thread counts, tile shapes, and steal schedules.  Every host
// backend runs this one pass (run_pruned_search), so the integer
// counters are identical too; only bound_tightness_sum, a double folded
// per tile, may differ in its last bits.
//
// Pruned results are tolerance-equal, NOT bit-equal, to the kFull
// oracle: a bad seed can exclude the full-search winner from the
// shrunken window.  The golden accuracy-vs-speed curves in
// BENCH_matching.json quantify that error; `--search-mode full` remains
// the exact-verification fallback.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/match_precompute.hpp"
#include "core/tracker.hpp"
#include "imaging/image.hpp"

namespace sma::core {

/// Relative slack on every bound comparison: a hypothesis is abandoned
/// only when bound > incumbent * (1 + slack).  The margin absorbs the
/// floating-point error of the prefix solve so a true winner (or an
/// exact tie, which hypothesis_improves may prefer) can never be pruned
/// by rounding noise.
constexpr double kPruneBoundSlack = 1e-6;

/// The bounded evaluator's skip predicate.  incumbent <= 0 never
/// prunes: a zero-residual incumbent can still be displaced by an
/// equal-error hypothesis with a smaller displacement under the
/// deterministic tie-break.
inline bool prune_bound_exceeds(double bound, double incumbent) {
  return incumbent > 0.0 && bound > incumbent * (1.0 + kPruneBoundSlack);
}

/// Why the pruned path did or did not engage (mirrors PrecomputeDecision
/// for the precompute).  Reported through PruneReport::fallback_reason.
enum class PruneFallback {
  kNone = 0,        ///< pruned search engaged
  kNotRequested,    ///< search_mode == kFull
  kNoPrecompute,    ///< precompute ineligible/absent (masks, stride,
                    ///< off) — the pruned sweep rides its planes
  kSegmented,       ///< segment_rows splits the hy range; the shrunken
                    ///< window crosses segments
  kNoRawFrames,     ///< MatchInput::raw_* not attached (no pyramid)
  kTinySearch,      ///< search radius < 1: nothing to prune
  kSemiFluid,       ///< active semi-fluid remap: the coarse seeds and the
                    ///< prefix bound are F_cont-only
};

const char* prune_fallback_name(PruneFallback f);

/// The single eligibility rule, shared by every consumer (staged path,
/// vector backend) and unit-tested directly.
PruneFallback resolve_prune(const SmaConfig& config, const MatchInput& in);

/// Pruning accounting for one tracked pair.  POD of uint64/double so the
/// obs bridge's sizeof completeness guard covers it.  All hypothesis
/// counts are per (pixel, hypothesis) units.
struct PruneReport {
  std::uint64_t active = 0;           ///< 1 when the pruned sweep ran
  std::uint64_t fallback_reason = 0;  ///< PruneFallback as an integer
  /// (2N_zs+1)^2 * pixels: what the full oracle would evaluate.
  std::uint64_t full_grid_hypotheses = 0;
  /// Hypotheses spent by the coarse seeding pass (search grid plus the
  /// forced subpixel probes, at coarse resolution).
  std::uint64_t coarse_hypotheses = 0;
  /// Fine-level hypotheses admitted by the per-pixel windows (before the
  /// bound) and actually completed (after it).
  std::uint64_t fine_scheduled = 0;
  std::uint64_t fine_evaluated = 0;
  /// Half-template bound checkpoints reached / hypotheses abandoned
  /// there.
  std::uint64_t bound_checks = 0;
  std::uint64_t bound_skipped = 0;
  /// Pixels searched with a shrunken window vs full-window fallbacks.
  std::uint64_t window_pixels = 0;
  std::uint64_t fallback_pixels = 0;
  /// Shrunken-window pixels whose winner sits strictly inside every
  /// shrunken edge — the coarse-seed hit signal (a winner pinned to a
  /// shrunken edge suggests the true minimum lies outside).
  std::uint64_t seed_interior = 0;
  /// Sum over completed bound checks of min(1, bound / realized error),
  /// in hypothesis units; mean = tightness of the bound (1 = exact).
  double bound_tightness_sum = 0.0;

  /// Derived conveniences (mirrored as pruning.* gauges).
  double hypotheses_evaluated() const {
    return static_cast<double>(coarse_hypotheses + fine_scheduled);
  }
  double reduction() const {
    const double spent = hypotheses_evaluated();
    return spent > 0.0 ? static_cast<double>(full_grid_hypotheses) / spent
                       : 0.0;
  }
  double seed_hit_rate() const {
    return window_pixels > 0
               ? static_cast<double>(seed_interior) /
                     static_cast<double>(window_pixels)
               : 0.0;
  }
  double mean_bound_tightness() const {
    const std::uint64_t completed =
        bound_checks > bound_skipped ? bound_checks - bound_skipped : 0;
    return completed > 0
               ? bound_tightness_sum / static_cast<double>(completed)
               : 0.0;
  }
};

/// TrackResult::extras attachment of the sequential backend for pruned
/// runs (the vector backend carries the report inside
/// VectorBackendExtras).
struct PruneBackendExtras : BackendExtras {
  PruneReport report;
};

/// Per-pixel rounded coarse seeds at full resolution.  `ok[i] == 0`
/// marks pixels with no usable seed (invalid coarse winner, or the
/// pyramid could not downsample at all) — those search the full window.
struct PruneSeeds {
  int width = 0, height = 0;
  std::vector<int> sx, sy;
  std::vector<std::uint8_t> ok;
  std::uint64_t coarse_hypotheses = 0;

  bool valid_at(int x, int y) const {
    return width > 0 &&
           ok[static_cast<std::size_t>(y) * width + x] != 0;
  }
};

/// Runs the coarse pyramid track (through a "vector" SmaPipeline —
/// bit-identical to "sequential" by the Sec. 5.1 contract, so the seeds
/// are deterministic no matter which backend asked) and propagates its
/// winners to full resolution with the hierarchical smoothing recipe.
/// Exposed for the seed-in-window property tests.
PruneSeeds compute_prune_seeds(const imaging::ImageF& raw_before,
                               const imaging::ImageF& raw_after,
                               const SmaConfig& config);

/// The per-pixel fine search window derived from a seed: the full
/// [-nzs, nzs] box intersected with seed +/- radius, or the full box
/// when the seed is unusable.
struct PruneWindow {
  int hx_min = 0, hx_max = 0;
  int hy_min = 0, hy_max = 0;
  bool shrunk = false;
};

PruneWindow prune_window(const PruneSeeds& seeds, int x, int y, int nzs_x,
                         int nzs_y, int radius);

/// True when (hx, hy) avoids every edge of `win` that was actually
/// shrunk below the full search box — the seed-hit predicate.
bool prune_winner_interior(const PruneWindow& win, int nzs_x, int nzs_y,
                           int hx, int hy);

/// evaluate_hypothesis_precomputed with the half-template bound
/// checkpoint: identical floating-point sequence for completed
/// evaluations; when `has_incumbent` and the prefix bound exceeds the
/// incumbent (prune_bound_exceeds), returns +inf with `skipped_out`
/// set before touching the v >= 0 template rows.  `win_prefix` must be
/// accumulate_window_span(x, y, rx, -ry, -1) and ry >= 1.  `bound_out`
/// (optional) receives the computed bound — exposed for the bound-
/// validity property tests.
double evaluate_hypothesis_bounded(
    const MatchPrecompute& pre, const surface::GeometricField& after,
    const WindowInvariants& win, const WindowInvariants& win_prefix, int x,
    int y, int hx, int hy, int rx, int ry, double incumbent,
    bool has_incumbent, MotionParams& params_out, bool& ok_out,
    bool& skipped_out, double* bound_out = nullptr);

/// The pruned pass of every host backend (run_hypothesis_search's
/// pruned branch): the coarse seed pass, then per-pixel windows +
/// per-hypothesis bound over pixel_tiles with per-tile counters folded
/// in tile-index order.  Its span and its timings.hypothesis_matching
/// time cover the seed pass.  Callers gate with resolve_prune(config,
/// in) == kNone.
std::vector<PixelBest> run_pruned_search(const MatchInput& in,
                                         const SmaConfig& config,
                                         bool parallel,
                                         TrackTimings& timings,
                                         PruneReport* report);

}  // namespace sma::core
