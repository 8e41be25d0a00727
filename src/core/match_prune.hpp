// match_prune.hpp — coarse-to-fine pruned hypothesis search
// (SmaConfig::search_mode == SearchMode::kPruned).
//
// The paper brute-forces all (2N_zs+1)^2 hypotheses per pixel; the
// precompute, the SIMD lanes and the pool threads make each of them
// cheap.  This layer evaluates FEWER of them: a cheap tracking pass on a
// downsampled pyramid level (imaging/pyramid.hpp) yields a per-pixel
// motion estimate; the upsampled, median+Gaussian-smoothed, rounded
// winner (core/hierarchical.hpp's upsample_flow, the same smoothing
// recipe track_pair_hierarchical uses for its priors) seeds a SHRUNKEN
// admission window of half-width prune_refine_radius around it.  Pixels
// whose seed is invalid or falls outside the search area keep the full
// window — the per-pixel exact fallback.
//
// Pruning is not a sweep of its own.  The one matching stage
// (run_matching_stage) computes the windows and hands them to every
// backend's segment visit with the segment (MatchSegment::windows); each
// visit runs the sweep full search runs and folds into a pixel's
// incumbent only the hypotheses inside that pixel's window.  The winner
// predicate (hypothesis_improves) does not depend on the visit order, so
// the winner — and therefore the FlowField — is bit-identical across
// backends (maspar-sim included), thread counts, tile shapes and steal
// schedules.  The stage fills the PruneReport once, from the windows and
// the winners, so its counters are identical too (DESIGN.md §16).
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
#include "core/tracker.hpp"
#include "imaging/image.hpp"

namespace sma::core {

/// Why the pruned path did or did not engage (mirrors PrecomputeDecision
/// for the precompute).  Reported through PruneReport::fallback_reason.
enum class PruneFallback {
  kNone = 0,        ///< pruned search engaged
  kNotRequested,    ///< search_mode == kFull
  kNoPrecompute,    ///< precompute ineligible/absent (masks, off) —
                    ///< pruned search rides its planes
  kSegmented,       ///< segment_rows splits the hy range; the shrunken
                    ///< window crosses segments
  kNoRawFrames,     ///< MatchInput::raw_* not attached (no pyramid)
  kTinySearch,      ///< search radius < 1: nothing to prune
  kSemiFluid,       ///< active semi-fluid remap: the coarse seeds are
                    ///< F_cont-only
};

const char* prune_fallback_name(PruneFallback f);

/// The config-only part of the eligibility rule: the first reason the
/// config alone rules pruning out (kNoPrecompute for precompute off),
/// kNone when only the input could.  The shard runner
/// asks it whether tiles need whole-frame seeds.
PruneFallback resolve_prune_config(const SmaConfig& config);

/// The single eligibility rule, consulted by the one matching stage
/// (run_matching_stage) for every backend and unit-tested directly:
/// resolve_prune_config plus the input's gates (attached planes, masks,
/// raw frames), reasons reported in a fixed order.
PruneFallback resolve_prune(const SmaConfig& config, const MatchInput& in);

/// Pruning accounting for one tracked pair.  POD of uint64 so the obs
/// bridge's sizeof completeness guard covers it.  All hypothesis counts
/// are per (pixel, hypothesis) units.
struct PruneReport {
  std::uint64_t active = 0;           ///< 1 when pruned search engaged
  std::uint64_t fallback_reason = 0;  ///< PruneFallback as an integer
  /// (2N_zs+1)^2 * pixels: what the full oracle would evaluate.
  std::uint64_t full_grid_hypotheses = 0;
  /// Hypotheses spent by the coarse seeding pass (search grid plus the
  /// forced subpixel probes, at coarse resolution).
  std::uint64_t coarse_hypotheses = 0;
  /// Fine-level hypotheses admitted by the per-pixel windows.
  std::uint64_t fine_scheduled = 0;
  /// Always 0: pruned search has no residual bound.  Kept only because
  /// the end-to-end benchmark still reads them.
  std::uint64_t bound_checks = 0;
  std::uint64_t bound_skipped = 0;
  /// Pixels searched with a shrunken window vs full-window fallbacks.
  std::uint64_t window_pixels = 0;
  std::uint64_t fallback_pixels = 0;
  /// Shrunken-window pixels whose winner sits strictly inside every
  /// shrunken edge — the coarse-seed hit signal (a winner pinned to a
  /// shrunken edge suggests the true minimum lies outside).
  std::uint64_t seed_interior = 0;

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
};

/// TrackResult::extras attachment of the sequential backend for pruned
/// runs (the vector and maspar-sim backends carry the report inside
/// their own extras, as `prune`).
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

/// The admission windows of an engaged pruned search, one per pixel in
/// row-major order: prune_window around each pixel's coarse seed.  The
/// seeds are MatchInput::prune_seeds when attached (the shard runner's
/// slice; its dimensions must match the frames) and compute_prune_seeds
/// on the raw frames otherwise.  `coarse_hypotheses` receives the
/// seeding pass's cost.  Callers gate with resolve_prune(config, in) ==
/// kNone.
std::vector<PruneWindow> prune_windows(const MatchInput& in,
                                       const SmaConfig& config,
                                       std::uint64_t& coarse_hypotheses);

/// The report of an engaged pruned search, from its windows and the
/// winners (row-major, like the windows) the visits found.
PruneReport prune_report(const std::vector<PruneWindow>& windows,
                         const std::vector<PixelBest>& best,
                         std::uint64_t coarse_hypotheses,
                         const SmaConfig& config);

}  // namespace sma::core
