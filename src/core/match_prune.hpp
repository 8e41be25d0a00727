// match_prune.hpp — coarse-to-fine pruned hypothesis search
// (SmaConfig::search_mode == SearchMode::kPruned), the library's one
// coarse-to-fine path (the paper's Sec. 6 "adaptive hierarchical ...
// windows").
//
// The paper brute-forces all (2N_zs+1)^2 hypotheses per pixel; the
// precompute, the SIMD lanes and the pool threads make each of them
// cheap.  This layer evaluates FEWER of them: a cheap F_cont tracking
// pass on a downsampled pyramid level (imaging/pyramid.hpp) yields a
// per-pixel motion estimate; the upsampled (upsample_flow),
// median+Gaussian-smoothed, rounded winner seeds a SHRUNKEN admission
// window of half-width prune_refine_radius around it.  Pixels whose
// seed is invalid or falls outside the search area keep the full
// window — the per-pixel exact fallback.
//
// Pruning is not a sweep of its own, and it runs whenever it is asked
// for.  The one matching stage (run_matching_stage) computes the
// windows and hands them to every backend's segment visit with the
// segment (MatchSegment::windows); each visit runs the sweep full search
// runs — any model, segment height, mask or precompute setting — and
// folds into a pixel's incumbent only the hypotheses inside that pixel's
// window.  The winner predicate (hypothesis_improves) does not depend on
// the visit order, so the winner — and therefore the FlowField — is
// bit-identical across backends (maspar-sim included), thread counts,
// tile shapes, steal schedules, segment heights and precompute settings.
// The stage fills the PruneReport once, from the windows and the
// winners, so its counters are identical too (DESIGN.md §16).
//
// Pruned results are tolerance-equal, NOT bit-equal, to the kFull
// oracle: a bad seed can exclude the full-search winner from the
// shrunken window.  The golden accuracy-vs-speed curves in
// BENCH_matching.json quantify that error; `--search-mode full` remains
// the exact-verification path.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/tracker.hpp"
#include "imaging/flow.hpp"
#include "imaging/image.hpp"

namespace sma::core {

/// Pruning accounting for one tracked pair.  POD of uint64 so the obs
/// bridge's sizeof completeness guard covers it.  All hypothesis counts
/// are per (pixel, hypothesis) units.
struct PruneReport {
  std::uint64_t active = 0;  ///< 1 when pruned search ran
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

/// Upsamples a flow field to (width, height), scaling vectors by the
/// resolution ratio (displacement doubles when resolution doubles).
imaging::FlowField upsample_flow(const imaging::FlowField& flow, int width,
                                 int height);

/// Runs the coarse pyramid track as F_cont whatever the requested model
/// (through a "vector" SmaPipeline — bit-identical to "sequential" by
/// the Sec. 5.1 contract, so the seeds are deterministic no matter which
/// backend asked) and propagates its winners to full resolution:
/// upsample_flow, vector median, Gaussian, round.  Exposed for the
/// seed-in-window property tests.
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

/// The admission windows of a pruned search, one per pixel in row-major
/// order: prune_window around each pixel's coarse seed.  The seeds are
/// MatchInput::prune_seeds when attached (the shard runner's slice; its
/// dimensions must match the frames) and compute_prune_seeds on the raw
/// frames otherwise.  Throws std::invalid_argument when the input
/// carries neither (SmaPipeline always attaches the raw frames).
/// `coarse_hypotheses` receives the seeding pass's cost.
std::vector<PruneWindow> prune_windows(const MatchInput& in,
                                       const SmaConfig& config,
                                       std::uint64_t& coarse_hypotheses);

/// The report of a pruned search, from its windows and the winners
/// (row-major, like the windows) the visits found.
PruneReport prune_report(const std::vector<PruneWindow>& windows,
                         const std::vector<PixelBest>& best,
                         std::uint64_t coarse_hypotheses,
                         const SmaConfig& config);

}  // namespace sma::core
