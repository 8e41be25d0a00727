// tracker.hpp — dense semi-fluid / continuous motion tracking.
//
// The top-level SMA entry points.  Given intensity images (and optionally
// surface maps from the ASA stereo stage) at two time steps, the tracker
// estimates a dense non-rigid motion field: for every pixel, every
// hypothesis in the (2N_zs+1)^2 search area is evaluated by establishing a
// template mapping (F_cont or F_semi), solving the 6x6 motion-parameter
// system and scoring the Eq. (3) residual; the minimum-error hypothesis
// wins (Eq. 7).
//
// A pair is tracked by SmaPipeline (core/pipeline.hpp), which runs the
// per-frame stages and hands matching to a registered TrackerBackend
// (core/backend.hpp).  Every backend's match() calls the one matching
// stage below (run_matching_stage) and supplies only how one segment's
// pixels are visited:
//  * "sequential" — inline staged tiles (scan_segment); the paper's
//    "sequential (un-optimized) version ... used to form a baseline for
//    comparing the correctness of the parallel algorithm results"
//    (Sec. 4).
//  * "vector"     — cache-blocked pixel tiles on the shared
//    work-stealing pool (sched/scheduler.hpp), SIMD lanes over each
//    tile's pixels (core/match_vector.hpp) where the lane kernel serves
//    the config and the staged tiles elsewhere; bit-identical output on
//    every lane ISA.
//  * "maspar-sim" — the MasPar SIMD executor (maspar/backend.hpp)
//    visiting pixels in MP-2 memory-layer order.
//
// Timing is reported in the paper's Table 2 / Table 4 phase buckets:
// surface fit, compute geometric variables, semi-fluid mapping and
// hypothesis matching.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/continuous_model.hpp"
#include "core/semifluid.hpp"
#include "imaging/flow.hpp"
#include "imaging/image.hpp"
#include "sched/tile.hpp"
#include "surface/geometry.hpp"

namespace sma::core {

struct PruneSeeds;  // fwd (match_prune.hpp)

/// Base class for backend-specific result attachments (the "extras"
/// channel).  A TrackerBackend may hang substrate-specific reports off
/// TrackResult::extras — e.g. the MasPar adapter attaches its full
/// SimdRunReport (modeled MP-2 wall-clock, PE memory, mesh traffic) —
/// without the core layer depending on that backend.  Consumers
/// dynamic_cast to the concrete type they know about.
struct BackendExtras {
  virtual ~BackendExtras() = default;
};

struct TrackOptions {
  bool keep_params = false;  ///< retain the six motion parameters per pixel
  /// Parabolic sub-pixel refinement of the winning hypothesis: after the
  /// integer search, the Eq. (3) residuals of the four axis neighbors of
  /// the winner are fitted with 1-D parabolas and the flow vector moves
  /// to the analytic minimum (clamped to +/- 0.5 px).  The same
  /// peak-interpolation ASA applies to its correlation surface
  /// (Sec. 2.1), here as a motion-field extension.
  bool subpixel = false;
};

/// Phase timings in seconds, matching the paper's Table 2 / 4 rows.
/// `match_precompute` is this reproduction's analogue of the paper's
/// "geometric variables are precomputed" step on the MP-2 (Sec. 3): the
/// one-off cost of building the hypothesis-invariant matching planes.
struct TrackTimings {
  double surface_fit = 0.0;
  double geometric_vars = 0.0;
  double match_precompute = 0.0;
  double semifluid_mapping = 0.0;
  double hypothesis_matching = 0.0;
  double total = 0.0;
};

/// Dense per-pixel motion parameters (optional output).
struct ParamsField {
  imaging::ImageF ai, bi, aj, bj, ak, bk;
};

struct TrackResult {
  imaging::FlowField flow;
  TrackTimings timings;
  std::optional<ParamsField> params;
  /// Peak bytes held by the semi-fluid mapping (whole image): the
  /// rolling cost-layer bands resident at once plus the segment's
  /// correspondence table; feeds the Sec. 4.3 PE-memory accounting in
  /// the benches.
  std::size_t peak_mapping_bytes = 0;
  /// Backend-specific attachments (null for full-search "sequential"
  /// runs).  See BackendExtras; shared so TrackResult stays cheaply
  /// copyable.
  std::shared_ptr<const BackendExtras> extras;
};

/// Inputs to one tracking step.  In stereo mode `surface_*` are the
/// cloud-top height maps z(t) from the ASA stage and `intensity_*` the
/// (left) intensity images used by the semi-fluid discriminant.  In
/// monocular mode "the intensity data [is treated] as a digital surface"
/// (Sec. 2): pass the same image for both.
struct TrackerInput {
  const imaging::ImageF* intensity_before = nullptr;
  const imaging::ImageF* intensity_after = nullptr;
  const imaging::ImageF* surface_before = nullptr;
  const imaging::ImageF* surface_after = nullptr;
  /// Optional per-pixel validity masks from the repair layer
  /// (imaging/repair.hpp): nonzero = trustworthy.  Masked template
  /// pixels are excluded from the 6x6 systems exactly like F_semi drops
  /// discontinuous pixels; a hypothesis whose template is entirely
  /// masked scores infinite error; the output FlowField's confidence
  /// channel reports the winning template's unmasked fraction.  Null
  /// masks (the default) leave the tracker bit-identical to the
  /// mask-free pipeline.
  const imaging::ImageU8* validity_before = nullptr;
  const imaging::ImageU8* validity_after = nullptr;
  /// Optional externally computed pruned-mode seed field (match_prune.hpp),
  /// sized like the input frames.  The shard runner (src/shard/) computes
  /// seeds ONCE on the full frames and slices the per-tile crop through
  /// this hook, because the coarse pyramid pass is a whole-frame product
  /// — its decimation grid and upsample ratios depend on the full frame
  /// dimensions, so per-tile recomputation could not be bit-identical.
  /// Null (the default) lets the pruned search compute its own seeds.
  const PruneSeeds* prune_seeds = nullptr;
};

/// Evaluates all hypotheses for a single pixel given precomputed geometry
/// and (for the semi-fluid model) discriminant images.  Exposed so the
/// MasPar executor can drive the identical kernel per memory layer.
///
/// The reported motion vector is the *center pixel's correspondence*
/// under the winning hypothesis: (hx, hy) for F_cont, and the semi-fluid
/// refinement (ux, uy) of the center pixel for F_semi — Eq. (9) defines
/// the estimated correspondences per pixel, and under F_semi hypotheses
/// within N_ss of the truth are near-ties whose center refinement all
/// point at the same true correspondent.
struct PixelBest {
  int hx = 0, hy = 0;    ///< winning search hypothesis
  int ux = 0, uy = 0;    ///< center-pixel correspondence (the flow vector)
  float sub_u = 0.0f, sub_v = 0.0f;  ///< parabolic sub-pixel offsets
  double error = 0.0;
  MotionParams params;
  bool any_ok = false;
  /// True when the winning hypothesis produced a non-singular 6x6
  /// system.  A singular winner means the patch carries no geometric
  /// information (flat/textureless); such pixels are reported invalid.
  bool solved = false;
  /// Fraction of the winning hypothesis's template pixels that were
  /// unmasked (1.0 without validity masks) — the confidence channel.
  double coverage = 1.0;

  /// Makes hypothesis (hx, hy), with center-pixel flow vector (ux, uy),
  /// the incumbent — the one update of every search path, after
  /// hypothesis_improves accepted it.  Out of line: the per-ISA lane
  /// kernels call it too (DESIGN.md §13).
  void take(int hx, int hy, int ux, int uy, double error,
            const MotionParams& params, bool ok, double coverage = 1.0);
};

class MatchPrecompute;  // fwd (match_precompute.hpp)

// ---------------------------------------------------------------------------
// The matching stage.
//
// SmaPipeline runs the per-frame stages (surface fit, geometric
// variables, match precompute) once per frame, and every backend's
// match() calls run_matching_stage below, which differs between
// backends only in how one segment's pixels are visited — so all
// substrates share the exact per-pixel arithmetic, the paper's
// bit-identical-across-substrates contract (Sec. 5.1).
// ---------------------------------------------------------------------------

/// Precomputed inputs to the matching stages: geometry of both frames,
/// the semi-fluid discriminants (null for the continuous model) and the
/// optional validity masks.  The pointed-to data must outlive the call.
struct MatchInput {
  const surface::GeometricField* before = nullptr;
  const surface::GeometricField* after = nullptr;
  const imaging::ImageF* disc_before = nullptr;
  const imaging::ImageF* disc_after = nullptr;
  const imaging::ImageU8* mask_before = nullptr;
  const imaging::ImageU8* mask_after = nullptr;
  /// Optional hypothesis-invariant precompute of `before`
  /// (match_precompute.hpp), attached by SmaPipeline, which caches it
  /// alongside the geometry.  Consumers
  /// re-check resolve_precompute before using it; when null — or when
  /// masks / stride make it ineligible — the matching stages run the
  /// naive oracle path.
  const MatchPrecompute* precompute = nullptr;
  /// The raw z-surface frames the geometry was derived from, attached by
  /// SmaPipeline so the pruned search mode
  /// (match_prune.hpp) can build its coarse seeding pyramid.  Optional:
  /// when null, SearchMode::kPruned falls back to the full search.
  const imaging::ImageF* raw_before = nullptr;
  const imaging::ImageF* raw_after = nullptr;
  /// Optional externally computed seed field forwarded from
  /// TrackerInput::prune_seeds (dims must equal the frame dims); the
  /// pruned search uses it instead of running its own coarse pass.
  const PruneSeeds* prune_seeds = nullptr;

  int width() const { return before != nullptr ? before->width() : 0; }
  int height() const { return before != nullptr ? before->height() : 0; }
};

struct PruneReport;  // fwd (match_prune.hpp)

/// The pixel-tile policy of every host matching pass (staged search,
/// pruned search, sub-pixel refinement, the vector tile kernel).  Not
/// `parallel`: one tile spanning the frame.  Otherwise
/// SmaConfig::tile_width x tile_height when either is set (32 for the
/// unset side), else sched::choose_tile_shape for the run's executors
/// (SmaConfig::threads capped at the shared pool's width) with the
/// width rounded up to whole `lane_batch`-wide batches.  Tiles write
/// only their own pixels, so results are bit-identical for any shape.
std::vector<sched::Tile> pixel_tiles(int w, int h, const SmaConfig& config,
                                     bool parallel, int lane_batch = 1);

/// Runs fn(tile, index) over `tiles`: on the shared pool, capped at
/// SmaConfig::threads executors, when `parallel`; else inline in order.
void run_pixel_tiles(
    const std::vector<sched::Tile>& tiles, const SmaConfig& config,
    bool parallel,
    const std::function<void(const sched::Tile&, std::size_t)>& fn);

/// One hypothesis-row segment of the full search, as the matching stage
/// hands it to a backend's pixel visit.
struct MatchSegment {
  int hy_min = 0, hy_max = 0;  ///< hypothesis rows to scan (all hx)
  /// The segment's F_semi correspondence table; null for F_cont and for
  /// the on-the-fly semi-fluid oracle.
  const SemiFluidTable* table = nullptr;
  /// The precompute planes when resolve_precompute admits them; null
  /// selects the naive oracle.
  const MatchPrecompute* pre = nullptr;
  PixelBest* best = nullptr;  ///< the frame's row-major incumbents
};

/// How a backend visits one segment's pixels: fold hypotheses
/// [hy_min, hy_max] of every pixel into its incumbent.
using SegmentVisit = std::function<void(const MatchSegment&)>;

/// The matching stage every backend's match() calls: the "Semi-fluid
/// mapping" + "Hypothesis matching" phases, the optional sub-pixel
/// refinement and the products.  It owns the pruned branch (when
/// resolve_prune engages, the shared run_pruned_search replaces the
/// visit), the precompute gating and the Sec. 4.3 segment loop: F_semi
/// walks hypothesis rows in SmaConfig::effective_segment_rows() chunks,
/// each behind its own correspondence table (built here, timed as
/// semi-fluid mapping, raising peak_mapping_bytes); F_cont has no table
/// and sweeps once.  Each segment goes to `visit` inside a
/// "match"/"hypothesis_search" span and the matching timer.  `prune`,
/// when non-null, receives the pruning accounting (fallback reason
/// included).  Fills the matching-phase timings and timings.total.
TrackResult run_matching_stage(const MatchInput& in, const SmaConfig& config,
                               const TrackOptions& options, bool parallel,
                               const SegmentVisit& visit,
                               PruneReport* prune = nullptr);

/// The staged visit: scan_hypotheses for every pixel of the segment over
/// pixel_tiles — inline when not `parallel` (the sequential baseline),
/// on the pool otherwise (the vector backend's fallback).
void scan_segment(const MatchInput& in, const SmaConfig& config,
                  bool parallel, const MatchSegment& seg);

/// Shared input validation (shape / finiteness / mask checks); throws
/// std::invalid_argument with the given context prefix.
void validate_tracker_input(const TrackerInput& input, const char* context);

/// The naive oracle: evaluates ONE hypothesis (hx, hy) at pixel (x, y)
/// straight from the geometry — builds the template mapping (continuous
/// or semi-fluid — from `table` when non-null, else by direct
/// minimization), solves the 6x6 system and returns the Eq. (3)
/// residual.  The search and the sub-pixel refinement use it wherever
/// the precompute is ineligible, and the precomputed evaluator and the
/// lane kernel are tested bit-identical against it.  Template pixels
/// that a validity mask marks untrustworthy are skipped (exactly like
/// F_semi drops discontinuous pixels); `coverage_out`, when non-null,
/// receives the unmasked fraction of the template.  A fully masked
/// template returns infinite error.
double evaluate_pixel_hypothesis(const surface::GeometricField& before,
                                 const surface::GeometricField& after,
                                 const imaging::ImageF* disc_before,
                                 const imaging::ImageF* disc_after,
                                 const SemiFluidTable* table, int x, int y,
                                 int hx, int hy,
                                 const SmaConfig& config,
                                 MotionParams& params_out, bool& ok_out,
                                 const imaging::ImageU8* mask_before = nullptr,
                                 const imaging::ImageU8* mask_after = nullptr,
                                 double* coverage_out = nullptr);

/// The shared winner predicate (Eq. 7 argmin with deterministic ties):
/// prefer strictly smaller error; on exact ties prefer the smaller
/// displacement |hx|+|hy|, then raster order.  Independent of hypothesis
/// visit order, which is what lets every backend — including the
/// lane-batched vector kernel — evaluate the search in its own schedule
/// and still converge on the same winner.
bool hypothesis_improves(const PixelBest& best, double error, int hx, int hy);

/// Scans hypothesis rows [hy_min, hy_max] for pixel (x, y), refining
/// `best` in place.  `table` is the segment's semi-fluid correspondence
/// table, or null for the continuous model and the on-the-fly semi-fluid
/// oracle.  `mask_before` / `mask_after` are optional validity masks
/// (see TrackerInput); null masks reproduce the unmasked pipeline bit for
/// bit.  One hypothesis loop: the precomputed evaluator when `pre` is
/// non-null (callers gate it with resolve_precompute; F_semi takes it
/// only with a table), the naive oracle otherwise — bit-identical.
void scan_hypotheses(const surface::GeometricField& before,
                     const surface::GeometricField& after,
                     const imaging::ImageF* disc_before,
                     const imaging::ImageF* disc_after,
                     const SemiFluidTable* table, int x, int y,
                     int hy_min, int hy_max, const SmaConfig& config,
                     PixelBest& best,
                     const imaging::ImageU8* mask_before = nullptr,
                     const imaging::ImageU8* mask_after = nullptr,
                     const MatchPrecompute* pre = nullptr);

}  // namespace sma::core
