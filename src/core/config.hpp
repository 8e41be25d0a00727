// config.hpp — SMA algorithm configuration and the paper's named presets.
//
// All neighborhood sizes follow the paper's notation (Secs. 2.2-2.3,
// Tables 1 and 3).  Radii are half-widths: a radius N denotes a
// (2N+1) x (2N+1) square window.
//
//   surface_fit_radius       N_z   "Surface-fitting" window (Table 1: 5x5)
//   z_search_radius          N_zs  hypothesis/search area (Table 1: 13x13)
//   z_template_radius        N_zT  z-template (Table 1: 121x121)
//   semifluid_search_radius  N_ss  per-template-pixel search (Sec. 3: 3x3)
//   semifluid_template_radius N_sT semi-fluid template (Table 1: 5x5)
//
// Setting N_ss = 0 reduces the semi-fluid mapping F_semi to the continuous
// mapping F_cont (Sec. 2.3), which is also what MotionModel::kContinuous
// selects directly.
#pragma once

#include <stdexcept>
#include <string>

namespace sma::core {

/// Largest N_ss the semi-fluid model accepts: the correspondence table
/// (semifluid.hpp) stores the winner's index in the (2N_ss+1)^2 window
/// as one byte.
inline constexpr int kMaxSemiFluidSearchRadius = 7;

enum class MotionModel {
  kContinuous,  ///< F_cont: locally affine continuous deformation (Eq. 2)
  kSemiFluid,   ///< F_semi: per-pixel fragmented correspondences (Eq. 9)
};

/// Hypothesis-invariant matching precompute (match_precompute.hpp): the
/// per-pixel weighted design rows and A^T A tiles of the 6x6 normal
/// equations are built once per before frame instead of once per
/// (pixel, hypothesis).  Bit-identical to the naive path where eligible
/// (no masks; F_semi included); ineligible configs fall back to naive
/// regardless of the mode.
enum class PrecomputeMode {
  kOn,   ///< engage whenever eligible
  kOff,  ///< always run the naive oracle path
};

/// Hypothesis-search strategy (match_prune.hpp).  kFull is the paper's
/// exhaustive (2N_zs+1)^2 sweep and the exact-verification oracle.
/// kPruned seeds each pixel from a coarse pyramid track and admits only
/// the hypotheses inside a shrunken window around the upsampled coarse
/// winner, on the same sweep full search runs.  Pruned results are
/// bit-identical across backends / thread counts / tile shapes, and
/// tolerance-equal (not bit-equal) to kFull.
enum class SearchMode {
  kFull,    ///< exhaustive search (the default, and the oracle)
  kPruned,  ///< coarse-to-fine seeding + per-pixel admission windows
};

struct SmaConfig {
  MotionModel model = MotionModel::kSemiFluid;

  int surface_fit_radius = 2;        ///< N_z
  int z_search_radius = 6;           ///< N_zs
  int z_template_radius = 60;        ///< N_zT
  int semifluid_search_radius = 1;   ///< N_ss
  int semifluid_template_radius = 2; ///< N_sT

  /// Rectangular windows (Sec. 2.2: "rectangular areas can also be used
  /// and may lead to improved motion correspondence results").  A value
  /// of -1 keeps the window square (the y radius equals the x radius
  /// above); otherwise these override the VERTICAL half-widths.
  int z_search_radius_y = -1;
  int z_template_radius_y = -1;

  /// Hypothesis-row segment height Z (Sec. 4.3).  0 means unsegmented,
  /// i.e. Z = 2*N_zs + 1 — the whole search area in one chunk, as in the
  /// paper's Table 2 run ("the template mapping data was not segmented
  /// during this run i.e. Z = 2N_zs + 1").
  int segment_rows = 0;

  /// Sec. 4.1 optimization: precompute the semi-fluid matching cost for
  /// the whole (2N_zs + 2N_ss + 1)^2 extended window and share it across
  /// hypotheses, instead of recomputing per hypothesis.  The precompute
  /// fast path always reads the per-pair correspondence table
  /// (semifluid.hpp); false matters only with the precompute off, where
  /// it skips the table and remaps every template pixel on the fly (the
  /// naive oracle).  Both are exact.
  bool use_precomputed_mapping = true;

  /// Hypothesis-invariant normal-equation precompute (see PrecomputeMode
  /// and match_precompute.hpp).  Distinct from use_precomputed_mapping,
  /// which is the Sec. 4.1 semi-fluid COST precompute.
  PrecomputeMode precompute = PrecomputeMode::kOn;

  /// Executor cap for the tiled scheduler (sched/scheduler.hpp): how
  /// many pool workers may serve THIS run's tile batches.  0 = the
  /// whole shared pool (whose width is SMA_THREADS or the hardware
  /// count).  The cap throttles one run below the pool width — the
  /// pool itself is the process-wide budget shared with sma_serve.
  int threads = 0;

  /// Tile shape for the scheduler's cache-blocked pixel tiles.  0 =
  /// autotuned via sched::choose_tile_shape (≈32x32, shrunk until every
  /// executor has stealable slack).  Results are bit-identical for ANY
  /// tile shape; this is a performance knob only.
  int tile_width = 0;
  int tile_height = 0;

  /// Hypothesis-search strategy (see SearchMode).  kPruned runs for every
  /// model, segment height, mask and precompute setting, and reports
  /// through the pruning.* metrics.
  SearchMode search_mode = SearchMode::kFull;

  /// Pyramid depth of the pruned mode's coarse seeding pass: the number
  /// of half-resolution levels below full resolution (1 = seed at half
  /// resolution).  Construction stops early on tiny images.
  int prune_coarse_levels = 1;

  /// Half-width of the pruned mode's shrunken fine search window around
  /// the upsampled coarse winner.  0 trusts the seed outright (plus the
  /// subpixel probes); larger values trade speed for recovery from bad
  /// seeds.  Pixels whose seed is invalid or outside the search area
  /// fall back to the full window.
  int prune_refine_radius = 1;

  /// Resident-memory budget in MiB for the out-of-core shard stream
  /// (src/shard/): bounds the LRU tile-block cache plus the working
  /// crops of the tile being tracked.  0 (default) = unlimited — the
  /// whole-frame paths never consult it.  The shard planner rejects
  /// budgets too small to hold even a single padded tile.
  int max_resident_mb = 0;

  /// Effective vertical radii (fall back to the square value).
  int z_search_ry() const {
    return z_search_radius_y >= 0 ? z_search_radius_y : z_search_radius;
  }
  int z_template_ry() const {
    return z_template_radius_y >= 0 ? z_template_radius_y : z_template_radius;
  }

  /// Window edge helpers (horizontal edge; vertical uses the *_y radii).
  int z_search_size() const { return 2 * z_search_radius + 1; }
  int z_search_size_y() const { return 2 * z_search_ry() + 1; }
  int z_template_size() const { return 2 * z_template_radius + 1; }
  int z_template_size_y() const { return 2 * z_template_ry() + 1; }
  int semifluid_search_size() const { return 2 * semifluid_search_radius + 1; }
  int semifluid_template_size() const {
    return 2 * semifluid_template_radius + 1;
  }
  int surface_fit_size() const { return 2 * surface_fit_radius + 1; }

  /// Effective semi-fluid search radius: 0 under the continuous model.
  int effective_nss() const {
    return model == MotionModel::kSemiFluid ? semifluid_search_radius : 0;
  }

  /// Effective segment height in hypothesis rows (the search area has
  /// z_search_size_y() rows to chunk over).
  int effective_segment_rows() const {
    return segment_rows > 0 ? segment_rows : z_search_size_y();
  }

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const {
    if (surface_fit_radius < 1)
      throw std::invalid_argument("SmaConfig: surface_fit_radius >= 1 required");
    if (z_search_radius < 0)
      throw std::invalid_argument("SmaConfig: z_search_radius >= 0 required");
    if (z_template_radius < 0)
      throw std::invalid_argument("SmaConfig: z_template_radius >= 0 required");
    if (semifluid_search_radius < 0 || semifluid_template_radius < 0)
      throw std::invalid_argument("SmaConfig: semi-fluid radii >= 0 required");
    if (model == MotionModel::kSemiFluid &&
        semifluid_search_radius > kMaxSemiFluidSearchRadius)
      throw std::invalid_argument("SmaConfig: semifluid_search_radius <= 7 "
                                  "required");
    if (z_search_radius_y < -1 || z_template_radius_y < -1)
      throw std::invalid_argument("SmaConfig: rectangular radii >= -1 required");
    if (segment_rows < 0 || segment_rows > z_search_size_y())
      throw std::invalid_argument("SmaConfig: segment_rows out of range");
    if (threads < 0)
      throw std::invalid_argument("SmaConfig: threads >= 0 required");
    if (tile_width < 0 || tile_height < 0)
      throw std::invalid_argument("SmaConfig: tile sizes >= 0 required");
    if (prune_coarse_levels < 1)
      throw std::invalid_argument(
          "SmaConfig: prune_coarse_levels >= 1 required");
    if (prune_refine_radius < 0)
      throw std::invalid_argument(
          "SmaConfig: prune_refine_radius >= 0 required");
    if (max_resident_mb < 0)
      throw std::invalid_argument(
          "SmaConfig: max_resident_mb >= 0 required");
  }

  std::string describe() const;
};

/// Table 1 — Hurricane Frederic stereo sequence (512x512, semi-fluid):
/// surface fit 5x5, z-search 13x13, z-template 121x121, semi-fluid
/// template 5x5, semi-fluid search 3x3.
SmaConfig frederic_config();

/// Table 3 — GOES-9 Florida thunderstorm (512x512, continuous):
/// search 15x15, template 15x15, surface patch 5x5.
SmaConfig goes9_config();

/// Sec. 5 — Hurricane Luis rapid scan (continuous): z-template 11x11,
/// z-search 9x9, 490 frames.
SmaConfig luis_config();

/// Shape-preserving scaled-down variants used by tests and benches (the
/// full configs are ~10^5 PE-seconds; see DESIGN.md "Scaled-size policy").
SmaConfig frederic_scaled_config();
SmaConfig goes9_scaled_config();
SmaConfig luis_scaled_config();

}  // namespace sma::core
