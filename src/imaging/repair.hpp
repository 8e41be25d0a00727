// repair.hpp — defect detection and repair for corrupted rasters.
//
// GOES telemetry defects (dropped scan lines, dead detector columns,
// salt-and-pepper bit noise, whole missing frames) must be detected and
// repaired *before* tracking: the SMA normal-equation accumulations have
// no notion of an untrustworthy sample, so a single zeroed scan line
// inside a 121x121 template poisons every hypothesis that overlaps it.
// Operational trackers (CST granule tracking, large-scale particle
// pipelines) treat defect masking as a first-class stage; this module is
// that stage for our pipeline.
//
// Detection uses row/column statistics (imaging/stats): a dropped line is
// a *constant* row — its within-row spread collapses while a textured
// cloud field never holds a constant row — optionally backed by a robust
// z-score of the row mean against the median/MAD of all row means.
// Repair is linear interpolation from the nearest live rows/columns;
// regions that cannot be bridged (gaps wider than `max_interp_gap`, or a
// frame lost entirely) are recorded in a per-pixel validity mask that the
// tracker consumes (TrackerInput::validity_*): masked template pixels are
// excluded from the 6x6 systems exactly like F_semi drops discontinuous
// pixels, and downstream code filters on the resulting confidence.
#pragma once

#include <vector>

#include "imaging/image.hpp"

namespace sma::imaging {

struct RepairOptions {
  /// A row/column is "dead" when at least this fraction of its samples
  /// equal its median — the signature of a constant telemetry fill.
  double constant_fraction = 0.9;
  /// Secondary detector: a low-variance row whose mean is more than this
  /// many robust sigmas (1.4826 * MAD) from the median row mean.
  double mean_outlier_sigma = 6.0;
  /// Runs of dead rows/columns wider than this are masked invalid
  /// instead of interpolated (interpolation across a wide gap fabricates
  /// structure the tracker would happily lock onto).
  int max_interp_gap = 8;
  /// Despike isolated salt-and-pepper samples against the 3x3 median.
  bool despike = true;
  /// Expected sample range; a spike must sit near an extreme AND jump
  /// at least `spike_min_jump * (hi - lo)` from its 3x3 median.
  float expected_lo = 0.0f;
  float expected_hi = 255.0f;
  double spike_min_jump = 0.25;
};

/// What repair_frame did, plus the repaired image and validity mask.
struct RepairReport {
  ImageF image;       ///< repaired raster
  ImageU8 validity;   ///< 1 = trustworthy, 0 = unrepairable
  std::vector<int> repaired_rows;  ///< interpolated scan lines
  std::vector<int> masked_rows;    ///< unrepairable scan lines
  std::vector<int> repaired_cols;  ///< interpolated detector columns
  std::vector<int> masked_cols;    ///< unrepairable detector columns
  int despiked_pixels = 0;         ///< salt-and-pepper samples replaced
  bool frame_missing = false;      ///< every row dead; nothing usable

  bool clean() const {
    return repaired_rows.empty() && masked_rows.empty() &&
           repaired_cols.empty() && masked_cols.empty() &&
           despiked_pixels == 0 && !frame_missing;
  }

  /// True when `validity` holds a zero: a masked row or column, or a
  /// missing frame.  Interpolation and despiking leave it all-valid, and
  /// an all-valid mask tracks bit-identically to none, so callers attach
  /// the mask only when this holds — any attached mask costs the
  /// precompute and the vector lane kernel (DESIGN.md §9).
  bool masked() const {
    return !masked_rows.empty() || !masked_cols.empty() || frame_missing;
  }
};

/// Rows whose statistics mark them as dropped scan lines.
std::vector<int> detect_dead_rows(const ImageF& img,
                                  const RepairOptions& opts = {});

/// Columns whose statistics mark them as dead detector columns.
std::vector<int> detect_dead_columns(const ImageF& img,
                                     const RepairOptions& opts = {});

/// Full single-frame pipeline: detect dead rows/columns, interpolate
/// what can be bridged, mask what cannot, despike bit noise.  A clean
/// frame passes through bit-identical with an all-valid mask.
RepairReport repair_frame(const ImageF& img, const RepairOptions& opts = {});

}  // namespace sma::imaging
