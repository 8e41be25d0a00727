// hierarchical.hpp — adaptive hierarchical (coarse-to-fine) SMA.
//
// Paper, Sec. 6: "Future work involves using adaptive hierarchical
// non-square template and search windows."  This extension applies the
// same multiresolution strategy the ASA stereo stage already uses
// (Sec. 2.1) to the motion search: track on a Gaussian pyramid, then at
// each finer level warp the second image by the upsampled coarse flow
// and search only a small residual window.
//
// A flat search over displacement D costs O((2D+1)^2) hypotheses per
// pixel; the hierarchy reaches the same displacement with
// O(levels * (2r+1)^2), r << D — the paper's motivation for adaptive
// windows.  bench_hierarchical_ablation quantifies the trade.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/tracker.hpp"
#include "imaging/flow.hpp"
#include "imaging/image.hpp"

namespace sma::core {

struct HierarchicalOptions {
  /// Pyramid depth (level 0 is full resolution).
  int levels = 3;
  /// Tracker configuration for the coarsest level (its z_search_radius
  /// only needs to cover max displacement / 2^(levels-1)).
  SmaConfig coarse;
  /// Search radius for the residual refinement at every finer level.
  int refine_search_radius = 1;
  /// Matching options for all levels (subpixel is forced on).
  TrackOptions track;
  /// Registry name of the execution backend for all levels.
  std::string backend = "sequential";
};

struct HierarchicalResult {
  imaging::FlowField flow;               ///< full-resolution motion field
  std::vector<TrackTimings> level_timings;  ///< coarsest-first
  int levels_used = 0;

  double total_seconds() const {
    double t = 0.0;
    for (const auto& lt : level_timings) t += lt.total;
    return t;
  }
};

/// Coarse-to-fine monocular tracking.  With levels == 1 this is exactly
/// SmaPipeline::track_pair with `coarse` and forced subpixel.
HierarchicalResult track_pair_hierarchical(const imaging::ImageF& before,
                                           const imaging::ImageF& after,
                                           const HierarchicalOptions& options);

/// Upsamples a flow field to (width, height), scaling vectors by the
/// resolution ratio (displacement doubles when resolution doubles).
/// Exposed for tests.
imaging::FlowField upsample_flow(const imaging::FlowField& flow, int width,
                                 int height);

}  // namespace sma::core
