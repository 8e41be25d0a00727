// multispectral.hpp — multispectral motion estimation (Sec. 6).
//
// The paper lists "using multispectral information" as future work: GOES
// imagers deliver visible and several infrared channels, and clouds that
// are featureless in one band are often textured in another (cirrus in
// IR, low stratus in VIS).
//
// Design: LATE FUSION.  Each channel is tracked independently against
// the shared surface maps, and the per-pixel winner is the channel whose
// hypothesis residual is smallest.  Compared to summing matching costs
// across channels (early fusion), late fusion is robust to one channel
// being locally degenerate — exactly the cloud case above — and composes
// with every tracker variant without touching the inner loops.  The
// fused field is typically followed by robust_postprocess.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/tracker.hpp"
#include "imaging/flow.hpp"

namespace sma::core {

struct MultispectralInput {
  /// Per-channel intensity images (VIS, IR, ...), same order both steps.
  std::vector<const imaging::ImageF*> before;
  std::vector<const imaging::ImageF*> after;
  /// Shared surface maps; null means monocular mode per channel (each
  /// channel serves as its own digital surface).
  const imaging::ImageF* surface_before = nullptr;
  const imaging::ImageF* surface_after = nullptr;
};

struct MultispectralResult {
  imaging::FlowField flow;                 ///< fused field
  std::vector<imaging::FlowField> per_channel;
  std::vector<TrackTimings> timings;
  /// fused pixels drawn from each channel (index-aligned with inputs)
  std::vector<std::size_t> winner_counts;
};

/// Per-pixel minimum-residual fusion of candidate flow fields (all must
/// share dimensions).  Invalid candidates never win; a pixel with no
/// valid candidate stays invalid.
imaging::FlowField fuse_flows(
    const std::vector<const imaging::FlowField*>& fields,
    std::vector<std::size_t>* winner_counts = nullptr);

/// Tracks every channel and fuses the results.  Channels run through one
/// SmaPipeline on `backend`, so shared surface maps are fitted once
/// rather than per channel.
MultispectralResult track_pair_multispectral(
    const MultispectralInput& input, const SmaConfig& config,
    const TrackOptions& options = {},
    const std::string& backend = "sequential");

}  // namespace sma::core
