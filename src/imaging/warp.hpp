// warp.hpp — image warping by flow fields.
//
// Coarse-to-fine tracking warps a level by the upsampled coarse flow
// before matching it, and the coupled stereo stage carries disparity maps
// between frames along the flow: backward by sampling, forward by
// advection.
#pragma once

#include "imaging/flow.hpp"
#include "imaging/image.hpp"

namespace sma::imaging {

/// Backward warp by a dense flow field: out(x,y) = src(x+u, y+v).
ImageF warp_by_flow(const ImageF& src, const FlowField& flow);

/// Forward advection: every source pixel is splatted bilinearly at its
/// destination.  Gaps are filled from the source image.
ImageF advect(const ImageF& src, const FlowField& flow);

}  // namespace sma::imaging
