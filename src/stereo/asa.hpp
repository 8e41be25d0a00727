// asa.hpp — Automatic Stereo Analysis (ASA) substrate.
//
// Paper, Sec. 2.1: "We have used an existing correlation-based Automatic
// Stereo Analysis (ASA) algorithm ... the ASA uses the coarse disparity
// estimates to warp or transform one view into the other thereby
// successively estimating smaller disparities at finer resolutions of the
// hierarchy ... the neighboring region of a pixel of interest is chosen as
// a square set of pixels centered on that pixel and defined as the
// stereo-analysis template ... image matching is done at several different
// resolutions, typically four levels to produce the final dense disparity
// or depth maps."
//
// Inputs are rectified stereo pairs (epipolar lines parallel to scan
// lines, Sec. 2.2), so the search is one-dimensional along x.  Matching is
// normalized cross-correlation (NCC) over the stereo-analysis template,
// with parabolic sub-pixel refinement and optional left/right consistency
// checking.  Disparity converts to cloud-top height through the satellite
// geometry model in goes/geometry.hpp.
#pragma once

#include "imaging/image.hpp"

namespace sma::stereo {

struct AsaOptions {
  int template_radius = 3;     ///< stereo-analysis template (2r+1)^2
  int max_disparity = 8;       ///< +/- search range at the coarsest level
  int levels = 4;              ///< pyramid levels ("typically four levels")
  int refine_range = 2;        ///< +/- residual search at finer levels
  double min_correlation = 0.3;///< NCC below this marks the pixel invalid
  bool subpixel = true;        ///< parabolic refinement of the NCC peak
  bool lr_consistency = false; ///< cross-check left->right vs right->left
  double lr_threshold = 1.0;   ///< max |d_L(x) + d_R(x + d_L)| in pixels
};

/// Dense disparity result.  `valid` is 0 where correlation failed the
/// threshold or the consistency check rejected the match.
struct DisparityMap {
  imaging::ImageF disparity;
  imaging::ImageF correlation;
  imaging::Image<unsigned char> valid;
};

/// Single-level NCC block matching: for each left pixel, searches
/// x + d, d in [d0 - range, d0 + range] around a per-pixel prior `prior`
/// (pass an all-zero image for no prior).
DisparityMap match_level(const imaging::ImageF& left,
                         const imaging::ImageF& right,
                         const imaging::ImageF& prior, int range,
                         const AsaOptions& opts);

/// Full hierarchical coarse-to-fine ASA disparity estimation.
DisparityMap asa_disparity(const imaging::ImageF& left,
                           const imaging::ImageF& right,
                           const AsaOptions& opts);

/// Normalized cross-correlation of two templates centered at (xl, y) and
/// (xl + d, y); exposed for tests.
double ncc(const imaging::ImageF& left, const imaging::ImageF& right, int xl,
           int y, double d, int radius);

}  // namespace sma::stereo
