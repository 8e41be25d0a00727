// convolve.hpp — separable convolution and smoothing kernels.
//
// Used by the ASA stereo substrate's image pyramid (the paper's
// "multiresolution, hierarchical and coarse-to-fine" matching, Sec. 2.1)
// and by the synthetic GOES data generators.
#pragma once

#include <vector>

#include "imaging/image.hpp"

namespace sma::imaging {

/// Normalized 1-D Gaussian taps; `radius` taps on each side of center.
std::vector<double> gaussian_kernel(double sigma, int radius);

/// Radius chosen to cover ±3 sigma.
int gaussian_radius(double sigma);

/// Separable convolution with the same 1-D kernel horizontally then
/// vertically; clamped borders.
ImageF convolve_separable(const ImageF& src, const std::vector<double>& taps);

/// Gaussian blur (separable, ±3 sigma support).
ImageF gaussian_blur(const ImageF& src, double sigma);

}  // namespace sma::imaging
