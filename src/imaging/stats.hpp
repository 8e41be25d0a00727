// stats.hpp — summary statistics over images and flow fields.
#pragma once

#include <cstddef>

#include "imaging/image.hpp"

namespace sma::imaging {

struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;
};

/// Min / max / mean / population stddev over all pixels.
Summary summarize(const ImageF& img);

/// Largest absolute per-pixel difference.
double max_abs_difference(const ImageF& a, const ImageF& b);

/// True if any pixel is NaN or infinite.  The SMA pipeline validates its
/// inputs with this: non-finite radiances (dropouts, decode errors)
/// would silently poison every normal-equation accumulation downstream.
bool has_nonfinite(const ImageF& img);

}  // namespace sma::imaging
