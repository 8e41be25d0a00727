#include "imaging/convolve.hpp"

#include <cmath>

namespace sma::imaging {

std::vector<double> gaussian_kernel(double sigma, int radius) {
  std::vector<double> taps(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-0.5 * (i * i) / (sigma * sigma));
    taps[static_cast<std::size_t>(i + radius)] = v;
    sum += v;
  }
  for (double& t : taps) t /= sum;
  return taps;
}

int gaussian_radius(double sigma) {
  const int r = static_cast<int>(std::ceil(3.0 * sigma));
  return r < 1 ? 1 : r;
}

ImageF convolve_separable(const ImageF& src, const std::vector<double>& taps) {
  const int radius = static_cast<int>(taps.size() / 2);
  ImageF tmp(src.width(), src.height());
  ImageF out(src.width(), src.height());

  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      double acc = 0.0;
      for (int k = -radius; k <= radius; ++k)
        acc += taps[static_cast<std::size_t>(k + radius)] *
               src.at_clamped(x + k, y);
      tmp.at(x, y) = static_cast<float>(acc);
    }
  }
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      double acc = 0.0;
      for (int k = -radius; k <= radius; ++k)
        acc += taps[static_cast<std::size_t>(k + radius)] *
               tmp.at_clamped(x, y + k);
      out.at(x, y) = static_cast<float>(acc);
    }
  }
  return out;
}

ImageF gaussian_blur(const ImageF& src, double sigma) {
  return convolve_separable(src, gaussian_kernel(sigma, gaussian_radius(sigma)));
}

}  // namespace sma::imaging
