#include "imaging/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace sma::imaging {

Summary summarize(const ImageF& img) {
  Summary s;
  if (img.empty()) return s;
  s.min = s.max = img.at(0, 0);
  double sum = 0.0, sum2 = 0.0;
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      const double v = img.at(x, y);
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
      sum += v;
      sum2 += v * v;
    }
  s.count = img.size();
  const double n = static_cast<double>(s.count);
  s.mean = sum / n;
  const double var = sum2 / n - s.mean * s.mean;
  s.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  return s;
}

double max_abs_difference(const ImageF& a, const ImageF& b) {
  if (!a.same_shape(b))
    throw std::invalid_argument("max_abs_difference: shape mismatch");
  double m = 0.0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      m = std::max(m, std::abs(static_cast<double>(a.at(x, y)) - b.at(x, y)));
  return m;
}

bool has_nonfinite(const ImageF& img) {
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      if (!std::isfinite(img.at(x, y))) return true;
  return false;
}

}  // namespace sma::imaging
