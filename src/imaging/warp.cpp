#include "imaging/warp.hpp"

namespace sma::imaging {

ImageF warp_by_flow(const ImageF& src, const FlowField& flow) {
  ImageF out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y)
    for (int x = 0; x < src.width(); ++x) {
      const FlowVector f = flow.at(x, y);
      out.at(x, y) = static_cast<float>(bilinear(src, x + f.u, y + f.v));
    }
  return out;
}

ImageF advect(const ImageF& src, const FlowField& flow) {
  ImageF acc(src.width(), src.height(), 0.0f);
  ImageF weight(src.width(), src.height(), 0.0f);
  for (int y = 0; y < src.height(); ++y)
    for (int x = 0; x < src.width(); ++x) {
      const FlowVector f = flow.at(x, y);
      const double dx = x + f.u;
      const double dy = y + f.v;
      const int x0 = static_cast<int>(std::floor(dx));
      const int y0 = static_cast<int>(std::floor(dy));
      const double fx = dx - x0;
      const double fy = dy - y0;
      const double w[4] = {(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy,
                           fx * fy};
      const int xs[4] = {x0, x0 + 1, x0, x0 + 1};
      const int ys[4] = {y0, y0, y0 + 1, y0 + 1};
      for (int k = 0; k < 4; ++k) {
        if (!acc.contains(xs[k], ys[k]) || w[k] <= 0.0) continue;
        acc.at(xs[k], ys[k]) += static_cast<float>(w[k] * src.at(x, y));
        weight.at(xs[k], ys[k]) += static_cast<float>(w[k]);
      }
    }
  ImageF out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y)
    for (int x = 0; x < src.width(); ++x)
      out.at(x, y) = weight.at(x, y) > 1e-4f
                         ? acc.at(x, y) / weight.at(x, y)
                         : src.at(x, y);
  return out;
}

}  // namespace sma::imaging
