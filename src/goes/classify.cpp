#include "goes/classify.hpp"

#include <cmath>

namespace sma::goes {

ClassMap classify_clouds(const imaging::ImageF& intensity,
                         const imaging::ImageF& heights_km,
                         const ClassifierOptions& options) {
  const int w = intensity.width();
  const int h = intensity.height();
  ClassMap classes(w, h, static_cast<std::uint8_t>(CloudClass::kClear));

  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      // 5x5 local texture (standard deviation).
      double s = 0.0, s2 = 0.0;
      for (int v = -2; v <= 2; ++v)
        for (int u = -2; u <= 2; ++u) {
          const double p = intensity.at_clamped(x + u, y + v);
          s += p;
          s2 += p * p;
        }
      const double mean = s / 25.0;
      const double var = s2 / 25.0 - mean * mean;
      const double texture = var > 0.0 ? std::sqrt(var) : 0.0;

      const bool cloudy = intensity.at(x, y) >= options.min_intensity ||
                          texture >= options.min_texture;
      if (!cloudy) continue;

      const double z = heights_km.at(x, y);
      CloudClass c = CloudClass::kMid;
      if (z < options.low_top_km)
        c = CloudClass::kLow;
      else if (z >= options.high_base_km)
        c = CloudClass::kHigh;
      classes.at(x, y) = static_cast<std::uint8_t>(c);
    }
  return classes;
}

std::array<ClassWindStats, 4> per_class_statistics(
    const imaging::FlowField& flow, const ClassMap& classes) {
  std::array<ClassWindStats, 4> stats{};
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      const imaging::FlowVector f = flow.at(x, y);
      if (!f.valid) continue;
      ClassWindStats& s = stats[classes.at(x, y)];
      ++s.pixels;
      s.mean_u += f.u;
      s.mean_v += f.v;
      s.mean_speed += std::hypot(f.u, f.v);
    }
  for (auto& s : stats)
    if (s.pixels > 0) {
      s.mean_u /= static_cast<double>(s.pixels);
      s.mean_v /= static_cast<double>(s.pixels);
      s.mean_speed /= static_cast<double>(s.pixels);
    }
  return stats;
}

}  // namespace sma::goes
