#include "imaging/colorize.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace sma::imaging {

namespace {

// HSV (h in [0, 360), s, v in [0, 1]) to RGB bytes.
Rgb hsv_to_rgb(double h, double s, double v) {
  const double c = v * s;
  const double hp = h / 60.0;
  const double x = c * (1.0 - std::abs(std::fmod(hp, 2.0) - 1.0));
  double r = 0, g = 0, b = 0;
  if (hp < 1) {
    r = c; g = x;
  } else if (hp < 2) {
    r = x; g = c;
  } else if (hp < 3) {
    g = c; b = x;
  } else if (hp < 4) {
    g = x; b = c;
  } else if (hp < 5) {
    r = x; b = c;
  } else {
    r = c; b = x;
  }
  const double m = v - c;
  auto to_byte = [](double t) {
    return static_cast<unsigned char>(std::clamp(t * 255.0, 0.0, 255.0));
  };
  return Rgb{to_byte(r + m), to_byte(g + m), to_byte(b + m)};
}

}  // namespace

Rgb flow_color(float u, float v, bool valid, double max_magnitude) {
  if (!valid) return Rgb{0, 0, 0};
  const double mag = std::hypot(u, v);
  double hue = std::atan2(-static_cast<double>(v), u) * 180.0 / M_PI;
  if (hue < 0.0) hue += 360.0;
  const double sat =
      max_magnitude > 0.0 ? std::min(1.0, mag / max_magnitude) : 0.0;
  return hsv_to_rgb(hue, sat, 1.0);
}

ImageRgb colorize_flow(const FlowField& flow, double max_magnitude) {
  double scale = max_magnitude;
  if (scale <= 0.0) {
    std::vector<double> mags;
    mags.reserve(flow.u().size());
    for (int y = 0; y < flow.height(); ++y)
      for (int x = 0; x < flow.width(); ++x) {
        const FlowVector f = flow.at(x, y);
        if (f.valid) mags.push_back(std::hypot(f.u, f.v));
      }
    if (mags.empty()) {
      scale = 1.0;
    } else {
      const std::size_t idx =
          static_cast<std::size_t>(0.99 * (mags.size() - 1));
      std::nth_element(mags.begin(), mags.begin() + idx, mags.end());
      scale = std::max(mags[idx], 1e-6);
    }
  }
  ImageRgb out(flow.width(), flow.height());
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      const FlowVector f = flow.at(x, y);
      out.at(x, y) = flow_color(f.u, f.v, f.valid != 0, scale);
    }
  return out;
}

void write_ppm(const ImageRgb& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_ppm: cannot open " + path);
  out << "P6\n" << img.width() << ' ' << img.height() << "\n255\n";
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      const Rgb& p = img.at(x, y);
      out.put(static_cast<char>(p.r));
      out.put(static_cast<char>(p.g));
      out.put(static_cast<char>(p.b));
    }
}

ImageRgb read_ppm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_ppm: cannot open " + path);
  std::string magic;
  in >> magic;
  if (magic != "P6") throw std::runtime_error("read_ppm: not a binary PPM");
  int w = 0, h = 0, maxval = 0;
  in >> w >> h >> maxval;
  in.get();
  if (w <= 0 || h <= 0 || maxval != 255)
    throw std::runtime_error("read_ppm: unsupported header");
  ImageRgb img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      Rgb p;
      p.r = static_cast<unsigned char>(in.get());
      p.g = static_cast<unsigned char>(in.get());
      p.b = static_cast<unsigned char>(in.get());
      if (!in) throw std::runtime_error("read_ppm: truncated " + path);
      img.at(x, y) = p;
    }
  return img;
}

}  // namespace sma::imaging
