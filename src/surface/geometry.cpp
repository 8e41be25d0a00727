#include "surface/geometry.hpp"

#include <cmath>

#include "sched/scheduler.hpp"

namespace sma::surface {

PointGeometry point_geometry(const QuadraticPatch& p) {
  PointGeometry g{};
  g.zx = p.zx();
  g.zy = p.zy();
  const double mag = std::sqrt(1.0 + g.zx * g.zx + g.zy * g.zy);
  g.ni = -g.zx / mag;
  g.nj = -g.zy / mag;
  g.nk = 1.0 / mag;
  g.ee = 1.0 + g.zx * g.zx;
  g.gg = 1.0 + g.zy * g.zy;
  g.disc = p.zxx() * p.zyy() - p.zxy() * p.zxy();
  return g;
}

namespace {

void store_derivatives(DerivativeField& f, int x, int y,
                       const QuadraticPatch& p) {
  f.zx.at(x, y) = static_cast<float>(p.zx());
  f.zy.at(x, y) = static_cast<float>(p.zy());
  f.zxx.at(x, y) = static_cast<float>(p.zxx());
  f.zxy.at(x, y) = static_cast<float>(p.zxy());
  f.zyy.at(x, y) = static_cast<float>(p.zyy());
}

}  // namespace

DerivativeField fit_derivatives(const imaging::ImageF& img,
                                const GeometryOptions& opts) {
  DerivativeField f;
  const int w = img.width();
  const int h = img.height();
  f.zx = imaging::ImageF(w, h);
  f.zy = imaging::ImageF(w, h);
  f.zxx = imaging::ImageF(w, h);
  f.zxy = imaging::ImageF(w, h);
  f.zyy = imaging::ImageF(w, h);

  if (opts.use_fast_fitter) {
    const PatchFitter fitter(opts.patch_radius);
    fitter.fit_frame(img, opts.parallel,
                     [&f](int x, int y, const QuadraticPatch& p) {
                       store_derivatives(f, x, y, p);
                     });
  } else {
    sched::for_each_row(h, w, opts.parallel, [&](int y) {
      for (int x = 0; x < w; ++x)
        store_derivatives(f, x, y, fit_patch(img, x, y, opts.patch_radius));
    });
  }
  return f;
}

GeometricField derive_geometry(const DerivativeField& d, bool parallel) {
  GeometricField g;
  const int w = d.width();
  const int h = d.height();
  g.zx = d.zx;
  g.zy = d.zy;
  g.ni = imaging::ImageF(w, h);
  g.nj = imaging::ImageF(w, h);
  g.nk = imaging::ImageF(w, h);
  g.ee = imaging::ImageF(w, h);
  g.gg = imaging::ImageF(w, h);
  g.disc = imaging::ImageF(w, h);

  sched::for_each_row(h, w, parallel, [&](int y) {
    for (int x = 0; x < w; ++x) {
      const double zx = d.zx.at(x, y);
      const double zy = d.zy.at(x, y);
      const double mag = std::sqrt(1.0 + zx * zx + zy * zy);
      g.ni.at(x, y) = static_cast<float>(-zx / mag);
      g.nj.at(x, y) = static_cast<float>(-zy / mag);
      g.nk.at(x, y) = static_cast<float>(1.0 / mag);
      g.ee.at(x, y) = static_cast<float>(1.0 + zx * zx);
      g.gg.at(x, y) = static_cast<float>(1.0 + zy * zy);
      g.disc.at(x, y) = static_cast<float>(
          static_cast<double>(d.zxx.at(x, y)) * d.zyy.at(x, y) -
          static_cast<double>(d.zxy.at(x, y)) * d.zxy.at(x, y));
    }
  });
  return g;
}

GeometricField compute_geometry(const imaging::ImageF& img,
                                const GeometryOptions& opts) {
  return derive_geometry(fit_derivatives(img, opts), opts.parallel);
}

}  // namespace sma::surface
