// patch_fit.hpp — local quadratic surface-patch fitting.
//
// Paper, Sec. 2.2 (Step 2): "Each z(t_m) and z(t_{m+1}) pixel within the
// neighborhoods ... is fitted with a continuous quadratic surface patch
// centered at that pixel.  Least squares surface fitting using a
// surface-patch neighborhood of (2Nz+1) x (2Nz+1) pixels centered around
// the pixel of interest leads to solving a 6x6 matrix using the
// Gaussian-elimination method."
//
// The fitted model is   z(u, v) = c0 + c1 u + c2 v + c3 u^2 + c4 uv + c5 v^2
// in window-centered offsets (u, v); the coefficients give the first and
// second partial derivatives at the center analytically.
#pragma once

#include <vector>

#include "imaging/image.hpp"
#include "linalg/matrix.hpp"
#include "sched/scheduler.hpp"

namespace sma::surface {

/// Coefficients of the fitted quadratic patch (window-centered).
struct QuadraticPatch {
  double c0 = 0.0;  ///< value at center
  double c1 = 0.0;  ///< dz/dx
  double c2 = 0.0;  ///< dz/dy
  double c3 = 0.0;  ///< (1/2) d2z/dx2
  double c4 = 0.0;  ///< d2z/dxdy
  double c5 = 0.0;  ///< (1/2) d2z/dy2
  bool ok = false;  ///< false if the 6x6 system was singular

  double value(double u, double v) const {
    return c0 + c1 * u + c2 * v + c3 * u * u + c4 * u * v + c5 * v * v;
  }
  double zx() const { return c1; }
  double zy() const { return c2; }
  double zxx() const { return 2.0 * c3; }
  double zxy() const { return c4; }
  double zyy() const { return 2.0 * c5; }
};

/// Fits the quadratic patch around (x, y) over a (2*radius+1)^2 window with
/// clamped borders, performing the paper's per-pixel 6x6 Gaussian
/// elimination.  radius >= 1 is required (a 3x3 window already determines
/// all six coefficients).
QuadraticPatch fit_patch(const imaging::ImageF& img, int x, int y, int radius);

/// Precomputed solver for fixed-radius patch fitting.
///
/// For interior pixels the normal matrix A^T A depends only on the window
/// offsets, never the data, so its inverse can be computed once per radius
/// and each fit becomes six dot products.  This is a modern optimization
/// over the paper's per-pixel elimination; `bench_precompute_ablation`
/// quantifies the gap and tests assert bit-consistent derivatives to
/// within solver tolerance.
class PatchFitter {
 public:
  explicit PatchFitter(int radius);

  int radius() const { return radius_; }

  /// Fit using the cached inverse normal matrix (clamped borders: the
  /// clamped *values* are read but offsets remain window-centered, exactly
  /// as in `fit_patch`).
  QuadraticPatch fit(const imaging::ImageF& img, int x, int y) const;

  /// Whole-frame fit with separable moment accumulation.  The six A^T b
  /// moments Σ u^a v^b z factor into a horizontal pass (per-pixel
  /// H_a = Σ_u u^a z, a = 0..2) and a vertical pass combining the H
  /// planes with v powers — O(radius) per pixel per pass instead of the
  /// O(radius^2) window scan of fit().  Border clamping is per-axis, so
  /// the window contents match fit() exactly; only the summation
  /// association differs (values agree to solver tolerance, not bits).
  /// emit(x, y, patch) is called once per pixel; rows are independent,
  /// so emit must only touch pixel (x, y) state when parallel is true.
  template <typename Emit>
  void fit_frame(const imaging::ImageF& img, bool parallel,
                 Emit&& emit) const {
    const int w = img.width();
    const int h = img.height();
    const int r = radius_;
    const std::size_t npix =
        static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    std::vector<double> h0(npix), h1(npix), h2(npix);
    sched::for_each_row(h, w, parallel, [&](int y) {
      const std::size_t row = static_cast<std::size_t>(y) * w;
      for (int x = 0; x < w; ++x) {
        double m0 = 0.0, m1 = 0.0, m2 = 0.0;
        for (int u = -r; u <= r; ++u) {
          const double z = img.at_clamped(x + u, y);
          m0 += z;
          m1 += u * z;
          m2 += static_cast<double>(u) * u * z;
        }
        h0[row + x] = m0;
        h1[row + x] = m1;
        h2[row + x] = m2;
      }
    });
    sched::for_each_row(h, w, parallel, [&](int y) {
      for (int x = 0; x < w; ++x) {
        double s00 = 0.0, s10 = 0.0, s01 = 0.0;
        double s20 = 0.0, s11 = 0.0, s02 = 0.0;
        for (int v = -r; v <= r; ++v) {
          const int yy = v < -y ? 0 : (y + v >= h ? h - 1 : y + v);
          const std::size_t i = static_cast<std::size_t>(yy) * w + x;
          s00 += h0[i];
          s10 += h1[i];
          s01 += v * h0[i];
          s20 += h2[i];
          s11 += v * h1[i];
          s02 += static_cast<double>(v) * v * h0[i];
        }
        // atb ordered like the basis {1, u, v, u^2, uv, v^2}.
        const linalg::Vec6 c =
            inv_ata_ * linalg::Vec6{s00, s10, s01, s20, s11, s02};
        QuadraticPatch p;
        p.c0 = c[0];
        p.c1 = c[1];
        p.c2 = c[2];
        p.c3 = c[3];
        p.c4 = c[4];
        p.c5 = c[5];
        p.ok = true;
        emit(x, y, p);
      }
    });
  }

 private:
  int radius_;
  linalg::Mat6 inv_ata_;  // (A^T A)^{-1} for the offset design matrix
};

}  // namespace sma::surface
