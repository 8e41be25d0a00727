// geometry.hpp — per-pixel differential geometry of a digital surface.
//
// From the fitted quadratic patches the SMA algorithm derives, at every
// pixel of every intensity and surface image at both time steps
// (paper, Sec. 3: "over one million separate Gaussian-eliminations"):
//
//  * the unit surface normal  [n_i, n_j, n_k]  of the Monge patch
//    (x, y, z(x,y)), i.e. (-z_x, -z_y, 1)/sqrt(1 + z_x^2 + z_y^2);
//  * the first-fundamental-form coefficients  E = 1 + z_x^2 and
//    G = 1 + z_y^2 that weight the error expressions (4)-(5);
//  * the surface discriminant  D = z_xx * z_yy - z_xy^2  (the Hessian
//    discriminant of the fitted patch) used by the semi-fluid error
//    (Eqs. 10-11).
//
// The pass is split in two to mirror the paper's Table 2 timing rows:
// `fit_derivatives` ("Surface fit") runs the per-pixel least-squares
// patch fits; `derive_geometry` ("Compute geometric variables") turns the
// derivative rasters into normals, fundamental forms and discriminants.
#pragma once

#include <cstdint>

#include "imaging/image.hpp"
#include "linalg/matrix.hpp"
#include "surface/patch_fit.hpp"

namespace sma::surface {

/// Raw patch-fit derivatives at every pixel ("Surface fit" phase).
struct DerivativeField {
  imaging::ImageF zx, zy, zxx, zxy, zyy;

  int width() const { return zx.width(); }
  int height() const { return zx.height(); }
};

/// Dense per-pixel geometric variables of one image/surface at one time
/// ("Compute geometric variables" phase output).
struct GeometricField {
  imaging::ImageF zx;   ///< dz/dx
  imaging::ImageF zy;   ///< dz/dy
  imaging::ImageF ni;   ///< unit normal x component
  imaging::ImageF nj;   ///< unit normal y component
  imaging::ImageF nk;   ///< unit normal z component
  imaging::ImageF ee;   ///< first fundamental form E = 1 + zx^2
  imaging::ImageF gg;   ///< first fundamental form G = 1 + zy^2
  imaging::ImageF disc; ///< discriminant D = zxx*zyy - zxy^2

  int width() const { return zx.width(); }
  int height() const { return zx.height(); }

  /// Unit normal at a pixel (clamped).
  linalg::Vec3 normal(int x, int y) const {
    return linalg::Vec3{ni.at_clamped(x, y), nj.at_clamped(x, y),
                        nk.at_clamped(x, y)};
  }
};

/// Options for the geometry pass.
struct GeometryOptions {
  int patch_radius = 2;  ///< N_z: (2Nz+1)^2 surface-fitting window (Table 1: 5x5)
  bool use_fast_fitter = true;  ///< cached-inverse fit vs per-pixel elimination
  bool parallel = false;        ///< rows on the sched pool (identical results)
};

/// "Surface fit": fits a quadratic patch at every pixel and stores the
/// five derivatives.
DerivativeField fit_derivatives(const imaging::ImageF& img,
                                const GeometryOptions& opts);

/// "Compute geometric variables": normals, E, G and discriminant from the
/// derivative rasters.
GeometricField derive_geometry(const DerivativeField& d, bool parallel = false);

/// Both phases back to back.
GeometricField compute_geometry(const imaging::ImageF& img,
                                const GeometryOptions& opts);

/// Geometry of one quadratic patch, exposed for tests.
struct PointGeometry {
  double zx, zy, ni, nj, nk, ee, gg, disc;
};
PointGeometry point_geometry(const QuadraticPatch& p);

}  // namespace sma::surface
