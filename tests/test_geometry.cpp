// Unit tests for surface/geometry.hpp.
#include "surface/geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"
#include "imaging/stats.hpp"

namespace sma::surface {
namespace {

GeometryOptions opts(int radius, bool parallel = false) {
  GeometryOptions o;
  o.patch_radius = radius;
  o.parallel = parallel;
  return o;
}

TEST(PointGeometry, FlatPatchNormalIsUp) {
  QuadraticPatch p;  // all-zero: flat surface
  const PointGeometry g = point_geometry(p);
  EXPECT_DOUBLE_EQ(g.ni, 0.0);
  EXPECT_DOUBLE_EQ(g.nj, 0.0);
  EXPECT_DOUBLE_EQ(g.nk, 1.0);
  EXPECT_DOUBLE_EQ(g.ee, 1.0);
  EXPECT_DOUBLE_EQ(g.gg, 1.0);
  EXPECT_DOUBLE_EQ(g.disc, 0.0);
}

TEST(PointGeometry, TiltedPlane) {
  QuadraticPatch p;
  p.c1 = 1.0;  // zx = 1
  const PointGeometry g = point_geometry(p);
  const double s = std::sqrt(2.0);
  EXPECT_NEAR(g.ni, -1.0 / s, 1e-12);
  EXPECT_NEAR(g.nk, 1.0 / s, 1e-12);
  EXPECT_DOUBLE_EQ(g.ee, 2.0);
  EXPECT_DOUBLE_EQ(g.gg, 1.0);
  // Unit normal property.
  EXPECT_NEAR(g.ni * g.ni + g.nj * g.nj + g.nk * g.nk, 1.0, 1e-12);
}

TEST(PointGeometry, EllipticVsHyperbolicDiscriminant) {
  QuadraticPatch bowl;  // z = x^2 + y^2: elliptic, D > 0
  bowl.c3 = 1.0;
  bowl.c5 = 1.0;
  EXPECT_GT(point_geometry(bowl).disc, 0.0);

  QuadraticPatch saddle;  // z = x^2 - y^2: hyperbolic, D < 0
  saddle.c3 = 1.0;
  saddle.c5 = -1.0;
  EXPECT_LT(point_geometry(saddle).disc, 0.0);

  QuadraticPatch cyl;  // z = x^2: parabolic, D = 0
  cyl.c3 = 1.0;
  EXPECT_DOUBLE_EQ(point_geometry(cyl).disc, 0.0);
}

TEST(ComputeGeometry, PlaneFieldNormalsUniform) {
  const imaging::ImageF img = testing::make_image(
      16, 16, [](double x, double y) { return 0.5 * x - 0.25 * y; });
  const GeometricField g = compute_geometry(img, opts(2));
  // Interior pixels all see the same plane.
  const double mag = std::sqrt(1.0 + 0.25 + 0.0625);
  for (int y = 4; y < 12; ++y)
    for (int x = 4; x < 12; ++x) {
      EXPECT_NEAR(g.zx.at(x, y), 0.5, 1e-4);
      EXPECT_NEAR(g.zy.at(x, y), -0.25, 1e-4);
      EXPECT_NEAR(g.ni.at(x, y), -0.5 / mag, 1e-4);
      EXPECT_NEAR(g.nj.at(x, y), 0.25 / mag, 1e-4);
      EXPECT_NEAR(g.ee.at(x, y), 1.25, 1e-4);
      EXPECT_NEAR(g.gg.at(x, y), 1.0625, 1e-4);
    }
}

TEST(ComputeGeometry, UnitNormalsEverywhere) {
  const imaging::ImageF img = testing::textured_pattern(24, 24);
  const GeometricField g = compute_geometry(img, opts(2));
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x) {
      const double n2 = static_cast<double>(g.ni.at(x, y)) * g.ni.at(x, y) +
                        static_cast<double>(g.nj.at(x, y)) * g.nj.at(x, y) +
                        static_cast<double>(g.nk.at(x, y)) * g.nk.at(x, y);
      EXPECT_NEAR(n2, 1.0, 1e-5);
      EXPECT_GT(g.nk.at(x, y), 0.0);  // Monge patch: nk always positive
    }
}

TEST(ComputeGeometry, MatchesPerPixelFitPatch) {
  // The cached-inverse fitter against per-pixel elimination (fit_patch)
  // at every pixel, borders included.
  const imaging::ImageF img = testing::textured_pattern(16, 16);
  const GeometricField fast = compute_geometry(img, opts(2));
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) {
      const PointGeometry slow = point_geometry(fit_patch(img, x, y, 2));
      EXPECT_NEAR(fast.zx.at(x, y), slow.zx, 1e-4) << x << "," << y;
      EXPECT_NEAR(fast.ni.at(x, y), slow.ni, 1e-4) << x << "," << y;
      EXPECT_NEAR(fast.disc.at(x, y), slow.disc, 1e-3) << x << "," << y;
    }
}

TEST(ComputeGeometry, ParallelMatchesSequential) {
  const imaging::ImageF img = testing::textured_pattern(20, 20);
  const GeometricField seq = compute_geometry(img, opts(2, false));
  const GeometricField par = compute_geometry(img, opts(2, true));
  EXPECT_EQ(imaging::max_abs_difference(seq.ni, par.ni), 0.0);
  EXPECT_EQ(imaging::max_abs_difference(seq.disc, par.disc), 0.0);
}

TEST(ComputeGeometry, PhaseSplitConsistent) {
  const imaging::ImageF img = testing::textured_pattern(12, 12);
  const DerivativeField d = fit_derivatives(img, opts(2));
  const GeometricField g1 = derive_geometry(d);
  const GeometricField g2 = compute_geometry(img, opts(2));
  EXPECT_EQ(imaging::max_abs_difference(g1.ni, g2.ni), 0.0);
  EXPECT_EQ(imaging::max_abs_difference(g1.ee, g2.ee), 0.0);
}

TEST(ComputeGeometry, DiscriminantOfParaboloid) {
  // z = 0.1 (x^2 + y^2) around center: zxx = zyy = 0.2, zxy = 0 -> D = 0.04.
  const imaging::ImageF img = testing::make_image(
      21, 21, [](double x, double y) {
        const double u = x - 10.0, v = y - 10.0;
        return 0.1 * (u * u + v * v);
      });
  const GeometricField g = compute_geometry(img, opts(2));
  EXPECT_NEAR(g.disc.at(10, 10), 0.04, 1e-4);
}

}  // namespace
}  // namespace sma::surface
