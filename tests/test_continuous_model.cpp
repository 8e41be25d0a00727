// Unit tests for core/continuous_model.hpp — F_cont motion estimation,
// scored through the naive oracle evaluate_pixel_hypothesis.
#include "core/continuous_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/tracker.hpp"
#include "helpers.hpp"
#include "surface/geometry.hpp"

namespace sma::core {
namespace {

surface::GeometricField geometry_of(const imaging::ImageF& img) {
  surface::GeometryOptions o;
  o.patch_radius = 2;
  return surface::compute_geometry(img, o);
}

SmaConfig small_config(int nzt = 3, int nzs = 2) {
  SmaConfig c;
  c.model = MotionModel::kContinuous;
  c.z_template_radius = nzt;
  c.z_search_radius = nzs;
  return c;
}

struct Evaluation {
  MotionParams params;
  double error = 0.0;  ///< Eq. (3) residual, summed over the template
  bool ok = false;     ///< false if the 6x6 system was singular
};

/// F_cont hypothesis (hx, hy) at pixel (x, y) through the naive oracle.
Evaluation evaluate(const surface::GeometricField& before,
                    const surface::GeometricField& after, int x, int y,
                    const SmaConfig& config, int hx, int hy) {
  Evaluation e;
  e.error = evaluate_pixel_hypothesis(before, after, nullptr, nullptr,
                                      nullptr, x, y, hx, hy, config,
                                      e.params, e.ok);
  return e;
}

TEST(EvaluateHypothesis, ZeroMotionGivesZeroErrorAndParams) {
  // Identical surfaces: the zero hypothesis with zero deformation is an
  // exact solution, so the residual must be ~0 and parameters ~0.
  const imaging::ImageF img = testing::textured_pattern(24, 24);
  const surface::GeometricField g = geometry_of(img);
  const Evaluation r = evaluate(g, g, 12, 12, small_config(), 0, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.error, 0.0, 1e-8);
  EXPECT_NEAR(r.params.ai, 0.0, 1e-6);
  EXPECT_NEAR(r.params.bj, 0.0, 1e-6);
  EXPECT_NEAR(r.params.ak, 0.0, 1e-6);
}

TEST(EvaluateHypothesis, CorrectTranslationWinsOverWrong) {
  // Surface translated by (2, 1): the true hypothesis must have a lower
  // residual than competing ones at a well-textured interior pixel.
  const imaging::ImageF img0 = testing::textured_pattern(32, 32);
  const imaging::ImageF img1 = testing::shift_image(img0, 2, 1);
  const surface::GeometricField g0 = geometry_of(img0);
  const surface::GeometricField g1 = geometry_of(img1);
  const SmaConfig cfg = small_config();

  const int x = 16, y = 16;
  const double e_true = evaluate(g0, g1, x, y, cfg, 2, 1).error;
  for (int hy = -2; hy <= 2; ++hy)
    for (int hx = -2; hx <= 2; ++hx) {
      if (hx == 2 && hy == 1) continue;
      const double e = evaluate(g0, g1, x, y, cfg, hx, hy).error;
      EXPECT_LT(e_true, e) << "hypothesis (" << hx << "," << hy << ")";
    }
}

TEST(EvaluateHypothesis, TranslationHasNearZeroDeformation) {
  const imaging::ImageF img0 = testing::textured_pattern(32, 32);
  const imaging::ImageF img1 = testing::shift_image(img0, 2, 1);
  const Evaluation r = evaluate(geometry_of(img0), geometry_of(img1), 16, 16,
                                small_config(), 2, 1);
  ASSERT_TRUE(r.ok);
  // Pure translation: the affine deformation parameters stay small.
  EXPECT_NEAR(r.params.ai, 0.0, 0.05);
  EXPECT_NEAR(r.params.bi, 0.0, 0.05);
  EXPECT_NEAR(r.params.aj, 0.0, 0.05);
  EXPECT_NEAR(r.params.bj, 0.0, 0.05);
}

TEST(EvaluateHypothesis, RecoversVerticalGrowthParameter) {
  // Surface z and z' = z + 0.2*u around the pixel (a_k = 0.2 growth
  // gradient in x): the k-equations should pick it up.
  const int cx = 16, cy = 16;
  const imaging::ImageF z0 = testing::make_image(32, 32, [](double x, double y) {
    return 0.5 * x + 0.3 * y + 3.0 * std::sin(0.4 * x) * std::cos(0.3 * y);
  });
  imaging::ImageF z1 = z0;
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      z1.at(x, y) += static_cast<float>(0.2 * (x - cx));
  const Evaluation r = evaluate(geometry_of(z0), geometry_of(z1), cx, cy,
                                small_config(), 0, 0);
  ASSERT_TRUE(r.ok);
  // dm_i = -a_k - b_j zx + a_j zy must absorb the -0.2 normal tilt.
  EXPECT_NEAR(r.params.ak, 0.2, 0.08);
}

TEST(EvaluateHypothesis, SingularOnFlatSurface) {
  // A perfectly flat surface gives no normal variation: the 6x6 system
  // is singular and the evaluator must fall back gracefully.
  const imaging::ImageF flat(16, 16, 5.0f);
  const surface::GeometricField g = geometry_of(flat);
  const Evaluation r = evaluate(g, g, 8, 8, small_config(), 0, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NEAR(r.error, 0.0, 1e-10);  // flat-to-flat still matches
}

TEST(AddNormalRows, AccumulatesThreeRowsPerPixel) {
  const imaging::ImageF img = testing::textured_pattern(16, 16);
  const surface::GeometricField g = geometry_of(img);
  linalg::NormalEquations6 ne;
  add_normal_rows(g, g, 8, 8, 8, 8, ne);
  EXPECT_EQ(ne.rows(), 3u);
  add_normal_rows(g, g, 9, 8, 9, 8, ne);
  EXPECT_EQ(ne.rows(), 6u);
}

TEST(MotionParams, VectorRoundTrip) {
  MotionParams p{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  const MotionParams q = MotionParams::from_vec(p.as_vec());
  EXPECT_DOUBLE_EQ(q.ai, 0.1);
  EXPECT_DOUBLE_EQ(q.bk, 0.6);
}

TEST(EvaluateHypothesis, TemplateStrideSubsamples) {
  const imaging::ImageF img = testing::textured_pattern(32, 32);
  const surface::GeometricField g = geometry_of(img);
  SmaConfig cfg = small_config(4, 2);
  cfg.template_stride = 2;
  // 9x9 template with stride 2 -> 5x5 = 25 pixels, 75 rows.
  linalg::NormalEquations6 ne;
  const int r = cfg.z_template_radius;
  int count = 0;
  for (int v = -r; v <= r; v += cfg.template_stride)
    for (int u = -r; u <= r; u += cfg.template_stride) ++count;
  EXPECT_EQ(count, 25);
  const Evaluation res = evaluate(g, g, 16, 16, cfg, 0, 0);
  EXPECT_TRUE(res.ok);
  EXPECT_NEAR(res.error, 0.0, 1e-8);
}

}  // namespace
}  // namespace sma::core
