// Unit tests for core/postprocess.hpp — robust estimation, regularization
// and relaxation labeling of dense motion fields (paper Sec. 6 future
// work, implemented here as extensions).
#include "core/postprocess.hpp"

#include "core/pipeline.hpp"
#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace sma::core {
namespace {

using imaging::FlowField;
using imaging::FlowVector;

FlowField field_with_outlier(int w, int h, float u, float v, int ox, int oy) {
  FlowField f = sma::testing::constant_flow(w, h, u, v);
  f.set(ox, oy, FlowVector{50.0f, -50.0f, 10.0f, 1});
  return f;
}

TEST(VectorMedian, UniformFieldUnchanged) {
  const FlowField f = sma::testing::constant_flow(8, 8, 2.0f, -1.0f);
  const FlowField m = vector_median_filter(f, 1);
  EXPECT_TRUE(m == f);
}

TEST(VectorMedian, RemovesIsolatedOutlier) {
  const FlowField f = field_with_outlier(9, 9, 1.0f, 1.0f, 4, 4);
  const FlowField m = vector_median_filter(f, 1);
  EXPECT_EQ(m.at(4, 4).u, 1.0f);
  EXPECT_EQ(m.at(4, 4).v, 1.0f);
}

TEST(VectorMedian, PreservesMotionDiscontinuity) {
  // Two motion layers split down the middle (multi-layer clouds): the
  // vector median must not blur the boundary into intermediate vectors.
  FlowField f(10, 10);
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 10; ++x)
      f.set(x, y, FlowVector{x < 5 ? 2.0f : -2.0f, 0.0f, 0.0f, 1});
  const FlowField m = vector_median_filter(f, 1);
  for (int y = 1; y < 9; ++y)
    for (int x = 1; x < 9; ++x) {
      const float u = m.at(x, y).u;
      EXPECT_TRUE(u == 2.0f || u == -2.0f)
          << "blurred vector at (" << x << "," << y << "): " << u;
    }
}

TEST(VectorMedian, SkipsInvalidNeighbors) {
  FlowField f = sma::testing::constant_flow(5, 5, 1.0f, 0.0f);
  FlowVector bad{99.0f, 99.0f, 0.0f, 0};  // invalid: must not influence
  f.set(2, 2, bad);
  const FlowField m = vector_median_filter(f, 1);
  EXPECT_EQ(m.at(1, 1).u, 1.0f);
  EXPECT_EQ(m.at(2, 2).u, 1.0f);  // filled from valid neighbors
}

TEST(OutlierMask, FlagsHighErrorPixels) {
  FlowField f = sma::testing::constant_flow(10, 10, 1.0f, 0.0f);
  // Baseline residuals ~0.1 with spread, two gross outliers.
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 10; ++x) {
      FlowVector v = f.at(x, y);
      v.error = 0.1f + 0.001f * static_cast<float>((x * 7 + y * 3) % 10);
      f.set(x, y, v);
    }
  FlowVector bad = f.at(3, 3);
  bad.error = 5.0f;
  f.set(3, 3, bad);
  bad = f.at(7, 8);
  bad.error = 9.0f;
  f.set(7, 8, bad);
  const std::size_t masked = error_outlier_mask(f, 3.0);
  EXPECT_EQ(masked, 2u);
  EXPECT_EQ(f.at(3, 3).valid, 0);
  EXPECT_EQ(f.at(7, 8).valid, 0);
  EXPECT_EQ(f.at(0, 0).valid, 1);
}

TEST(OutlierMask, UniformErrorsMaskNothing) {
  FlowField f = sma::testing::constant_flow(6, 6, 0.0f, 0.0f);
  EXPECT_EQ(error_outlier_mask(f, 3.0), 0u);
  EXPECT_EQ(f.count_valid(), 36u);
}

TEST(OutlierMask, EmptyFieldIsNoop) {
  FlowField f(4, 4);  // all invalid
  EXPECT_EQ(error_outlier_mask(f, 3.0), 0u);
}

TEST(FillInvalid, RestoresDenseField) {
  FlowField f = sma::testing::constant_flow(8, 8, 1.5f, -0.5f);
  FlowVector hole;
  hole.valid = 0;
  f.set(3, 3, hole);
  f.set(4, 3, hole);
  const std::size_t remaining = fill_invalid(f, 1);
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(f.at(3, 3).u, 1.5f);
  EXPECT_EQ(f.at(4, 3).v, -0.5f);
}

TEST(FillInvalid, PropagatesAcrossLargeHoles) {
  FlowField f = sma::testing::constant_flow(12, 12, 2.0f, 0.0f);
  FlowVector hole;
  hole.valid = 0;
  for (int y = 3; y < 9; ++y)
    for (int x = 3; x < 9; ++x) f.set(x, y, hole);
  const std::size_t remaining = fill_invalid(f, 1, 10);
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(f.at(5, 5).u, 2.0f);
}

TEST(FillInvalid, AllInvalidStaysInvalid) {
  FlowField f(5, 5);  // nothing to copy from
  EXPECT_EQ(fill_invalid(f, 1, 4), 25u);
}

TEST(GaussianSmooth, UniformFieldFixedPoint) {
  const FlowField f = sma::testing::constant_flow(9, 9, 1.0f, 2.0f);
  const FlowField s = gaussian_smooth(f, 1.0);
  for (int y = 0; y < 9; ++y)
    for (int x = 0; x < 9; ++x) {
      EXPECT_NEAR(s.at(x, y).u, 1.0f, 1e-5);
      EXPECT_NEAR(s.at(x, y).v, 2.0f, 1e-5);
    }
}

TEST(GaussianSmooth, AttenuatesNoise) {
  FlowField f = sma::testing::constant_flow(11, 11, 0.0f, 0.0f);
  FlowVector noisy = f.at(5, 5);
  noisy.u = 10.0f;
  f.set(5, 5, noisy);
  const FlowField s = gaussian_smooth(f, 1.0);
  EXPECT_LT(s.at(5, 5).u, 5.0f);
  EXPECT_GT(s.at(5, 5).u, 0.0f);  // averaging, not rejection
}

TEST(GaussianSmooth, ErrorWeightingSuppressesBadPixels) {
  FlowField f = sma::testing::constant_flow(9, 9, 0.0f, 0.0f);
  FlowVector noisy = f.at(4, 4);
  noisy.u = 10.0f;
  noisy.error = 100.0f;  // huge residual -> tiny weight
  f.set(4, 4, noisy);
  const FlowField unweighted = gaussian_smooth(f, 1.0, 0.0);
  const FlowField weighted = gaussian_smooth(f, 1.0, 0.05f);
  EXPECT_LT(weighted.at(4, 4).u, unweighted.at(4, 4).u);
  EXPECT_NEAR(weighted.at(4, 4).u, 0.0, 0.05);
}

TEST(RelaxationLabel, UniformFieldFixedPoint) {
  const FlowField f = sma::testing::constant_flow(8, 8, 1.0f, -1.0f);
  const FlowField r = relaxation_label(f, 1, 4);
  EXPECT_TRUE(r == f);
}

TEST(RelaxationLabel, CorrectsIsolatedOutlier) {
  const FlowField f = field_with_outlier(9, 9, 1.0f, 1.0f, 4, 4);
  const FlowField r = relaxation_label(f, 1, 3);
  EXPECT_EQ(r.at(4, 4).u, 1.0f);
  EXPECT_EQ(r.at(4, 4).v, 1.0f);
}

TEST(RelaxationLabel, KeepsLayerBoundarySharp) {
  FlowField f(12, 12);
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 12; ++x)
      f.set(x, y, FlowVector{x < 6 ? 1.0f : -1.0f, 0.0f, 0.0f, 1});
  const FlowField r = relaxation_label(f, 1, 5);
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 12; ++x) {
      const float u = r.at(x, y).u;
      EXPECT_TRUE(u == 1.0f || u == -1.0f);
    }
}

TEST(RobustPipeline, CleansNoisyField) {
  // 5% gross outliers with high residuals over a smooth field.
  FlowField f = sma::testing::constant_flow(16, 16, 1.0f, 0.0f);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) {
      FlowVector v = f.at(x, y);
      v.error = 0.05f + 0.001f * ((x * 13 + y * 7) % 11);
      f.set(x, y, v);
    }
  int planted = 0;
  for (int k = 0; k < 256; k += 37) {
    const int x = k % 16, y = k / 16;
    FlowVector bad{20.0f, -20.0f, 50.0f, 1};
    f.set(x, y, bad);
    ++planted;
  }
  ASSERT_GT(planted, 3);
  const FlowField clean = robust_postprocess(f);
  const FlowField truth = sma::testing::constant_flow(16, 16, 1.0f, 0.0f);
  EXPECT_LT(imaging::rms_endpoint_error(clean, truth), 0.05);
}


TEST(ForwardBackward, ConsistentFieldSurvives) {
  // Forward +2 in x, backward -2: perfectly consistent.
  FlowField fwd = sma::testing::constant_flow(16, 16, 2.0f, 0.0f);
  const FlowField bwd = sma::testing::constant_flow(16, 16, -2.0f, 0.0f);
  const std::size_t masked = forward_backward_check(fwd, bwd, 0.5);
  // Only pixels whose landing point lacks bilinear support (the right
  // columns, plus the bottom row whose integer landing needs y+1) are
  // invalidated.
  EXPECT_LE(masked, 64u);
  EXPECT_EQ(fwd.at(5, 5).valid, 1);
}

TEST(ForwardBackward, InconsistentFieldMasked) {
  // Backward field does NOT cancel the forward one (occlusion analog).
  FlowField fwd = sma::testing::constant_flow(16, 16, 2.0f, 0.0f);
  const FlowField bwd = sma::testing::constant_flow(16, 16, 1.0f, 0.0f);
  forward_backward_check(fwd, bwd, 0.5);
  EXPECT_EQ(fwd.at(5, 5).valid, 0);
}

TEST(ForwardBackward, LandingOutsideImageMasked) {
  FlowField fwd = sma::testing::constant_flow(8, 8, 20.0f, 0.0f);
  const FlowField bwd = sma::testing::constant_flow(8, 8, -20.0f, 0.0f);
  const std::size_t masked = forward_backward_check(fwd, bwd, 0.5);
  EXPECT_EQ(masked, 64u);  // everything lands outside
}

TEST(ForwardBackward, InvalidBackwardSupportMasked) {
  FlowField fwd = sma::testing::constant_flow(12, 12, 1.0f, 0.0f);
  FlowField bwd = sma::testing::constant_flow(12, 12, -1.0f, 0.0f);
  // Kill the backward field where forward pixels land from x=4.
  for (int y = 0; y < 12; ++y) {
    FlowVector v = bwd.at(5, y);
    v.valid = 0;
    bwd.set(5, y, v);
  }
  forward_backward_check(fwd, bwd, 0.5);
  EXPECT_EQ(fwd.at(4, 6).valid, 0);  // lands on the invalid column
  EXPECT_EQ(fwd.at(8, 6).valid, 1);  // unaffected
}

TEST(ForwardBackward, EndToEndOcclusionDetected) {
  // Real tracking: content slides right, revealing new (unmatched)
  // texture at the left edge of frame1; the backward check must flag
  // the corresponding forward vectors near that edge as unreliable
  // while keeping the consistent interior.
  const imaging::ImageF f0 = sma::testing::textured_pattern(40, 40);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 3, 0);
  SmaConfig cfg;
  cfg.model = MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_template_radius = 3;
  cfg.z_search_radius = 3;
  SmaPipeline pipeline(cfg, {.backend = "tiled"});
  TrackResult fwd = pipeline.track_pair(f0, f1);
  const TrackResult bwd = pipeline.track_pair(f1, f0);
  forward_backward_check(fwd.flow, bwd.flow, 1.0);
  // Interior pixels stay valid and correct.
  int valid_interior = 0, total = 0;
  for (int y = 10; y < 30; ++y)
    for (int x = 10; x < 30; ++x) {
      ++total;
      valid_interior += fwd.flow.at(x, y).valid ? 1 : 0;
    }
  EXPECT_GT(static_cast<double>(valid_interior) / total, 0.9);
}

}  // namespace
}  // namespace sma::core
