// Unit and integration tests for core/tracker.hpp — the paper's own
// validation criteria: parallel == sequential, segmentation-invariant,
// dense recovery of known motion.
#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/pipeline.hpp"
#include "core/semifluid.hpp"
#include "helpers.hpp"
#include "maspar/backend.hpp"

namespace sma::core {
namespace {

SmaConfig tiny_continuous() {
  SmaConfig c;
  c.model = MotionModel::kContinuous;
  c.surface_fit_radius = 2;
  c.z_template_radius = 3;
  c.z_search_radius = 2;
  return c;
}

SmaConfig tiny_semifluid() {
  SmaConfig c;
  c.model = MotionModel::kSemiFluid;
  c.surface_fit_radius = 2;
  c.z_template_radius = 3;
  c.z_search_radius = 2;
  c.semifluid_search_radius = 1;
  c.semifluid_template_radius = 2;
  return c;
}

TEST(Tracker, RecoversUniformTranslationContinuous) {
  const imaging::ImageF f0 = testing::textured_pattern(32, 32);
  const imaging::ImageF f1 = testing::shift_image(f0, 2, -1);
  const TrackResult r = SmaPipeline(tiny_continuous()).track_pair(f0, f1);
  // Away from borders the integer translation must be recovered at
  // (essentially) every pixel.
  EXPECT_GT(testing::flow_match_fraction(r.flow, 2, -1, 8), 0.98);
}

TEST(Tracker, RecoversUniformTranslationSemiFluid) {
  const imaging::ImageF f0 = testing::textured_pattern(32, 32);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 2);
  const TrackResult r = SmaPipeline(tiny_semifluid()).track_pair(f0, f1);
  EXPECT_GT(testing::flow_match_fraction(r.flow, 1, 2, 8), 0.98);
}

TEST(Tracker, ZeroMotionGivesZeroFlow) {
  const imaging::ImageF f0 = testing::textured_pattern(24, 24);
  const TrackResult r = SmaPipeline(tiny_continuous()).track_pair(f0, f0);
  EXPECT_GT(testing::flow_match_fraction(r.flow, 0, 0, 6), 0.99);
}

TEST(Tracker, ParallelMatchesSequentialContinuous) {
  // Paper, Sec. 5.1: "The parallel algorithm obtained the same result as
  // the sequential implementation."
  const imaging::ImageF f0 = testing::textured_pattern(28, 28);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 1);
  const TrackResult seq = SmaPipeline(tiny_continuous()).track_pair(f0, f1);
  const TrackResult par =
      SmaPipeline(tiny_continuous(), {.backend = "vector"}).track_pair(f0, f1);
  EXPECT_TRUE(seq.flow == par.flow);
}

TEST(Tracker, ParallelMatchesSequentialSemiFluid) {
  const imaging::ImageF f0 = testing::textured_pattern(28, 28);
  const imaging::ImageF f1 = testing::shift_image(f0, -1, 1);
  const TrackResult seq = SmaPipeline(tiny_semifluid()).track_pair(f0, f1);
  const TrackResult par =
      SmaPipeline(tiny_semifluid(), {.backend = "vector"}).track_pair(f0, f1);
  EXPECT_TRUE(seq.flow == par.flow);
}

// Property: hypothesis-row segmentation (Sec. 4.3) never changes the
// result — "once all the segments are processed, the equivalent
// minimization of (7) is complete".
class SegmentationInvariance : public ::testing::TestWithParam<int> {};

TEST_P(SegmentationInvariance, FlowIdenticalForAnyZ) {
  const imaging::ImageF f0 = testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, -1);
  SmaConfig base = tiny_semifluid();
  const TrackResult unseg = SmaPipeline(base).track_pair(f0, f1);
  SmaConfig seg = base;
  seg.segment_rows = GetParam();
  const TrackResult chunked = SmaPipeline(seg).track_pair(f0, f1);
  EXPECT_TRUE(unseg.flow == chunked.flow) << "Z=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SegmentRows, SegmentationInvariance,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Tracker, PrecomputedMatchesNaiveSemiFluid) {
  // The Sec. 4.1 shared-cost-field optimization must be functionally
  // equivalent to recomputing the semi-fluid search per hypothesis.
  const imaging::ImageF f0 = testing::textured_pattern(20, 20);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  SmaConfig pre = tiny_semifluid();
  pre.use_precomputed_mapping = true;
  SmaConfig naive = tiny_semifluid();
  naive.use_precomputed_mapping = false;
  const TrackResult a = SmaPipeline(pre).track_pair(f0, f1);
  const TrackResult b = SmaPipeline(naive).track_pair(f0, f1);
  EXPECT_TRUE(a.flow == b.flow);
}

TEST(Tracker, SemiFluidWithNssZeroEqualsContinuous) {
  // Sec. 2.3: "When N_ss = 0 then F_semi reduces to the mapping F_cont."
  const imaging::ImageF f0 = testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = testing::shift_image(f0, 2, 0);
  SmaConfig semi = tiny_semifluid();
  semi.semifluid_search_radius = 0;
  SmaConfig cont = tiny_continuous();
  const TrackResult a = SmaPipeline(semi).track_pair(f0, f1);
  const TrackResult b = SmaPipeline(cont).track_pair(f0, f1);
  EXPECT_TRUE(a.flow == b.flow);
}

// The one matching stage owns the phase timers, so every backend
// reports semi-fluid mapping time exactly under F_semi and nonzero
// matching time.
class TrackerTimings : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    // maspar-sim is registered explicitly (the core cannot depend on it).
    if (GetParam() == "maspar-sim") maspar::register_maspar_backend();
  }
};

TEST_P(TrackerTimings, TimingsPopulated) {
  const imaging::ImageF f0 = testing::textured_pattern(20, 20);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  const TrackResult r =
      SmaPipeline(tiny_semifluid(), {.backend = GetParam()}).track_pair(f0, f1);
  EXPECT_GT(r.timings.surface_fit, 0.0);
  EXPECT_GT(r.timings.geometric_vars, 0.0);
  EXPECT_GT(r.timings.semifluid_mapping, 0.0);
  EXPECT_GT(r.timings.hypothesis_matching, 0.0);
  EXPECT_GE(r.timings.total, r.timings.hypothesis_matching);
  EXPECT_GT(r.peak_mapping_bytes, 0u);
}

TEST_P(TrackerTimings, ContinuousHasNoMappingPhase) {
  const imaging::ImageF f0 = testing::textured_pattern(20, 20);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  const TrackResult r = SmaPipeline(tiny_continuous(), {.backend = GetParam()})
                            .track_pair(f0, f1);
  EXPECT_EQ(r.timings.semifluid_mapping, 0.0);
  EXPECT_EQ(r.peak_mapping_bytes, 0u);
  EXPECT_GT(r.timings.hypothesis_matching, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TrackerTimings,
    ::testing::Values("sequential", "vector", "maspar-sim"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      // Test names take no '-'.
      return info.param == "maspar-sim" ? std::string("maspar") : info.param;
    });

TEST(Tracker, KeepParamsProducesField) {
  const imaging::ImageF f0 = testing::textured_pattern(20, 20);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  const TrackResult r =
      SmaPipeline(tiny_continuous(), {.track = {.keep_params = true}})
          .track_pair(f0, f1);
  ASSERT_TRUE(r.params.has_value());
  EXPECT_EQ(r.params->ai.width(), 20);
  // Pure translation: deformation parameters small at interior pixels.
  EXPECT_NEAR(r.params->ai.at(10, 10), 0.0, 0.1);
}

TEST(Tracker, NoParamsByDefault) {
  const imaging::ImageF f0 = testing::textured_pattern(16, 16);
  const TrackResult r = SmaPipeline(tiny_continuous()).track_pair(f0, f0);
  EXPECT_FALSE(r.params.has_value());
}

TEST(Tracker, ErrorChannelLowAtCorrectMatch) {
  const imaging::ImageF f0 = testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 1);
  const TrackResult r = SmaPipeline(tiny_continuous()).track_pair(f0, f1);
  const imaging::FlowVector f = r.flow.at(12, 12);
  EXPECT_EQ(f.valid, 1);
  EXPECT_LT(f.error, 1e-3);
}

TEST(Tracker, StereoModeUsesSurfaceAndIntensity) {
  // Surface and intensity differ: the semi-fluid discriminant comes from
  // the intensity image, the normals from the surface (Sec. 2.3).
  const imaging::ImageF intensity0 = testing::textured_pattern(24, 24);
  const imaging::ImageF intensity1 = testing::shift_image(intensity0, 1, 0);
  const imaging::ImageF surf0 = testing::make_image(
      24, 24, [](double x, double y) {
        return 2.0 * std::sin(0.3 * x) + 1.5 * std::cos(0.25 * y) + 0.1 * x;
      });
  const imaging::ImageF surf1 = testing::shift_image(surf0, 1, 0);
  TrackerInput in;
  in.intensity_before = &intensity0;
  in.intensity_after = &intensity1;
  in.surface_before = &surf0;
  in.surface_after = &surf1;
  const TrackResult r = SmaPipeline(tiny_semifluid()).track_pair(in);
  EXPECT_GT(testing::flow_match_fraction(r.flow, 1, 0, 8), 0.9);
}

TEST(Tracker, NullInputThrows) {
  TrackerInput in;  // all null
  EXPECT_THROW(SmaPipeline(tiny_continuous()).track_pair(in),
               std::invalid_argument);
}

TEST(Tracker, ShapeMismatchThrows) {
  const imaging::ImageF a = testing::textured_pattern(16, 16);
  const imaging::ImageF b = testing::textured_pattern(20, 16);
  EXPECT_THROW(SmaPipeline(tiny_continuous()).track_pair(a, b),
               std::invalid_argument);
}

TEST(Tracker, InvalidConfigThrows) {
  const imaging::ImageF a = testing::textured_pattern(16, 16);
  SmaConfig bad = tiny_continuous();
  bad.surface_fit_radius = 0;
  EXPECT_THROW(SmaPipeline(bad).track_pair(a, a), std::invalid_argument);
}

TEST(Tracker, SearchRadiusZeroPinsFlow) {
  const imaging::ImageF f0 = testing::textured_pattern(16, 16);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  SmaConfig c = tiny_continuous();
  c.z_search_radius = 0;  // only the zero hypothesis exists
  const TrackResult r = SmaPipeline(c).track_pair(f0, f1);
  EXPECT_GT(testing::flow_match_fraction(r.flow, 0, 0, 4), 0.99);
}


TEST(Tracker, RectangularSearchFindsAnisotropicMotion) {
  // A wide-but-flat search window (7x3) reaches a (3, 0) displacement
  // that a 3x3 square window cannot, at ~the cost of a 5x5.
  const imaging::ImageF f0 = testing::textured_pattern(32, 32);
  const imaging::ImageF f1 = testing::shift_image(f0, 3, 0);
  SmaConfig c = tiny_continuous();
  c.z_search_radius = 3;
  c.z_search_radius_y = 1;
  const TrackResult r = SmaPipeline(c).track_pair(f0, f1);
  EXPECT_GT(testing::flow_match_fraction(r.flow, 3, 0, 8), 0.95);
}

TEST(Tracker, RectangularTemplateParallelMatchesSequential) {
  const imaging::ImageF f0 = testing::textured_pattern(28, 28);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 1);
  SmaConfig c = tiny_semifluid();
  c.z_template_radius = 4;
  c.z_template_radius_y = 2;
  c.z_search_radius_y = 1;
  const TrackResult seq = SmaPipeline(c).track_pair(f0, f1);
  const TrackResult par =
      SmaPipeline(c, {.backend = "vector"}).track_pair(f0, f1);
  EXPECT_TRUE(seq.flow == par.flow);
}

TEST(Tracker, RectangularSegmentationInvariant) {
  const imaging::ImageF f0 = testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, -1);
  SmaConfig c = tiny_semifluid();
  c.z_search_radius_y = 1;  // 3 hypothesis rows
  const TrackResult whole = SmaPipeline(c).track_pair(f0, f1);
  c.segment_rows = 1;
  const TrackResult chunked = SmaPipeline(c).track_pair(f0, f1);
  EXPECT_TRUE(whole.flow == chunked.flow);
}


TEST(Tracker, SubpixelRefinementRecoversFraction) {
  // True motion 1.5 px: the integer winner is 1 or 2; the parabolic
  // refinement should land near the half-pixel truth.
  const imaging::ImageF f0 = testing::textured_pattern(40, 40);
  imaging::ImageF f1(40, 40);
  for (int y = 0; y < 40; ++y)
    for (int x = 0; x < 40; ++x)
      f1.at(x, y) = static_cast<float>(imaging::bilinear(f0, x - 1.5, y));
  const TrackResult r =
      SmaPipeline(tiny_continuous(), {.track = {.subpixel = true}})
          .track_pair(f0, f1);
  double sum = 0.0;
  int n = 0;
  for (int y = 10; y < 30; ++y)
    for (int x = 10; x < 30; ++x) {
      sum += r.flow.at(x, y).u;
      ++n;
    }
  EXPECT_NEAR(sum / n, 1.5, 0.25);
}

TEST(Tracker, SubpixelZeroOnExactIntegerMotion) {
  const imaging::ImageF f0 = testing::textured_pattern(32, 32);
  const imaging::ImageF f1 = testing::shift_image(f0, 2, 0);
  const TrackResult r =
      SmaPipeline(tiny_continuous(), {.track = {.subpixel = true}})
          .track_pair(f0, f1);
  double max_frac = 0.0;
  for (int y = 10; y < 22; ++y)
    for (int x = 10; x < 22; ++x) {
      const imaging::FlowVector f = r.flow.at(x, y);
      const double frac = std::abs(f.u - std::nearbyint(f.u)) +
                          std::abs(f.v - std::nearbyint(f.v));
      max_frac = std::max(max_frac, frac);
    }
  EXPECT_LT(max_frac, 0.2);
}

TEST(Tracker, SubpixelParallelMatchesSequential) {
  const imaging::ImageF f0 = testing::textured_pattern(28, 28);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 1);
  const TrackResult seq =
      SmaPipeline(tiny_semifluid(), {.track = {.subpixel = true}})
          .track_pair(f0, f1);
  const TrackResult par =
      SmaPipeline(tiny_semifluid(),
                  {.backend = "vector", .track = {.subpixel = true}})
          .track_pair(f0, f1);
  EXPECT_TRUE(seq.flow == par.flow);
}


TEST(Tracker, SingularFlatPatchDegradesGracefully) {
  // A constant image makes every 6x6 system singular: the winning
  // hypothesis never solves, so every pixel must come back invalid with
  // an infinite error and zero confidence — never NaN, never a bogus
  // "valid" zero-error vector.
  const imaging::ImageF flat(24, 24, 42.0f);
  const TrackResult r = SmaPipeline(tiny_continuous()).track_pair(flat, flat);
  EXPECT_EQ(r.flow.count_valid(), 0u);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x) {
      const imaging::FlowVector f = r.flow.at(x, y);
      ASSERT_EQ(f.valid, 0);
      ASSERT_TRUE(std::isinf(f.error)) << "at " << x << "," << y;
      ASSERT_EQ(f.confidence, 0.0f);
      ASSERT_FALSE(std::isnan(f.u));
      ASSERT_FALSE(std::isnan(f.v));
    }
}

TEST(Tracker, SingularDegradationSurvivesSubpixelAndParallel) {
  // The infinite-error contract must hold through the subpixel parabola
  // (inf - inf would be NaN) and match across execution policies.
  const imaging::ImageF flat(20, 20, 7.0f);
  const TrackResult seq =
      SmaPipeline(tiny_continuous(), {.track = {.subpixel = true}})
          .track_pair(flat, flat);
  const TrackResult par =
      SmaPipeline(tiny_continuous(),
                  {.backend = "vector", .track = {.subpixel = true}})
          .track_pair(flat, flat);
  EXPECT_TRUE(seq.flow == par.flow);
  EXPECT_EQ(seq.flow.count_valid(), 0u);
  for (int y = 0; y < 20; ++y)
    for (int x = 0; x < 20; ++x) {
      ASSERT_FALSE(std::isnan(seq.flow.at(x, y).u));
      ASSERT_FALSE(std::isnan(seq.flow.at(x, y).v));
    }
}

TEST(Tracker, MaskShapeMismatchThrows) {
  const imaging::ImageF f0 = testing::textured_pattern(16, 16);
  const imaging::ImageU8 wrong(8, 8, 1);
  TrackerInput in;
  in.intensity_before = in.surface_before = &f0;
  in.intensity_after = in.surface_after = &f0;
  in.validity_before = &wrong;
  EXPECT_THROW(SmaPipeline(tiny_continuous()).track_pair(in),
               std::invalid_argument);
}

TEST(Tracker, NonFiniteInputRejected) {
  // Failure injection: a single NaN (sensor dropout) must be rejected up
  // front rather than silently poisoning the normal equations.
  imaging::ImageF f0 = testing::textured_pattern(16, 16);
  imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  f1.at(8, 8) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(SmaPipeline(tiny_continuous()).track_pair(f0, f1),
               std::invalid_argument);
  f1.at(8, 8) = std::numeric_limits<float>::infinity();
  EXPECT_THROW(SmaPipeline(tiny_continuous()).track_pair(f0, f1),
               std::invalid_argument);
}

}  // namespace
}  // namespace sma::core
