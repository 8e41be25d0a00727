// Parameterized property sweeps for the tracker: every displacement in
// the search range must be recovered, under both motion models and both
// execution policies — the dense version of the paper's validation.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/tracker.hpp"
#include "helpers.hpp"

namespace sma::core {
namespace {

struct SweepCase {
  int dx, dy;
  MotionModel model;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string s = c.model == MotionModel::kSemiFluid ? "semi" : "cont";
  s += "_dx" + std::to_string(c.dx + 3) + "_dy" + std::to_string(c.dy + 3);
  return s;
}

class TranslationSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TranslationSweep, RecoveredDensely) {
  const SweepCase c = GetParam();
  SmaConfig cfg;
  cfg.model = c.model;
  cfg.surface_fit_radius = 2;
  cfg.z_template_radius = 3;
  cfg.z_search_radius = 3;
  cfg.semifluid_search_radius = 1;
  cfg.semifluid_template_radius = 2;

  const imaging::ImageF f0 = testing::textured_pattern(32, 32);
  const imaging::ImageF f1 = testing::shift_image(f0, c.dx, c.dy);
  const TrackResult r =
      SmaPipeline(cfg, {.backend = "vector"}).track_pair(f0, f1);
  EXPECT_GT(testing::flow_match_fraction(r.flow, c.dx, c.dy, 9), 0.95)
      << "displacement (" << c.dx << "," << c.dy << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Continuous, TranslationSweep,
    ::testing::Values(SweepCase{0, 0, MotionModel::kContinuous},
                      SweepCase{3, 0, MotionModel::kContinuous},
                      SweepCase{-3, 0, MotionModel::kContinuous},
                      SweepCase{0, 3, MotionModel::kContinuous},
                      SweepCase{0, -3, MotionModel::kContinuous},
                      SweepCase{2, 2, MotionModel::kContinuous},
                      SweepCase{-2, 3, MotionModel::kContinuous},
                      SweepCase{3, -3, MotionModel::kContinuous},
                      SweepCase{1, -2, MotionModel::kContinuous}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    SemiFluid, TranslationSweep,
    ::testing::Values(SweepCase{0, 0, MotionModel::kSemiFluid},
                      SweepCase{3, 0, MotionModel::kSemiFluid},
                      SweepCase{-2, -2, MotionModel::kSemiFluid},
                      SweepCase{0, -3, MotionModel::kSemiFluid},
                      SweepCase{2, 3, MotionModel::kSemiFluid},
                      SweepCase{-3, 1, MotionModel::kSemiFluid}),
    case_name);

// Rotation + divergence: the affine parameters of the winning hypothesis
// reflect the local deformation field (Eq. 6).
class DeformationSweep : public ::testing::TestWithParam<double> {};

TEST_P(DeformationSweep, DilationRecoveredInParams) {
  const double s = GetParam();  // isotropic dilation rate
  const int size = 40;
  const double c = size / 2.0;
  const imaging::ImageF f0 = testing::textured_pattern(size, size);
  imaging::ImageF f1(size, size);
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x)
      f1.at(x, y) = static_cast<float>(imaging::bilinear(
          f0, c + (x - c) / (1.0 + s), c + (y - c) / (1.0 + s)));

  SmaConfig cfg;
  cfg.model = MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_template_radius = 4;
  cfg.z_search_radius = 2;
  const TrackResult r =
      SmaPipeline(cfg, {.backend = "vector", .track = {.keep_params = true}})
          .track_pair(f0, f1);
  ASSERT_TRUE(r.params.has_value());
  // Near the center the motion is pure dilation: a_i ~ b_j ~ s > 0.
  double ai = 0.0, bj = 0.0;
  int n = 0;
  for (int y = 17; y < 24; ++y)
    for (int x = 17; x < 24; ++x) {
      ai += r.params->ai.at(x, y);
      bj += r.params->bj.at(x, y);
      ++n;
    }
  ai /= n;
  bj /= n;
  EXPECT_GT(ai, 0.2 * s);
  EXPECT_GT(bj, 0.2 * s);
  EXPECT_LT(ai, 3.0 * s);
  EXPECT_LT(bj, 3.0 * s);
}

INSTANTIATE_TEST_SUITE_P(Rates, DeformationSweep,
                         ::testing::Values(0.05, 0.1));

}  // namespace
}  // namespace sma::core
