// Tests for core/autotune.hpp — data-driven configuration.
#include "core/autotune.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/tracker.hpp"
#include "goes/synth.hpp"
#include "helpers.hpp"

namespace sma::core {
namespace {

TEST(AnalyzeScene, SinusoidWavelengthRecovered) {
  // z = sin(2*pi*x / L): std = 1/sqrt(2), mean|grad| = (2*pi/L)*(2/pi)
  // -> wavelength estimate ~ (pi/sqrt(2))/(2/pi) * ... ≈ 1.11 L; the
  // estimator is a scale proxy, so accept +-25%.
  const double L = 16.0;
  const imaging::ImageF img = sma::testing::make_image(
      128, 128, [L](double x, double) {
        return 100.0 + 50.0 * std::sin(2.0 * M_PI * x / L);
      });
  const SceneAnalysis a = analyze_scene(img);
  EXPECT_NEAR(a.texture_wavelength, 1.11 * L, 0.25 * L);
}

TEST(AnalyzeScene, FlatSceneHasNoTexture) {
  const SceneAnalysis a = analyze_scene(imaging::ImageF(32, 32, 7.0f));
  EXPECT_EQ(a.texture_strength, 0.0);
  EXPECT_EQ(a.texture_wavelength, 0.0);
}

TEST(SuggestConfig, SearchCoversDisplacement) {
  const imaging::ImageF img = goes::fractal_clouds(64, 64, 3);
  AutotuneOptions opts;
  opts.max_displacement_px = 4.3;
  const SmaConfig cfg = suggest_config(img, opts);
  EXPECT_GE(cfg.z_search_radius, 5);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SuggestConfig, FineTextureGetsSmallerTemplate) {
  const imaging::ImageF fine = sma::testing::make_image(
      96, 96, [](double x, double y) {
        return 128.0 + 50.0 * std::sin(1.2 * x) * std::cos(1.1 * y);
      });
  const imaging::ImageF coarse = sma::testing::make_image(
      96, 96, [](double x, double y) {
        return 128.0 + 50.0 * std::sin(0.15 * x) * std::cos(0.12 * y);
      });
  const SmaConfig cf = suggest_config(fine);
  const SmaConfig cc = suggest_config(coarse);
  EXPECT_LT(cf.z_template_radius, cc.z_template_radius);
}

TEST(SuggestConfig, FlatSceneFallsBackToMaxTemplate) {
  AutotuneOptions opts;
  const SmaConfig cfg = suggest_config(imaging::ImageF(32, 32, 1.0f), opts);
  EXPECT_EQ(cfg.z_template_radius, opts.max_template_radius);
}

TEST(SuggestConfig, ModelSelection) {
  const imaging::ImageF img = goes::fractal_clouds(32, 32, 3);
  AutotuneOptions opts;
  opts.semifluid = false;
  EXPECT_EQ(suggest_config(img, opts).model, MotionModel::kContinuous);
  opts.semifluid = true;
  EXPECT_EQ(suggest_config(img, opts).model, MotionModel::kSemiFluid);
}

TEST(SuggestConfig, SuggestedConfigTracksWell) {
  // End to end: the suggested configuration recovers a known wind.
  const imaging::ImageF f0 = goes::fractal_clouds(64, 64, 7);
  const goes::WindModel wind = goes::uniform_shear(2.0, -1.0, 0.0);
  const imaging::ImageF f1 = goes::advect_frame(f0, wind);
  AutotuneOptions opts;
  opts.max_displacement_px = 2.5;
  const SmaConfig cfg = suggest_config(f0, opts);
  const TrackResult r =
      SmaPipeline(cfg, {.backend = "vector"}).track_pair(f0, f1);
  const imaging::FlowField truth = goes::wind_to_flow(64, 64, wind);
  EXPECT_LT(imaging::rms_endpoint_error(r.flow, truth, 12), 0.75);
}

}  // namespace
}  // namespace sma::core
