// Tests for stereo/coupled.hpp — coupled stereo and motion analysis
// (paper Sec. 6 future work / ref [10]).
#include "stereo/coupled.hpp"

#include <gtest/gtest.h>

#include <random>

#include "goes/datasets.hpp"
#include "imaging/stats.hpp"

namespace sma::stereo {
namespace {

// Adds deterministic zero-mean noise to an image.
imaging::ImageF with_noise(const imaging::ImageF& img, double amplitude,
                           unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-amplitude, amplitude);
  imaging::ImageF out = img;
  for (int y = 0; y < out.height(); ++y)
    for (int x = 0; x < out.width(); ++x)
      out.at(x, y) += static_cast<float>(dist(rng));
  return out;
}

double disparity_rms(const imaging::ImageF& est, const imaging::ImageF& truth,
                     int margin) {
  double sum = 0.0;
  int n = 0;
  for (int y = margin; y < truth.height() - margin; ++y)
    for (int x = margin; x < truth.width() - margin; ++x) {
      const double d = est.at(x, y) - truth.at(x, y);
      sum += d * d;
      ++n;
    }
  return std::sqrt(sum / n);
}

CoupledOptions default_options() {
  CoupledOptions o;
  o.stereo.levels = 3;
  o.motion = core::frederic_scaled_config();
  o.motion.z_search_radius = 3;
  o.backend = "tiled";
  o.iterations = 2;
  return o;
}

TEST(Coupled, RunsAndReportsConvergenceTrace) {
  const goes::FredericDataset d = goes::make_frederic_analog(64, 31, 2.0);
  const CoupledResult r = coupled_stereo_motion(
      d.left0, d.right0, d.left1, d.right1, d.geometry, default_options());
  EXPECT_EQ(r.disparity_updates.size(), 2u);
  EXPECT_EQ(r.disparity0.width(), 64);
  EXPECT_GT(r.flow.count_valid(), 0u);
  // Updates shrink as the loop converges.
  EXPECT_LE(r.disparity_updates[1], r.disparity_updates[0] + 1e-6);
}

TEST(Coupled, TemporalFusionDampsStereoNoise) {
  // Corrupt the right images so the independent disparity is noisy; the
  // motion-compensated temporal fusion averages two (independently
  // noisy) measurements and must come out closer to the truth.
  const goes::FredericDataset d = goes::make_frederic_analog(64, 31, 2.0);
  const imaging::ImageF right0 = with_noise(d.right0, 12.0, 1);
  const imaging::ImageF right1 = with_noise(d.right1, 12.0, 2);

  CoupledOptions opts = default_options();
  const DisparityMap independent1 =
      asa_disparity(d.left1, right1, opts.stereo);
  const CoupledResult coupled = coupled_stereo_motion(
      d.left0, right0, d.left1, right1, d.geometry, opts);

  const double rms_independent =
      disparity_rms(independent1.disparity, d.disparity1, 10);
  const double rms_coupled =
      disparity_rms(coupled.disparity1, d.disparity1, 10);
  EXPECT_LT(rms_coupled, rms_independent);
}

TEST(Coupled, MotionStaysAccurate) {
  const goes::FredericDataset d = goes::make_frederic_analog(64, 31, 2.0);
  const CoupledResult r = coupled_stereo_motion(
      d.left0, d.right0, d.left1, d.right1, d.geometry, default_options());
  EXPECT_LT(imaging::rms_endpoint_error(r.flow, d.tracks), 1.2);
}

TEST(Coupled, ValidatesOptions) {
  const goes::FredericDataset d = goes::make_frederic_analog(32, 3, 1.5);
  CoupledOptions bad = default_options();
  bad.iterations = 0;
  EXPECT_THROW(coupled_stereo_motion(d.left0, d.right0, d.left1, d.right1,
                                     d.geometry, bad),
               std::invalid_argument);
  bad = default_options();
  bad.blend = 1.5;
  EXPECT_THROW(coupled_stereo_motion(d.left0, d.right0, d.left1, d.right1,
                                     d.geometry, bad),
               std::invalid_argument);
}

TEST(Coupled, BlendOneKeepsMeasurements) {
  // blend = 1: fusion is a no-op, disparities equal the raw ASA output.
  const goes::FredericDataset d = goes::make_frederic_analog(48, 7, 1.5);
  CoupledOptions opts = default_options();
  opts.blend = 1.0;
  opts.iterations = 1;
  const CoupledResult r = coupled_stereo_motion(
      d.left0, d.right0, d.left1, d.right1, d.geometry, opts);
  const DisparityMap raw = asa_disparity(d.left0, d.right0, opts.stereo);
  EXPECT_LT(imaging::max_abs_difference(r.disparity0, raw.disparity), 1e-5);
}

}  // namespace
}  // namespace sma::stereo
