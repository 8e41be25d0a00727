// End-to-end integration: synthetic GOES analogs -> (optionally ASA
// stereo) -> SMA tracking -> accuracy versus the "manual" reference
// tracks, mirroring the paper's Sec. 5 validation ("a root-mean-squared
// error of less than one pixel with respect to the manual estimates").
#include <gtest/gtest.h>

#include "core/sma.hpp"
#include "imaging/convolve.hpp"
#include "goes/datasets.hpp"
#include "stereo/asa.hpp"

namespace sma {
namespace {

core::SmaConfig scaled_semifluid() {
  core::SmaConfig c = core::frederic_scaled_config();
  c.z_search_radius = 3;  // covers the 2.5 px/frame analog winds
  return c;
}

TEST(Pipeline, FredericMonocularRmsUnderOnePixel) {
  const goes::FredericDataset d = goes::make_frederic_analog(64, 31, 2.5);
  const core::TrackResult r =
      core::SmaPipeline(scaled_semifluid(), {.backend = "tiled"})
          .track_pair(d.left0, d.left1);
  const double rms = imaging::rms_endpoint_error(r.flow, d.tracks);
  EXPECT_LT(rms, 1.0) << "paper criterion: sub-pixel RMS vs manual tracks";
}

TEST(Pipeline, FredericStereoSurfacesRmsUnderOnePixel) {
  // Full pipeline: ASA heights at both steps feed the tracker's surface
  // channel while intensity drives the semi-fluid discriminant.
  const goes::FredericDataset d = goes::make_frederic_analog(64, 31, 2.5);
  stereo::AsaOptions sopts;
  sopts.levels = 3;
  const stereo::DisparityMap d0 =
      stereo::asa_disparity(d.left0, d.right0, sopts);
  const stereo::DisparityMap d1 =
      stereo::asa_disparity(d.left1, d.right1, sopts);
  const imaging::ImageF z0 = imaging::gaussian_blur(
      goes::heights_from_disparity(d0.disparity, d.geometry), 1.0);
  const imaging::ImageF z1 = imaging::gaussian_blur(
      goes::heights_from_disparity(d1.disparity, d.geometry), 1.0);

  core::TrackerInput in;
  in.intensity_before = &d.left0;
  in.intensity_after = &d.left1;
  in.surface_before = &z0;
  in.surface_after = &z1;
  const core::TrackResult r =
      core::SmaPipeline(scaled_semifluid(), {.backend = "tiled"})
          .track_pair(in);
  const double rms = imaging::rms_endpoint_error(r.flow, d.tracks);
  EXPECT_LT(rms, 1.2);
}

TEST(Pipeline, FloridaContinuousTracking) {
  // GOES-9 rapid-scan analog with the continuous model (Sec. 5.2).
  const goes::RapidScanDataset d = goes::make_florida_analog(64, 3, 13, 1.5);
  const core::TrackResult r =
      core::SmaPipeline(core::goes9_scaled_config(), {.backend = "tiled"})
          .track_pair(d.frames[0], d.frames[1]);
  EXPECT_LT(imaging::rms_endpoint_error(r.flow, d.tracks), 1.0);
}

TEST(Pipeline, LuisSequenceConsecutivePairs) {
  // Several consecutive pairs of the Luis analog, continuous model.
  const goes::RapidScanDataset d = goes::make_luis_analog(48, 4, 29, 1.5);
  for (std::size_t i = 0; i + 1 < d.frames.size(); ++i) {
    const core::TrackResult r =
        core::SmaPipeline(core::luis_scaled_config(), {.backend = "tiled"})
            .track_pair(d.frames[i], d.frames[i + 1]);
    EXPECT_LT(imaging::rms_endpoint_error(r.flow, d.tracks), 1.2)
        << "pair " << i;
  }
}

TEST(Pipeline, DenseErrorAgainstGroundTruthSubPixelMedian) {
  // Dense comparison against the analytic wind field: the integer SMA
  // flow should land within one pixel nearly everywhere in the interior.
  const goes::FredericDataset d = goes::make_frederic_analog(64, 31, 2.0);
  const core::TrackResult r =
      core::SmaPipeline(scaled_semifluid(), {.backend = "tiled"})
          .track_pair(d.left0, d.left1);
  const double rms = imaging::rms_endpoint_error(r.flow, d.truth, 12);
  EXPECT_LT(rms, 1.0);
}

}  // namespace
}  // namespace sma
