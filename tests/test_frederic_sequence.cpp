// Integration: the T=4 Frederic stereo sequence end to end (Sec. 5.1's
// actual dataset shape) — ASA heights at every step, semi-fluid SMA on
// every consecutive pair, sub-pixel accuracy at each interval.
#include <gtest/gtest.h>

#include "core/sma.hpp"
#include "goes/datasets.hpp"
#include "imaging/convolve.hpp"
#include "stereo/asa.hpp"

namespace sma {
namespace {

TEST(FredericSequence, BuilderShapes) {
  const goes::FredericSequence seq =
      goes::make_frederic_sequence(48, 4, 31, 2.0);
  EXPECT_EQ(seq.left.size(), 4u);
  EXPECT_EQ(seq.right.size(), 4u);
  EXPECT_EQ(seq.height.size(), 4u);
  EXPECT_EQ(seq.left[2].width(), 48);
  EXPECT_FALSE(seq.tracks.empty());
}

TEST(FredericSequence, FirstPairMatchesTwoStepBuilder) {
  const goes::FredericSequence seq =
      goes::make_frederic_sequence(48, 4, 31, 2.0);
  const goes::FredericDataset pair = goes::make_frederic_analog(48, 31, 2.0);
  EXPECT_TRUE(seq.left[0] == pair.left0);
  EXPECT_TRUE(seq.left[1] == pair.left1);
  EXPECT_TRUE(seq.right[0] == pair.right0);
}

TEST(FredericSequence, AllIntervalsTrackSubPixel) {
  // The paper's T=4 run: every consecutive stereo pair produces a dense
  // field with sub-pixel RMS against the manual tracks.
  const int size = 64;
  const goes::FredericSequence seq =
      goes::make_frederic_sequence(size, 4, 31, 2.0);

  stereo::AsaOptions sopts;
  sopts.levels = 3;
  std::vector<imaging::ImageF> heights;
  for (int t = 0; t < 4; ++t) {
    const stereo::DisparityMap d =
        stereo::asa_disparity(seq.left[static_cast<std::size_t>(t)],
                              seq.right[static_cast<std::size_t>(t)], sopts);
    heights.push_back(imaging::gaussian_blur(
        goes::heights_from_disparity(d.disparity, seq.geometry), 1.0));
  }

  core::SmaConfig cfg = core::frederic_scaled_config();
  cfg.z_search_radius = 3;
  core::SmaPipeline pipeline(cfg, {.backend = "vector"});
  for (int t = 0; t + 1 < 4; ++t) {
    core::TrackerInput in;
    in.intensity_before = &seq.left[static_cast<std::size_t>(t)];
    in.intensity_after = &seq.left[static_cast<std::size_t>(t + 1)];
    in.surface_before = &heights[static_cast<std::size_t>(t)];
    in.surface_after = &heights[static_cast<std::size_t>(t + 1)];
    const core::TrackResult r = pipeline.track_pair(in);
    // The wind is stationary: the same reference tracks apply per pair.
    const double rms = imaging::rms_endpoint_error(r.flow, seq.tracks);
    EXPECT_LT(rms, 1.0) << "interval " << t << " -> " << t + 1;
  }
}

}  // namespace
}  // namespace sma
