// Tests for goes/domains.hpp — the paper's Sec. 1 application domains
// (ocean eddies, dividing microorganisms) exercised end to end.
#include "goes/domains.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/sma.hpp"
#include "goes/storm_track.hpp"
#include "imaging/stats.hpp"

namespace sma::goes {
namespace {

TEST(OceanEddy, DatasetShape) {
  const OceanEddyDataset d = make_ocean_eddy_analog(64, 5, 2.0);
  EXPECT_EQ(d.sst0.width(), 64);
  EXPECT_TRUE(d.sst0.same_shape(d.sst1));
  EXPECT_EQ(d.tracks.size(), 32u);
}

TEST(OceanEddy, DipoleStructure) {
  const OceanEddyDataset d = make_ocean_eddy_analog(96, 5, 2.0);
  // Counter-rotation: opposite-signed vorticity at the two eddy cores.
  const imaging::ImageF vort = vorticity(d.truth);
  EXPECT_GT(vort.at(31, 48), 0.0f);   // western eddy counterclockwise
  EXPECT_LT(vort.at(65, 48), 0.0f);   // eastern eddy clockwise
}

TEST(OceanEddy, SmaTracksEddies) {
  const OceanEddyDataset d = make_ocean_eddy_analog(64, 5, 2.0);
  core::SmaConfig cfg = core::goes9_scaled_config();
  cfg.z_search_radius = 3;
  const core::TrackResult r =
      core::SmaPipeline(cfg, {.backend = "vector"}).track_pair(d.sst0, d.sst1);
  EXPECT_LT(imaging::rms_endpoint_error(r.flow, d.tracks), 1.0);
}

TEST(Cells, DatasetShape) {
  const CellDataset d = make_cell_analog(72, 4, 11, 2.0);
  EXPECT_EQ(d.frame0.width(), 72);
  // 4 cells: the mother contributes two daughter tracks.
  EXPECT_EQ(d.tracks.size(), 5u);
  // Cells are bright on a dark background.
  EXPECT_GT(imaging::summarize(d.frame0).max, 100.0);
}

TEST(Cells, SemiFluidTracksFission) {
  // The fission case: two halves of the mother template move apart — a
  // within-template discontinuity only F_semi can represent.  Require
  // the daughters' motions to be recovered with the correct opposite
  // x-senses.
  const CellDataset d = make_cell_analog(72, 4, 11, 2.0);
  core::SmaConfig cfg = core::frederic_scaled_config();
  cfg.z_search_radius = 4;
  const core::TrackResult r =
      core::SmaPipeline(cfg, {.backend = "vector"})
          .track_pair(d.frame0, d.frame1);
  // tracks[0]/tracks[1] are the daughters (moving -x and +x relative to
  // the mother velocity).
  const imaging::FlowVector left = r.flow.at(d.tracks[0].x, d.tracks[0].y);
  const imaging::FlowVector right = r.flow.at(d.tracks[1].x, d.tracks[1].y);
  EXPECT_LT(left.u, right.u - 1.5) << "daughters must separate in x";
  EXPECT_NEAR(left.u, d.tracks[0].u, 2.0);
  EXPECT_NEAR(right.u, d.tracks[1].u, 2.0);
}

TEST(Cells, OrdinaryCellsTrackedSubPixel) {
  const CellDataset d = make_cell_analog(72, 4, 11, 2.0);
  core::SmaConfig cfg = core::frederic_scaled_config();
  cfg.z_search_radius = 3;
  const core::TrackResult r =
      core::SmaPipeline(cfg, {.backend = "vector", .track = {.subpixel = true}})
          .track_pair(d.frame0, d.frame1);
  // Skip the two fission daughters; check the rigid movers.
  double worst = 0.0;
  for (std::size_t i = 2; i < d.tracks.size(); ++i) {
    const imaging::FlowVector f = r.flow.at(d.tracks[i].x, d.tracks[i].y);
    worst = std::max(worst, std::hypot(f.u - d.tracks[i].u,
                                       f.v - d.tracks[i].v));
  }
  EXPECT_LT(worst, 1.3);
}

}  // namespace
}  // namespace sma::goes
