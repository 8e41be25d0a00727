// Tests for core/hierarchical.hpp — coarse-to-fine SMA (Sec. 6 future
// work, implemented as an extension).
#include "core/hierarchical.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "goes/synth.hpp"
#include "helpers.hpp"

namespace sma::core {
namespace {

SmaConfig coarse_config(int search = 2) {
  SmaConfig c;
  c.model = MotionModel::kContinuous;
  c.surface_fit_radius = 2;
  c.z_template_radius = 3;
  c.z_search_radius = search;
  return c;
}

TEST(UpsampleFlow, DoublesVectorsWithResolution) {
  const imaging::FlowField coarse =
      sma::testing::constant_flow(8, 8, 1.5f, -0.5f);
  const imaging::FlowField fine = upsample_flow(coarse, 16, 16);
  EXPECT_EQ(fine.width(), 16);
  EXPECT_NEAR(fine.at(8, 8).u, 3.0f, 1e-5);
  EXPECT_NEAR(fine.at(8, 8).v, -1.0f, 1e-5);
  EXPECT_EQ(fine.count_valid(), 256u);
}

TEST(UpsampleFlow, IdentityAtSameSize) {
  const imaging::FlowField f = sma::testing::constant_flow(8, 8, 2.0f, 1.0f);
  const imaging::FlowField same = upsample_flow(f, 8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      EXPECT_NEAR(same.at(x, y).u, 2.0f, 1e-5);
      EXPECT_NEAR(same.at(x, y).v, 1.0f, 1e-5);
    }
}

TEST(Hierarchical, SingleLevelEqualsFlatTracker) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(32, 32);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 2, -1);
  HierarchicalOptions opts;
  opts.levels = 1;
  opts.coarse = coarse_config();
  const HierarchicalResult h = track_pair_hierarchical(f0, f1, opts);
  // The hierarchy forces sub-pixel refinement at every level.
  const TrackResult flat =
      SmaPipeline(opts.coarse, {.track = {.subpixel = true}})
          .track_pair(f0, f1);
  EXPECT_TRUE(h.flow == flat.flow);
  EXPECT_EQ(h.levels_used, 1);
}

TEST(Hierarchical, ReachesDisplacementBeyondFlatSearch) {
  // Motion of 6 px with a coarse search radius of 2: a flat tracker
  // cannot reach it, the 3-level hierarchy can (the coarsest level sees
  // 1.5 px).  Realistic multiscale clouds: decimation must preserve
  // trackable structure.
  const imaging::ImageF base = goes::fractal_clouds(96, 96, 7);
  const imaging::ImageF moved = sma::testing::shift_image(base, 6, 0);

  const TrackResult flat =
      SmaPipeline(coarse_config(2)).track_pair(base, moved);
  EXPECT_LT(sma::testing::flow_match_fraction(flat.flow, 6, 0, 16), 0.1);

  HierarchicalOptions opts;
  opts.levels = 3;
  opts.coarse = coarse_config(2);
  opts.refine_search_radius = 1;
  const HierarchicalResult h = track_pair_hierarchical(base, moved, opts);
  int close = 0, total = 0;
  for (int y = 16; y < 80; ++y)
    for (int x = 16; x < 80; ++x) {
      const imaging::FlowVector f = h.flow.at(x, y);
      if (std::abs(f.u - 6.0f) <= 1.0f && std::abs(f.v) <= 1.0f) ++close;
      ++total;
    }
  EXPECT_GT(static_cast<double>(close) / total, 0.9);
}

TEST(Hierarchical, TimingsPerLevel) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(32, 32);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 1, 1);
  HierarchicalOptions opts;
  opts.levels = 3;
  opts.coarse = coarse_config();
  const HierarchicalResult h = track_pair_hierarchical(f0, f1, opts);
  EXPECT_EQ(h.level_timings.size(), static_cast<std::size_t>(h.levels_used));
  EXPECT_GT(h.total_seconds(), 0.0);
}

TEST(Hierarchical, SmallMotionStillAccurate) {
  // The hierarchy must not hurt the easy case (sub-pixel-true motion at
  // the coarse level is the hard part; see hierarchical.cpp comments).
  const imaging::ImageF f0 = goes::fractal_clouds(64, 64, 7);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 1, 1);
  HierarchicalOptions opts;
  opts.levels = 2;
  opts.coarse = coarse_config(2);
  const HierarchicalResult h = track_pair_hierarchical(f0, f1, opts);
  const imaging::FlowField truth = sma::testing::constant_flow(64, 64, 1, 1);
  EXPECT_LT(imaging::rms_endpoint_error(h.flow, truth, 14), 0.8);
}

TEST(Hierarchical, RejectsBadOptions) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(16, 16);
  HierarchicalOptions opts;
  opts.levels = 0;
  EXPECT_THROW(track_pair_hierarchical(f0, f0, opts), std::invalid_argument);
  opts.levels = 2;
  opts.refine_search_radius = -1;
  EXPECT_THROW(track_pair_hierarchical(f0, f0, opts), std::invalid_argument);
}

TEST(Hierarchical, SemiFluidCoarseLevelSupported) {
  const imaging::ImageF f0 = goes::fractal_clouds(64, 64, 9);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 2, 2);
  HierarchicalOptions opts;
  opts.levels = 2;
  opts.coarse = coarse_config(2);
  opts.coarse.model = MotionModel::kSemiFluid;
  opts.coarse.semifluid_search_radius = 1;
  opts.coarse.semifluid_template_radius = 2;
  const HierarchicalResult h = track_pair_hierarchical(f0, f1, opts);
  const imaging::FlowField truth = sma::testing::constant_flow(64, 64, 2, 2);
  EXPECT_LT(imaging::rms_endpoint_error(h.flow, truth, 14), 1.0);
}

}  // namespace
}  // namespace sma::core
