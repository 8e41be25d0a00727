// Unit and integration tests for core/tracker.hpp — the paper's own
// validation criteria: parallel == sequential, segmentation-invariant,
// dense recovery of known motion — and the one pixel-tile policy,
// core::pixel_tiles.
#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/semifluid.hpp"
#include "helpers.hpp"
#include "maspar/backend.hpp"
#include "sched/scheduler.hpp"

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

// ---------------------------------------------------------------------------
// The pixel-tile policy: under full search the vector tile kernel's
// autotuned tiles grow with the template until the halo at most doubles
// the tile, keeping two tiles per executor and at most 8192 centers;
// the per-pixel passes and pruned search keep choose_tile_shape's tiles.
// ---------------------------------------------------------------------------

class PixelTiles : public ::testing::Test {
 protected:
  // pixel_tiles for `executors` executors (a shared pool that wide) and
  // a square template of radius `radius`.
  static std::vector<sched::Tile> tiles_for(
      int w, int h, int radius, int executors, int kernel_lanes,
      int tile_w = 0, int tile_h = 0,
      SearchMode mode = SearchMode::kFull) {
    const testing::PoolWidth pool(executors);
    SmaConfig cfg;
    cfg.z_template_radius = radius;
    cfg.tile_width = tile_w;
    cfg.tile_height = tile_h;
    cfg.search_mode = mode;
    return pixel_tiles(w, h, cfg, /*parallel=*/true, kernel_lanes);
  }
};

int tile_count(int side, int w, int h) {
  return ((side + w - 1) / w) * ((side + h - 1) / h);
}

struct TileCase {
  const char* what;
  int side, radius, executors;
  int width, height;  // the pinned shape
  enum Stop { kHalo, kFloor, kCap } stop;
};

TEST_F(PixelTiles, KernelTilesGrowWithTheTemplate) {
  for (const TileCase& c : {
           // semi_pair's F_semi windows (9x9 template): 8x16 -> 16x32.
           TileCase{"48^2, 9x9 template", 48, 4, 2, 16, 32, TileCase::kHalo},
           // The Sec. 5 Luis windows (11x11 template): 16x16 -> 32x32.
           TileCase{"64^2, 11x11 template", 64, 5, 2, 32, 32,
                    TileCase::kHalo},
           // An out-of-core shard crop: the 7x7 halo is already small.
           TileCase{"114^2 crop, 7x7 template", 114, 3, 2, 32, 32,
                    TileCase::kHalo},
           // Table 1's 121x121 template: 32x32 -> 64x128, where the next
           // doubling would leave one tile per executor.
           TileCase{"256^2, 121x121 template", 256, 60, 4, 64, 128,
                    TileCase::kFloor},
           // The same windows on 512^2 stop at the 8192-center bound.
           TileCase{"512^2, 121x121 template", 512, 60, 4, 64, 128,
                    TileCase::kCap},
       }) {
    SCOPED_TRACE(c.what);
    for (const int lanes : {1, 2, 4, 8}) {
      const std::vector<sched::Tile> tiles =
          tiles_for(c.side, c.side, c.radius, c.executors, lanes);
      ASSERT_FALSE(tiles.empty());
      EXPECT_EQ(tiles[0].width(), c.width) << lanes << " lanes";
      EXPECT_EQ(tiles[0].height(), c.height) << lanes << " lanes";
      EXPECT_GE(tiles.size(), 2u * c.executors) << lanes << " lanes";
      EXPECT_LE(tiles[0].width() * tiles[0].height(), 8192);
    }
    const long long halo = (c.width + 2LL * c.radius) *
                           (c.height + 2LL * c.radius);
    const long long tile = 1LL * c.width * c.height;
    // The next doubling of the smaller side (the height on a tie).
    const int nw = c.height <= c.width ? c.width : 2 * c.width;
    const int nh = c.height <= c.width ? 2 * c.height : c.height;
    switch (c.stop) {
      case TileCase::kHalo:
        EXPECT_LE(halo, 2 * tile);
        break;
      case TileCase::kFloor:
        EXPECT_GT(halo, 2 * tile);
        EXPECT_LT(tile_count(c.side, nw, nh), 2 * c.executors);
        break;
      case TileCase::kCap:
        EXPECT_GT(halo, 2 * tile);
        EXPECT_GE(tile_count(c.side, nw, nh), 2 * c.executors);
        EXPECT_GT(nw * nh, 8192);
        break;
    }
  }
}

// The per-pixel passes (staged search, sub-pixel refinement) have no
// halo to save, and a pruned sweep's per-tile hypothesis union grows
// with the tile: both keep choose_tile_shape's slack.
TEST_F(PixelTiles, PerPixelPassesAndPrunedSearchDoNotGrow) {
  const sched::TileShape base = sched::choose_tile_shape(256, 256, 4);
  for (const std::vector<sched::Tile>& tiles :
       {tiles_for(256, 256, 60, 4, 0),
        tiles_for(256, 256, 60, 4, 8, 0, 0, SearchMode::kPruned)}) {
    ASSERT_FALSE(tiles.empty());
    EXPECT_EQ(tiles[0].width(), base.width);
    EXPECT_EQ(tiles[0].height(), base.height);
  }
  // Without a kernel the width is not rounded to lanes either.
  const sched::TileShape small = sched::choose_tile_shape(40, 40, 8);
  EXPECT_EQ(tiles_for(40, 40, 1, 8, 0)[0].width(), small.width);
}

// Kernel widths are whole lane batches except at the frame's right
// edge; a small frame on a wide pool keeps two tiles per executor and
// never grows.
TEST_F(PixelTiles, WidthsAreWholeLaneBatches) {
  for (const int lanes : {1, 2, 4, 8}) {
    for (const int side : {40, 77}) {
      const std::vector<sched::Tile> tiles = tiles_for(side, side, 1, 8, lanes);
      for (const sched::Tile& t : tiles) {
        if (t.x1 != side) {
          EXPECT_EQ(t.width() % lanes, 0) << side;
        }
      }
    }
  }
  // choose_tile_shape's 4x8 on 40^2 for 8 executors: 8 lanes round it to
  // 8x8, and the 3x3 halo is small enough to stop there.
  EXPECT_EQ(tiles_for(40, 40, 1, 8, 8)[0].width(), 8);
  EXPECT_EQ(tiles_for(40, 40, 1, 8, 8)[0].height(), 8);
  EXPECT_EQ(tiles_for(40, 40, 1, 8, 1)[0].width(), 4);
}

TEST_F(PixelTiles, ConfiguredShapeOverridesThePolicy) {
  const std::vector<sched::Tile> t53 = tiles_for(256, 256, 60, 4, 8, 5, 3);
  EXPECT_EQ(t53[0].width(), 5);
  EXPECT_EQ(t53[0].height(), 3);
  const std::vector<sched::Tile> t7 = tiles_for(64, 64, 5, 2, 8, 7, 0);
  EXPECT_EQ(t7[0].width(), 7);
  EXPECT_EQ(t7[0].height(), 32);
  SmaConfig cfg;
  cfg.z_template_radius = 60;
  const std::vector<sched::Tile> one =
      pixel_tiles(256, 256, cfg, /*parallel=*/false, 8);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (sched::Tile{0, 0, 256, 256}));
}

}  // namespace
}  // namespace sma::core
