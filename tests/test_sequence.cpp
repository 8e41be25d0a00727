// Tests for SmaPipeline::track_sequence (core/pipeline.hpp),
// goes/storm_track.hpp and imaging/svg.hpp — the sequence-level
// cloud-tracking products.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "goes/datasets.hpp"
#include "goes/storm_track.hpp"
#include "helpers.hpp"
#include "imaging/svg.hpp"

namespace sma {
namespace {

TEST(TrackSequence, PairCountAndTimings) {
  const goes::RapidScanDataset d = goes::make_luis_analog(40, 4, 29, 1.5);
  core::SmaPipeline pipeline(core::luis_scaled_config(), {.backend = "vector"});
  const core::SequenceResult r = pipeline.track_sequence(d.frames);
  EXPECT_EQ(r.flows.size(), 3u);
  EXPECT_EQ(r.timings.size(), 3u);
  EXPECT_GT(r.total_seconds(), 0.0);
  EXPECT_TRUE(r.trajectories.empty());
}

TEST(TrackSequence, TrajectoriesFollowWind) {
  const goes::RapidScanDataset d = goes::make_luis_analog(48, 5, 29, 1.5);
  core::SmaPipeline pipeline(core::luis_scaled_config(),
                             {.backend = "vector", .robust = true});
  // Seed at the reference-track locations.
  std::vector<std::pair<double, double>> seeds;
  for (std::size_t i = 0; i < 5 && i < d.tracks.size(); ++i)
    seeds.emplace_back(d.tracks[i].x, d.tracks[i].y);
  const core::SequenceResult r = pipeline.track_sequence(d.frames, seeds);
  ASSERT_EQ(r.trajectories.size(), seeds.size());
  for (std::size_t i = 0; i < r.trajectories.size(); ++i) {
    const core::Trajectory& t = r.trajectories[i];
    if (t.lost) continue;  // near-border particles may exit
    EXPECT_EQ(t.steps(), 4u);
    // Net displacement roughly 4x the per-frame truth at the seed.
    const auto [du, dv] = t.net_displacement();
    EXPECT_NEAR(du, 4.0 * d.tracks[i].u, 2.5) << "seed " << i;
    EXPECT_NEAR(dv, 4.0 * d.tracks[i].v, 2.5);
  }
}

TEST(TrackSequence, RejectsTooFewFrames) {
  core::SmaPipeline pipeline(core::luis_scaled_config());
  std::vector<imaging::ImageF> one(1, imaging::ImageF(8, 8, 0.0f));
  EXPECT_THROW(pipeline.track_sequence(one), std::invalid_argument);
}

TEST(Vorticity, ConstantFlowIsIrrotational) {
  const imaging::FlowField f = testing::constant_flow(16, 16, 2.0f, 1.0f);
  const imaging::ImageF vort = goes::vorticity(f);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) EXPECT_EQ(vort.at(x, y), 0.0f);
}

TEST(Vorticity, SolidBodyRotationUniformCurl) {
  // u = -w*dy, v = +w*dx -> curl = 2w everywhere.
  const int size = 24;
  imaging::FlowField f(size, size);
  const double w = 0.1, c = size / 2.0;
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x)
      f.set(x, y, imaging::FlowVector{static_cast<float>(-w * (y - c)),
                                      static_cast<float>(w * (x - c)), 0, 1});
  const imaging::ImageF vort = goes::vorticity(f);
  for (int y = 2; y < size - 2; ++y)
    for (int x = 2; x < size - 2; ++x)
      EXPECT_NEAR(vort.at(x, y), 2.0 * w, 1e-5);
}

TEST(LocateVortex, FindsRankineCore) {
  const int size = 64;
  const goes::WindModel wind = goes::rankine_vortex(40.0, 24.0, 10.0, 2.0);
  const imaging::FlowField flow = goes::wind_to_flow(size, size, wind);
  const auto fix = goes::locate_vortex(flow);
  ASSERT_TRUE(fix.has_value());
  EXPECT_NEAR(fix->x, 40.0, 2.0);
  EXPECT_NEAR(fix->y, 24.0, 2.0);
  EXPECT_GT(fix->circulation, 0.0);  // counterclockwise
}

TEST(LocateVortex, NoRotationReturnsNullopt) {
  const imaging::FlowField f = testing::constant_flow(32, 32, 1.0f, 0.0f);
  EXPECT_FALSE(goes::locate_vortex(f).has_value());
}

TEST(StormTrack, FollowsTranslatingVortexTruth) {
  // Analytic check: truth flows for a vortex at three known centers.
  const int size = 64;
  std::vector<imaging::FlowField> flows;
  for (double cx : {24.0, 28.0, 32.0})
    flows.push_back(goes::wind_to_flow(
        size, size, goes::rankine_vortex(cx, 32.0, 10.0, 2.0)));
  const auto fixes = goes::storm_track(flows);
  ASSERT_EQ(fixes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(fixes[i].has_value()) << i;
    EXPECT_NEAR(fixes[i]->x, 24.0 + 4.0 * static_cast<double>(i), 2.0);
    EXPECT_NEAR(fixes[i]->y, 32.0, 2.0);
  }
}

TEST(FlowSvg, EmitsArrowsAndValidStructure) {
  const imaging::FlowField f = testing::constant_flow(30, 20, 2.0f, -1.0f);
  const std::string p = ::testing::TempDir() + "sma_quiver.svg";
  imaging::SvgQuiverOptions opts;
  opts.stride = 10;
  imaging::write_flow_svg(f, p, opts);
  std::ifstream in(p);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_NE(content.find("</svg>"), std::string::npos);
  // 3 x 2 sampled arrows.
  std::size_t arrows = 0, pos = 0;
  while ((pos = content.find("<line", pos)) != std::string::npos) {
    ++arrows;
    pos += 5;
  }
  EXPECT_EQ(arrows, 6u);
}

TEST(FlowSvg, BackgroundShapeValidated) {
  const imaging::FlowField f = testing::constant_flow(16, 16, 1, 1);
  const imaging::ImageF wrong(8, 8, 0.0f);
  imaging::SvgQuiverOptions opts;
  opts.background = &wrong;
  EXPECT_THROW(imaging::write_flow_svg(f, "/tmp/x.svg", opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace sma
