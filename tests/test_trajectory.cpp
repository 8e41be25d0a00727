// Tests for core/trajectory.hpp — Lagrangian trajectories over frame
// sequences (the paper's particle-tracking product).
#include "core/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"

namespace sma::core {
namespace {

TEST(Trajectory, StraightLineUnderConstantFlow) {
  const imaging::FlowField flow =
      sma::testing::constant_flow(32, 32, 2.0f, 1.0f);
  std::vector<imaging::FlowField> flows(3, flow);
  const auto tracks = track_trajectories(flows, {{5.0, 5.0}});
  ASSERT_EQ(tracks.size(), 1u);
  const Trajectory& t = tracks[0];
  EXPECT_FALSE(t.lost);
  EXPECT_EQ(t.steps(), 3u);
  EXPECT_NEAR(t.position().first, 11.0, 1e-6);
  EXPECT_NEAR(t.position().second, 8.0, 1e-6);
  EXPECT_NEAR(t.path_length(), 3.0 * std::hypot(2.0, 1.0), 1e-6);
  const auto [du, dv] = t.net_displacement();
  EXPECT_NEAR(du, 6.0, 1e-6);
  EXPECT_NEAR(dv, 3.0, 1e-6);
}

TEST(Trajectory, LostWhenLeavingImage) {
  const imaging::FlowField flow =
      sma::testing::constant_flow(16, 16, 5.0f, 0.0f);
  std::vector<imaging::FlowField> flows(5, flow);
  const auto tracks = track_trajectories(flows, {{10.0, 8.0}});
  EXPECT_TRUE(tracks[0].lost);
  // 10 -> 15 needs support up to x=16: already outside after one step.
  EXPECT_LE(tracks[0].steps(), 2u);
}

TEST(Trajectory, LostOnInvalidFlowRegion) {
  imaging::FlowField flow = sma::testing::constant_flow(16, 16, 1.0f, 0.0f);
  for (int y = 0; y < 16; ++y)
    for (int x = 8; x < 16; ++x) {
      imaging::FlowVector f = flow.at(x, y);
      f.valid = 0;
      flow.set(x, y, f);
    }
  std::vector<imaging::FlowField> flows(8, flow);
  const auto tracks = track_trajectories(flows, {{4.0, 8.0}});
  EXPECT_TRUE(tracks[0].lost);
  // Advances until its bilinear support touches the invalid half.
  EXPECT_GE(tracks[0].steps(), 2u);
  EXPECT_LT(tracks[0].position().first, 9.0);
}

TEST(Trajectory, CirculatesAroundVortexCenter) {
  // Rotational flow: a particle seeded off-center keeps a roughly
  // constant radius while accumulating path length.
  const int size = 48;
  imaging::FlowField flow(size, size);
  const double c = size / 2.0;
  const double omega = 0.1;  // rad/frame
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      const double dx = x - c, dy = y - c;
      flow.set(x, y, imaging::FlowVector{static_cast<float>(-omega * dy),
                                         static_cast<float>(omega * dx),
                                         0.0f, 1});
    }
  std::vector<imaging::FlowField> flows(12, flow);
  const auto tracks = track_trajectories(flows, {{c + 8.0, c}});
  const Trajectory& t = tracks[0];
  ASSERT_FALSE(t.lost);
  const double r0 = 8.0;
  for (const auto& [px, py] : t.points) {
    const double r = std::hypot(px - c, py - c);
    // Forward-Euler drift grows r by sqrt(1 + omega^2) per step.
    EXPECT_NEAR(r, r0, 1.0);
  }
  EXPECT_GT(t.path_length(), 8.0);  // swept a substantial arc
}

// Trajectories still being advanced (not lost).
std::size_t live(const TrajectoryTracker& tracker) {
  std::size_t n = 0;
  for (const Trajectory& t : tracker.trajectories()) n += t.lost ? 0 : 1;
  return n;
}

TEST(TrajectoryTracker, LiveCountAndIncrementalUse) {
  const imaging::FlowField ok = sma::testing::constant_flow(16, 16, 1, 0);
  TrajectoryTracker tracker({{2, 2}, {15.5, 2}, {8, 8}});
  EXPECT_EQ(live(tracker), 3u);
  tracker.advance(ok);
  // The particle at x=15.5 lacks 2x2 support (needs x+1 = 16).
  EXPECT_EQ(live(tracker), 2u);
  tracker.advance(ok);
  EXPECT_EQ(tracker.trajectories()[0].steps(), 2u);
  EXPECT_TRUE(tracker.trajectories()[1].lost);
}

TEST(TrajectoryTracker, EmptySeedsIsFine) {
  TrajectoryTracker tracker({});
  tracker.advance(sma::testing::constant_flow(8, 8, 1, 1));
  EXPECT_EQ(live(tracker), 0u);
  EXPECT_TRUE(tracker.trajectories().empty());
}

}  // namespace
}  // namespace sma::core
