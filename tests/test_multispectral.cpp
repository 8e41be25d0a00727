// Tests for core/multispectral.hpp — multi-channel tracking with
// minimum-residual late fusion (paper Sec. 6 future work).
#include "core/multispectral.hpp"

#include <gtest/gtest.h>

#include "goes/datasets.hpp"
#include "helpers.hpp"

namespace sma::core {
namespace {

using imaging::FlowField;
using imaging::FlowVector;

TEST(FuseFlows, PicksLowerErrorVector) {
  FlowField a = sma::testing::constant_flow(4, 4, 1.0f, 0.0f);
  FlowField b = sma::testing::constant_flow(4, 4, 0.0f, 1.0f);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) {
      FlowVector fa = a.at(x, y);
      fa.error = 0.5f;
      a.set(x, y, fa);
      FlowVector fb = b.at(x, y);
      fb.error = (x < 2) ? 0.1f : 0.9f;  // b wins left half, a right half
      b.set(x, y, fb);
    }
  std::vector<std::size_t> winners;
  const FlowField fused = fuse_flows({&a, &b}, &winners);
  EXPECT_EQ(fused.at(0, 0).v, 1.0f);  // from b
  EXPECT_EQ(fused.at(3, 0).u, 1.0f);  // from a
  EXPECT_EQ(winners[0], 8u);
  EXPECT_EQ(winners[1], 8u);
}

TEST(FuseFlows, InvalidCandidatesNeverWin) {
  FlowField a = sma::testing::constant_flow(3, 3, 1.0f, 0.0f);
  FlowField b(3, 3);  // all invalid
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 3; ++x) {
      FlowVector fb{9.0f, 9.0f, 0.0f, 0};  // tempting error but invalid
      b.set(x, y, fb);
    }
  const FlowField fused = fuse_flows({&a, &b});
  EXPECT_EQ(fused.at(1, 1).u, 1.0f);
  EXPECT_EQ(fused.count_valid(), 9u);
}

TEST(FuseFlows, NoValidCandidateStaysInvalid) {
  FlowField a(2, 2), b(2, 2);
  const FlowField fused = fuse_flows({&a, &b});
  EXPECT_EQ(fused.count_valid(), 0u);
}

TEST(FuseFlows, RejectsEmptyAndMismatched) {
  EXPECT_THROW(fuse_flows({}), std::invalid_argument);
  FlowField a(2, 2), b(3, 2);
  EXPECT_THROW(fuse_flows({&a, &b}), std::invalid_argument);
}

TEST(Multispectral, BothChannelsTrackedAndFused) {
  const goes::MultispectralDataset d =
      goes::make_multispectral_analog(48, 2, 5, 1.0);
  MultispectralInput in;
  in.before = {&d.vis[0], &d.ir[0]};
  in.after = {&d.vis[1], &d.ir[1]};
  SmaConfig cfg = goes9_scaled_config();
  cfg.z_search_radius = 2;
  const MultispectralResult r = track_pair_multispectral(in, cfg);
  EXPECT_EQ(r.per_channel.size(), 2u);
  EXPECT_EQ(r.timings.size(), 2u);
  EXPECT_GT(r.winner_counts[0], 0u);
  EXPECT_GT(r.winner_counts[1], 0u);
  EXPECT_EQ(r.flow.width(), 48);
}

// Fraction of interior pixels that are valid AND within 1 px of truth —
// the coverage-accuracy product a single degenerate channel cannot win.
double good_fraction(const FlowField& flow, const FlowField& truth,
                     int margin) {
  int good = 0, total = 0;
  for (int y = margin; y < flow.height() - margin; ++y)
    for (int x = margin; x < flow.width() - margin; ++x) {
      ++total;
      const FlowVector f = flow.at(x, y);
      if (!f.valid) continue;
      const FlowVector t = truth.at(x, y);
      if (std::hypot(f.u - t.u, f.v - t.v) <= 1.0) ++good;
    }
  return total > 0 ? static_cast<double>(good) / total : 0.0;
}

TEST(Multispectral, FusionBeatsEitherSingleChannel) {
  // The channels are textured on complementary halves; only the fused
  // field can be valid AND accurate (almost) everywhere.
  const goes::MultispectralDataset d =
      goes::make_multispectral_analog(64, 2, 5, 2.5);
  MultispectralInput in;
  in.before = {&d.vis[0], &d.ir[0]};
  in.after = {&d.vis[1], &d.ir[1]};
  SmaConfig cfg = goes9_scaled_config();
  cfg.z_search_radius = 3;
  const MultispectralResult r =
      track_pair_multispectral(in, cfg, {}, "vector");

  const double gf_fused = good_fraction(r.flow, d.truth, 12);
  const double gf_vis = good_fraction(r.per_channel[0], d.truth, 12);
  const double gf_ir = good_fraction(r.per_channel[1], d.truth, 12);
  EXPECT_GT(gf_fused, gf_vis + 0.1);
  EXPECT_GT(gf_fused, gf_ir + 0.1);
  EXPECT_GT(gf_fused, 0.8);
  // RMS over the fused VALID pixels stays sub-pixel.
  EXPECT_LT(imaging::rms_endpoint_error(r.flow, d.truth, 12), 1.0);
}

TEST(Multispectral, SharedSurfaceChannelUsed) {
  const goes::MultispectralDataset d =
      goes::make_multispectral_analog(48, 2, 9, 1.0);
  // Use the VIS channel as a shared surface for both.
  MultispectralInput in;
  in.before = {&d.vis[0], &d.ir[0]};
  in.after = {&d.vis[1], &d.ir[1]};
  in.surface_before = &d.vis[0];
  in.surface_after = &d.vis[1];
  SmaConfig cfg = goes9_scaled_config();
  cfg.z_search_radius = 2;
  EXPECT_NO_THROW(track_pair_multispectral(in, cfg));
}

TEST(Multispectral, RejectsMismatchedChannelLists) {
  const imaging::ImageF img = sma::testing::textured_pattern(16, 16);
  MultispectralInput in;
  in.before = {&img};
  in.after = {};
  EXPECT_THROW(track_pair_multispectral(in, goes9_scaled_config()),
               std::invalid_argument);
}

}  // namespace
}  // namespace sma::core
