// Unit tests for imaging/warp.hpp.
#include "imaging/warp.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "imaging/stats.hpp"

namespace sma::imaging {
namespace {

TEST(WarpByFlow, ZeroFlowIsIdentity) {
  const ImageF img = testing::textured_pattern(12, 12);
  const FlowField zero = testing::constant_flow(12, 12, 0.0f, 0.0f);
  EXPECT_LT(max_abs_difference(img, warp_by_flow(img, zero)), 1e-5);
}

TEST(WarpByFlow, IntegerTranslation) {
  const ImageF img = testing::textured_pattern(16, 16);
  const FlowField flow = testing::constant_flow(16, 16, 3.0f, -1.0f);
  const ImageF out = warp_by_flow(img, flow);
  for (int y = 2; y < 14; ++y)
    for (int x = 0; x < 12; ++x)
      EXPECT_NEAR(out.at(x, y), img.at(x + 3, y - 1), 1e-4);
}

TEST(Advect, ZeroFlowIsIdentity) {
  const ImageF img = testing::textured_pattern(10, 10);
  const FlowField zero = testing::constant_flow(10, 10, 0.0f, 0.0f);
  EXPECT_LT(max_abs_difference(img, advect(img, zero)), 1e-4);
}

TEST(Advect, IntegerTranslationMovesFeatures) {
  ImageF img(16, 16, 0.0f);
  img.at(5, 5) = 100.0f;
  const FlowField flow = testing::constant_flow(16, 16, 2.0f, 3.0f);
  const ImageF out = advect(img, flow);
  EXPECT_NEAR(out.at(7, 8), 100.0f, 1e-3);
}

TEST(Advect, InverseOfBackwardWarp) {
  // Forward advection by +d then backward warp by +d returns (interior).
  const ImageF img = testing::textured_pattern(24, 24);
  const FlowField flow = testing::constant_flow(24, 24, 1.0f, 2.0f);
  const ImageF fwd = advect(img, flow);
  const ImageF back = warp_by_flow(fwd, flow);
  double max_err = 0.0;
  for (int y = 6; y < 18; ++y)
    for (int x = 6; x < 18; ++x)
      max_err = std::max(max_err,
                         std::abs(static_cast<double>(back.at(x, y)) -
                                  img.at(x, y)));
  EXPECT_LT(max_err, 1.0);
}

}  // namespace
}  // namespace sma::imaging
