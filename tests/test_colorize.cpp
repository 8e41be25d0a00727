// Tests for imaging/colorize.hpp — flow color wheel and PPM I/O.
#include "imaging/colorize.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace sma::imaging {
namespace {

TEST(FlowColor, InvalidIsBlack) {
  EXPECT_EQ(flow_color(5.0f, 5.0f, false, 10.0), (Rgb{0, 0, 0}));
}

TEST(FlowColor, ZeroMotionIsWhite) {
  // Zero magnitude -> zero saturation -> white at full value.
  EXPECT_EQ(flow_color(0.0f, 0.0f, true, 1.0), (Rgb{255, 255, 255}));
}

TEST(FlowColor, DirectionControlsHue) {
  // +x motion: hue 0 -> red dominant; -x: hue 180 -> cyan dominant.
  const Rgb east = flow_color(1.0f, 0.0f, true, 1.0);
  EXPECT_GT(east.r, east.b);
  const Rgb west = flow_color(-1.0f, 0.0f, true, 1.0);
  EXPECT_GT(west.b, west.r);
  EXPECT_GT(west.g, west.r);
}

TEST(FlowColor, MagnitudeControlsSaturation) {
  const Rgb faint = flow_color(0.1f, 0.0f, true, 1.0);
  const Rgb strong = flow_color(1.0f, 0.0f, true, 1.0);
  // Saturation grows -> non-dominant channels fall.
  EXPECT_GT(faint.g, strong.g);
  EXPECT_GT(faint.b, strong.b);
  EXPECT_EQ(strong.r, 255);
}

TEST(FlowColor, SaturatesAtMaxMagnitude) {
  const Rgb at = flow_color(2.0f, 0.0f, true, 2.0);
  const Rgb beyond = flow_color(20.0f, 0.0f, true, 2.0);
  EXPECT_EQ(at, beyond);
}

TEST(ColorizeFlow, AutoScaleHandlesUniformField) {
  const FlowField f = sma::testing::constant_flow(8, 8, 1.0f, 0.0f);
  const ImageRgb img = colorize_flow(f);
  EXPECT_EQ(img.width(), 8);
  // All vectors identical -> identical colors.
  EXPECT_EQ(img.at(0, 0), img.at(7, 7));
  // Fully saturated red-ish (auto scale ~ magnitude).
  EXPECT_EQ(img.at(0, 0).r, 255);
}

TEST(ColorizeFlow, EmptyFieldAllBlack) {
  const FlowField f(4, 4);  // all invalid
  const ImageRgb img = colorize_flow(f);
  EXPECT_EQ(img.at(2, 2), (Rgb{0, 0, 0}));
}

TEST(Ppm, RoundTrip) {
  ImageRgb img(5, 3);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 5; ++x)
      img.at(x, y) = Rgb{static_cast<unsigned char>(x * 40),
                         static_cast<unsigned char>(y * 80),
                         static_cast<unsigned char>(x + y)};
  const std::string p = ::testing::TempDir() + "sma_colorize_roundtrip.ppm";
  write_ppm(img, p);
  const ImageRgb back = read_ppm(p);
  ASSERT_EQ(back.width(), 5);
  ASSERT_EQ(back.height(), 3);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 5; ++x) EXPECT_EQ(back.at(x, y), img.at(x, y));
}

TEST(Ppm, MissingFileThrows) {
  EXPECT_THROW(read_ppm("/nonexistent/file.ppm"), std::runtime_error);
}

}  // namespace
}  // namespace sma::imaging
