// Tests for goes/classify.hpp — cloud classification and class-aware
// wind products (paper Sec. 6 future work).
#include "goes/classify.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace sma::goes {
namespace {

TEST(Classify, ClearSceneAllClear) {
  const imaging::ImageF dark(16, 16, 20.0f);   // dim, textureless ocean
  const imaging::ImageF heights(16, 16, 0.0f);
  const ClassMap c = classify_clouds(dark, heights);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      EXPECT_EQ(c.at(x, y), static_cast<std::uint8_t>(CloudClass::kClear));
}

TEST(Classify, BrightPixelsCloudyByHeight) {
  const imaging::ImageF bright(8, 8, 200.0f);
  imaging::ImageF heights(8, 8, 1.0f);       // low deck
  ClassMap c = classify_clouds(bright, heights);
  EXPECT_EQ(c.at(4, 4), static_cast<std::uint8_t>(CloudClass::kLow));

  heights.fill(5.0f);  // mid deck
  c = classify_clouds(bright, heights);
  EXPECT_EQ(c.at(4, 4), static_cast<std::uint8_t>(CloudClass::kMid));

  heights.fill(10.0f);  // high deck
  c = classify_clouds(bright, heights);
  EXPECT_EQ(c.at(4, 4), static_cast<std::uint8_t>(CloudClass::kHigh));
}

TEST(Classify, TexturedDimCloudDetected) {
  // Thin cirrus: dim but textured — the texture branch must catch it.
  const imaging::ImageF cirrus = sma::testing::make_image(
      16, 16, [](double x, double y) {
        return 60.0 + 30.0 * std::sin(0.9 * x) * std::cos(0.8 * y);
      });
  const imaging::ImageF heights(16, 16, 9.0f);
  const ClassMap c = classify_clouds(cirrus, heights);
  EXPECT_EQ(c.at(8, 8), static_cast<std::uint8_t>(CloudClass::kHigh));
}

TEST(Classify, ThresholdsConfigurable) {
  const imaging::ImageF img(8, 8, 150.0f);
  const imaging::ImageF heights(8, 8, 5.0f);
  ClassifierOptions strict;
  strict.min_intensity = 200.0;
  strict.min_texture = 50.0;
  const ClassMap c = classify_clouds(img, heights, strict);
  EXPECT_EQ(c.at(4, 4), static_cast<std::uint8_t>(CloudClass::kClear));
}

TEST(PerClassStats, SeparatesLayerWinds) {
  // Two decks moving differently — the multilayer scenario of Sec. 1.
  imaging::FlowField flow(8, 8);
  ClassMap classes(8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      const bool high = y < 4;
      classes.at(x, y) = static_cast<std::uint8_t>(
          high ? CloudClass::kHigh : CloudClass::kLow);
      flow.set(x, y, imaging::FlowVector{high ? 3.0f : -1.0f, 0.0f, 0.0f, 1});
    }
  const auto stats = per_class_statistics(flow, classes);
  const auto& high = stats[static_cast<std::size_t>(CloudClass::kHigh)];
  const auto& low = stats[static_cast<std::size_t>(CloudClass::kLow)];
  EXPECT_EQ(high.pixels, 32u);
  EXPECT_EQ(low.pixels, 32u);
  EXPECT_DOUBLE_EQ(high.mean_u, 3.0);
  EXPECT_DOUBLE_EQ(low.mean_u, -1.0);
  EXPECT_DOUBLE_EQ(high.mean_speed, 3.0);
  EXPECT_EQ(stats[0].pixels, 0u);  // no clear pixels
}

TEST(PerClassStats, SkipsInvalidVectors) {
  imaging::FlowField flow = sma::testing::constant_flow(4, 4, 2.0f, 0.0f);
  ClassMap classes(4, 4, static_cast<std::uint8_t>(CloudClass::kMid));
  imaging::FlowVector inv;
  inv.valid = 0;
  flow.set(0, 0, inv);
  const auto stats = per_class_statistics(flow, classes);
  EXPECT_EQ(stats[static_cast<std::size_t>(CloudClass::kMid)].pixels, 15u);
}

}  // namespace
}  // namespace sma::goes
