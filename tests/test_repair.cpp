// Unit tests for imaging/repair.hpp — defect detection and repair.
#include "imaging/repair.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/fault.hpp"
#include "helpers.hpp"
#include "imaging/stats.hpp"

namespace sma::imaging {
namespace {

ImageF cloudy(int size) { return sma::testing::textured_pattern(size, size); }

void drop_row(ImageF& img, int y, float value = 0.0f) {
  for (int x = 0; x < img.width(); ++x) img.at(x, y) = value;
}

void drop_col(ImageF& img, int x, float value = 0.0f) {
  for (int y = 0; y < img.height(); ++y) img.at(x, y) = value;
}

TEST(Repair, CleanFramePassesThroughBitIdentical) {
  const ImageF img = cloudy(40);
  const RepairReport rep = repair_frame(img);
  EXPECT_TRUE(rep.clean());
  EXPECT_FALSE(rep.masked());
  EXPECT_EQ(max_abs_difference(img, rep.image), 0.0);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      EXPECT_EQ(rep.validity.at(x, y), 1);
}

TEST(Repair, DetectsExactlyTheDroppedRows) {
  ImageF img = cloudy(48);
  drop_row(img, 7);
  drop_row(img, 22);
  drop_row(img, 23);
  const std::vector<int> dead = detect_dead_rows(img);
  EXPECT_EQ(dead, (std::vector<int>{7, 22, 23}));
}

TEST(Repair, DetectsDeadColumns) {
  ImageF img = cloudy(48);
  drop_col(img, 13, 300.0f);
  const std::vector<int> dead = detect_dead_columns(img);
  EXPECT_EQ(dead, (std::vector<int>{13}));
}

TEST(Repair, InterpolatedRowsAreCloseToOriginal) {
  const ImageF orig = cloudy(48);
  ImageF img = orig;
  drop_row(img, 10);
  drop_row(img, 30);
  const RepairReport rep = repair_frame(img);
  EXPECT_EQ(rep.repaired_rows, (std::vector<int>{10, 30}));
  EXPECT_TRUE(rep.masked_rows.empty());
  EXPECT_FALSE(rep.masked());  // interpolated only: an all-valid mask
  // The cloud texture is smooth enough that a lerp across one line is
  // a good reconstruction — and far better than the dropout fill.
  double worst = 0.0;
  for (const int y : rep.repaired_rows)
    for (int x = 0; x < img.width(); ++x)
      worst = std::max(
          worst, static_cast<double>(std::fabs(rep.image.at(x, y) -
                                               orig.at(x, y))));
  EXPECT_LT(worst, 20.0);   // original samples span ~[30, 230]
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      EXPECT_EQ(rep.validity.at(x, y), 1);
}

TEST(Repair, WideGapsAreMaskedNotFabricated) {
  ImageF img = cloudy(48);
  RepairOptions opts;
  opts.max_interp_gap = 3;
  for (int y = 12; y < 12 + 6; ++y) drop_row(img, y);  // 6 > max gap
  const RepairReport rep = repair_frame(img, opts);
  EXPECT_TRUE(rep.repaired_rows.empty());
  EXPECT_EQ(rep.masked_rows.size(), 6u);
  EXPECT_TRUE(rep.masked());
  for (int y = 12; y < 18; ++y)
    for (int x = 0; x < img.width(); ++x)
      EXPECT_EQ(rep.validity.at(x, y), 0);
  // Live rows stay valid.
  EXPECT_EQ(rep.validity.at(0, 0), 1);
  EXPECT_EQ(rep.validity.at(0, 40), 1);
}

TEST(Repair, EdgeRunWithoutBothNeighborsIsMasked) {
  ImageF img = cloudy(32);
  drop_row(img, 0);  // no row below to bridge from
  const RepairReport rep = repair_frame(img);
  EXPECT_EQ(rep.masked_rows, (std::vector<int>{0}));
  EXPECT_TRUE(rep.masked());
  for (int x = 0; x < img.width(); ++x) EXPECT_EQ(rep.validity.at(x, 0), 0);
}

TEST(Repair, EdgeColumnIsMasked) {
  ImageF img = cloudy(32);
  drop_col(img, 0);  // no column left of it to bridge from
  const RepairReport rep = repair_frame(img);
  EXPECT_EQ(rep.masked_cols, (std::vector<int>{0}));
  EXPECT_TRUE(rep.masked());
  for (int y = 0; y < img.height(); ++y) EXPECT_EQ(rep.validity.at(0, y), 0);
}

TEST(Repair, DespikesSaltAndPepper) {
  const ImageF orig = cloudy(32);
  // Spike two mid-range pixels (far from both extremes, so the jump to
  // the 3x3 median clears the despike threshold) in separate halves.
  auto midrange = [&](int x_lo, int x_hi) {
    for (int y = 4; y < 28; ++y)
      for (int x = x_lo; x < x_hi; ++x)
        if (orig.at(x, y) > 110.0f && orig.at(x, y) < 150.0f)
          return std::make_pair(x, y);
    return std::make_pair(-1, -1);
  };
  const auto [sx, sy] = midrange(4, 15);
  const auto [px, py] = midrange(16, 28);
  ASSERT_GE(sx, 0);
  ASSERT_GE(px, 0);
  ImageF img = orig;
  img.at(sx, sy) = 255.0f;  // salt
  img.at(px, py) = 0.0f;    // pepper
  const RepairReport rep = repair_frame(img);
  EXPECT_EQ(rep.despiked_pixels, 2);
  EXPECT_FALSE(rep.masked());  // despiked only: an all-valid mask
  EXPECT_LT(std::fabs(rep.image.at(sx, sy) - orig.at(sx, sy)), 30.0);
  EXPECT_LT(std::fabs(rep.image.at(px, py) - orig.at(px, py)), 30.0);
  EXPECT_EQ(rep.validity.at(sx, sy), 1);  // repaired, not masked
}

TEST(Repair, MissingFrameIsFlagged) {
  ImageF img(24, 24, 0.0f);
  const RepairReport rep = repair_frame(img);
  EXPECT_TRUE(rep.frame_missing);
  EXPECT_TRUE(rep.masked());
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x) EXPECT_EQ(rep.validity.at(x, y), 0);
}

TEST(Repair, RoundTripsInjectedScanlineDropout) {
  // End-to-end with the injector: every dropped line is either repaired
  // or masked; nothing survives as a raw constant row.
  core::FaultSpec spec;
  spec.seed = 77;
  spec.scanline_dropout_rate = 0.08;
  const core::FaultInjector injector(spec);
  ImageF img = cloudy(64);
  core::FaultLog log;
  injector.corrupt_frame(img, 0, &log);
  const std::size_t dropped = log.count(core::FaultKind::kScanlineDropout);
  ASSERT_GT(dropped, 0u);
  const RepairReport rep = repair_frame(img);
  EXPECT_EQ(rep.repaired_rows.size() + rep.masked_rows.size(), dropped);
}

}  // namespace
}  // namespace sma::imaging
