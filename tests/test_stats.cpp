// Unit tests for imaging/stats.hpp.
#include "imaging/stats.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace sma::imaging {
namespace {

TEST(Summarize, ConstantImage) {
  const ImageF img(4, 4, 5.0f);
  const Summary s = summarize(img);
  EXPECT_DOUBLE_EQ(s.min, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.count, 16u);
}

TEST(Summarize, KnownValues) {
  ImageF img(2, 1);
  img.at(0, 0) = 1.0f;
  img.at(1, 0) = 3.0f;
  const Summary s = summarize(img);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.stddev, 1.0);
}

TEST(Summarize, EmptyImage) {
  const Summary s = summarize(ImageF{});
  EXPECT_EQ(s.count, 0u);
}

TEST(MaxAbsDifference, FindsWorstPixel) {
  ImageF a(3, 3, 0.0f);
  ImageF b(3, 3, 0.0f);
  b.at(2, 2) = -7.0f;
  EXPECT_DOUBLE_EQ(max_abs_difference(a, b), 7.0);
}

TEST(HasNonfinite, DetectsNanAndInf) {
  ImageF img(4, 4, 1.0f);
  EXPECT_FALSE(has_nonfinite(img));
  img.at(2, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(has_nonfinite(img));
  img.at(2, 1) = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(has_nonfinite(img));
  img.at(2, 1) = -std::numeric_limits<float>::infinity();
  EXPECT_TRUE(has_nonfinite(img));
}

TEST(HasNonfinite, EmptyImageIsFinite) {
  EXPECT_FALSE(has_nonfinite(ImageF{}));
}

}  // namespace
}  // namespace sma::imaging
