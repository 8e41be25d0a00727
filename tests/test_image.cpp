// Unit tests for imaging/image.hpp.
#include "imaging/image.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace sma::imaging {
namespace {

TEST(Image, ConstructAndFill) {
  ImageF img(4, 3, 7.0f);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_FALSE(img.empty());
  EXPECT_EQ(img.at(3, 2), 7.0f);
  img.fill(1.0f);
  EXPECT_EQ(img.at(0, 0), 1.0f);
}

TEST(Image, DefaultIsEmpty) {
  ImageF img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
}

TEST(Image, NegativeDimensionsThrow) {
  EXPECT_THROW(ImageF(-1, 4), std::invalid_argument);
}

TEST(Image, Contains) {
  ImageF img(4, 3);
  EXPECT_TRUE(img.contains(0, 0));
  EXPECT_TRUE(img.contains(3, 2));
  EXPECT_FALSE(img.contains(4, 0));
  EXPECT_FALSE(img.contains(0, 3));
  EXPECT_FALSE(img.contains(-1, 0));
}

TEST(Image, ClampBorder) {
  ImageF img = testing::make_image(3, 3, [](double x, double y) {
    return 10 * y + x;
  });
  EXPECT_EQ(img.at_clamped(-5, 0), 0.0f);
  EXPECT_EQ(img.at_clamped(7, 0), 2.0f);
  EXPECT_EQ(img.at_clamped(1, 9), 21.0f);
}

TEST(Image, RowPointerMatchesAt) {
  ImageF img = testing::make_image(5, 4, [](double x, double y) {
    return x + 100 * y;
  });
  EXPECT_EQ(img.row(2)[3], img.at(3, 2));
}

TEST(Image, EqualityOperator) {
  ImageF a(3, 2, 1.0f);
  ImageF b(3, 2, 1.0f);
  EXPECT_TRUE(a == b);
  b.at(1, 1) = 2.0f;
  EXPECT_FALSE(a == b);
  ImageF c(2, 3, 1.0f);
  EXPECT_FALSE(a == c);
}

TEST(Image, SameShape) {
  ImageF a(3, 2), b(3, 2), c(2, 3);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(Bilinear, ExactOnLinearField) {
  // Bilinear interpolation reproduces affine functions exactly.
  ImageF img = testing::make_image(8, 8, [](double x, double y) {
    return 2.0 * x - 3.0 * y + 1.0;
  });
  EXPECT_NEAR(bilinear(img, 2.5, 3.25), 2.0 * 2.5 - 3.0 * 3.25 + 1.0, 1e-5);
  EXPECT_NEAR(bilinear(img, 0.0, 0.0), 1.0, 1e-6);
}

TEST(Bilinear, IntegerCoordinatesExact) {
  ImageF img = testing::textured_pattern(8, 8);
  EXPECT_FLOAT_EQ(static_cast<float>(bilinear(img, 3.0, 5.0)), img.at(3, 5));
}

TEST(Bilinear, ClampsOutside) {
  ImageF img = testing::make_image(4, 4, [](double x, double y) {
    return x + 10 * y;
  });
  EXPECT_NEAR(bilinear(img, -3.0, 0.0), 0.0, 1e-6);
  EXPECT_NEAR(bilinear(img, 10.0, 3.0), 3.0 + 30.0, 1e-5);
}

}  // namespace
}  // namespace sma::imaging
