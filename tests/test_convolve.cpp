// Unit tests for imaging/convolve.hpp.
#include "imaging/convolve.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "helpers.hpp"
#include "imaging/stats.hpp"

namespace sma::imaging {
namespace {

TEST(GaussianKernel, Normalized) {
  for (double sigma : {0.5, 1.0, 2.0, 3.5}) {
    const auto taps = gaussian_kernel(sigma, gaussian_radius(sigma));
    const double sum = std::accumulate(taps.begin(), taps.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "sigma=" << sigma;
  }
}

TEST(GaussianKernel, Symmetric) {
  const auto taps = gaussian_kernel(1.5, 4);
  ASSERT_EQ(taps.size(), 9u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(taps[i], taps[8 - i]);
}

TEST(GaussianKernel, PeakAtCenter) {
  const auto taps = gaussian_kernel(1.0, 3);
  for (std::size_t i = 0; i < taps.size(); ++i)
    EXPECT_LE(taps[i], taps[3]);
}

TEST(GaussianRadius, CoversThreeSigma) {
  EXPECT_EQ(gaussian_radius(1.0), 3);
  EXPECT_EQ(gaussian_radius(2.0), 6);
  EXPECT_GE(gaussian_radius(0.1), 1);
}

TEST(ConvolveSeparable, DeltaKernelIsIdentity) {
  const ImageF img = testing::textured_pattern(16, 12);
  const ImageF out = convolve_separable(img, {1.0});
  EXPECT_LT(max_abs_difference(img, out), 1e-6);
}

TEST(ConvolveSeparable, PreservesConstants) {
  const ImageF img(9, 9, 42.0f);
  const ImageF out = gaussian_blur(img, 1.5);
  EXPECT_LT(max_abs_difference(img, out), 1e-4);
}

TEST(ConvolveSeparable, PreservesLinearRamps) {
  // A symmetric normalized kernel with clamped borders preserves linear
  // ramps in the interior.
  const ImageF img = testing::make_image(
      20, 20, [](double x, double y) { return 3.0 * x + 2.0 * y; });
  const ImageF out = gaussian_blur(img, 1.0);
  for (int y = 4; y < 16; ++y)
    for (int x = 4; x < 16; ++x)
      EXPECT_NEAR(out.at(x, y), img.at(x, y), 1e-3);
}

TEST(GaussianBlur, ReducesVariance) {
  const ImageF img = testing::textured_pattern(32, 32);
  const ImageF out = gaussian_blur(img, 2.0);
  EXPECT_LT(summarize(out).stddev, summarize(img).stddev);
}

TEST(GaussianBlur, LargerSigmaSmoothsMore) {
  const ImageF img = testing::textured_pattern(32, 32);
  const double s1 = summarize(gaussian_blur(img, 1.0)).stddev;
  const double s3 = summarize(gaussian_blur(img, 3.0)).stddev;
  EXPECT_LT(s3, s1);
}

}  // namespace
}  // namespace sma::imaging
