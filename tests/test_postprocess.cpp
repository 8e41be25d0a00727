// Unit tests for core/postprocess.hpp — robust estimation, regularization
// and relaxation labeling of dense motion fields (paper Sec. 6 future
// work, implemented here as extensions).
#include "core/postprocess.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "helpers.hpp"
#include "sched/scheduler.hpp"

namespace sma::core {
namespace {

using imaging::FlowField;
using imaging::FlowVector;

FlowField field_with_outlier(int w, int h, float u, float v, int ox, int oy) {
  FlowField f = sma::testing::constant_flow(w, h, u, v);
  f.set(ox, oy, FlowVector{50.0f, -50.0f, 10.0f, 1});
  return f;
}

TEST(VectorMedian, UniformFieldUnchanged) {
  const FlowField f = sma::testing::constant_flow(8, 8, 2.0f, -1.0f);
  const FlowField m = vector_median_filter(f, 1);
  EXPECT_TRUE(m == f);
}

TEST(VectorMedian, RemovesIsolatedOutlier) {
  const FlowField f = field_with_outlier(9, 9, 1.0f, 1.0f, 4, 4);
  const FlowField m = vector_median_filter(f, 1);
  EXPECT_EQ(m.at(4, 4).u, 1.0f);
  EXPECT_EQ(m.at(4, 4).v, 1.0f);
}

TEST(VectorMedian, PreservesMotionDiscontinuity) {
  // Two motion layers split down the middle (multi-layer clouds): the
  // vector median must not blur the boundary into intermediate vectors.
  FlowField f(10, 10);
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 10; ++x)
      f.set(x, y, FlowVector{x < 5 ? 2.0f : -2.0f, 0.0f, 0.0f, 1});
  const FlowField m = vector_median_filter(f, 1);
  for (int y = 1; y < 9; ++y)
    for (int x = 1; x < 9; ++x) {
      const float u = m.at(x, y).u;
      EXPECT_TRUE(u == 2.0f || u == -2.0f)
          << "blurred vector at (" << x << "," << y << "): " << u;
    }
}

TEST(VectorMedian, SkipsInvalidNeighbors) {
  FlowField f = sma::testing::constant_flow(5, 5, 1.0f, 0.0f);
  FlowVector bad{99.0f, 99.0f, 0.0f, 0};  // invalid: must not influence
  f.set(2, 2, bad);
  const FlowField m = vector_median_filter(f, 1);
  EXPECT_EQ(m.at(1, 1).u, 1.0f);
  EXPECT_EQ(m.at(2, 2).u, 1.0f);  // filled from valid neighbors
}

TEST(OutlierMask, FlagsHighErrorPixels) {
  FlowField f = sma::testing::constant_flow(10, 10, 1.0f, 0.0f);
  // Baseline residuals ~0.1 with spread, two gross outliers.
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 10; ++x) {
      FlowVector v = f.at(x, y);
      v.error = 0.1f + 0.001f * static_cast<float>((x * 7 + y * 3) % 10);
      f.set(x, y, v);
    }
  FlowVector bad = f.at(3, 3);
  bad.error = 5.0f;
  f.set(3, 3, bad);
  bad = f.at(7, 8);
  bad.error = 9.0f;
  f.set(7, 8, bad);
  const std::size_t masked = error_outlier_mask(f, 3.0);
  EXPECT_EQ(masked, 2u);
  EXPECT_EQ(f.at(3, 3).valid, 0);
  EXPECT_EQ(f.at(7, 8).valid, 0);
  EXPECT_EQ(f.at(0, 0).valid, 1);
}

TEST(OutlierMask, UniformErrorsMaskNothing) {
  FlowField f = sma::testing::constant_flow(6, 6, 0.0f, 0.0f);
  EXPECT_EQ(error_outlier_mask(f, 3.0), 0u);
  EXPECT_EQ(f.count_valid(), 36u);
}

TEST(OutlierMask, EmptyFieldIsNoop) {
  FlowField f(4, 4);  // all invalid
  EXPECT_EQ(error_outlier_mask(f, 3.0), 0u);
}

TEST(FillInvalid, RestoresDenseField) {
  FlowField f = sma::testing::constant_flow(8, 8, 1.5f, -0.5f);
  FlowVector hole;
  hole.valid = 0;
  f.set(3, 3, hole);
  f.set(4, 3, hole);
  const std::size_t remaining = fill_invalid(f, 1);
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(f.at(3, 3).u, 1.5f);
  EXPECT_EQ(f.at(4, 3).v, -0.5f);
}

TEST(FillInvalid, PropagatesAcrossLargeHoles) {
  FlowField f = sma::testing::constant_flow(12, 12, 2.0f, 0.0f);
  FlowVector hole;
  hole.valid = 0;
  for (int y = 3; y < 9; ++y)
    for (int x = 3; x < 9; ++x) f.set(x, y, hole);
  const std::size_t remaining = fill_invalid(f, 1, 10);
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(f.at(5, 5).u, 2.0f);
}

TEST(FillInvalid, AllInvalidStaysInvalid) {
  FlowField f(5, 5);  // nothing to copy from
  EXPECT_EQ(fill_invalid(f, 1, 4), 25u);
}

TEST(GaussianSmooth, UniformFieldFixedPoint) {
  const FlowField f = sma::testing::constant_flow(9, 9, 1.0f, 2.0f);
  const FlowField s = gaussian_smooth(f, 1.0);
  for (int y = 0; y < 9; ++y)
    for (int x = 0; x < 9; ++x) {
      EXPECT_NEAR(s.at(x, y).u, 1.0f, 1e-5);
      EXPECT_NEAR(s.at(x, y).v, 2.0f, 1e-5);
    }
}

TEST(GaussianSmooth, AttenuatesNoise) {
  FlowField f = sma::testing::constant_flow(11, 11, 0.0f, 0.0f);
  FlowVector noisy = f.at(5, 5);
  noisy.u = 10.0f;
  f.set(5, 5, noisy);
  const FlowField s = gaussian_smooth(f, 1.0);
  EXPECT_LT(s.at(5, 5).u, 5.0f);
  EXPECT_GT(s.at(5, 5).u, 0.0f);  // averaging, not rejection
}

TEST(GaussianSmooth, ErrorWeightingSuppressesBadPixels) {
  FlowField f = sma::testing::constant_flow(9, 9, 0.0f, 0.0f);
  FlowVector noisy = f.at(4, 4);
  noisy.u = 10.0f;
  noisy.error = 100.0f;  // huge residual -> tiny weight
  f.set(4, 4, noisy);
  const FlowField unweighted = gaussian_smooth(f, 1.0, 0.0);
  const FlowField weighted = gaussian_smooth(f, 1.0, 0.05f);
  EXPECT_LT(weighted.at(4, 4).u, unweighted.at(4, 4).u);
  EXPECT_NEAR(weighted.at(4, 4).u, 0.0, 0.05);
}

TEST(RelaxationLabel, UniformFieldFixedPoint) {
  const FlowField f = sma::testing::constant_flow(8, 8, 1.0f, -1.0f);
  const FlowField r = relaxation_label(f, 1, 4);
  EXPECT_TRUE(r == f);
}

TEST(RelaxationLabel, CorrectsIsolatedOutlier) {
  const FlowField f = field_with_outlier(9, 9, 1.0f, 1.0f, 4, 4);
  const FlowField r = relaxation_label(f, 1, 3);
  EXPECT_EQ(r.at(4, 4).u, 1.0f);
  EXPECT_EQ(r.at(4, 4).v, 1.0f);
}

TEST(RelaxationLabel, KeepsLayerBoundarySharp) {
  FlowField f(12, 12);
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 12; ++x)
      f.set(x, y, FlowVector{x < 6 ? 1.0f : -1.0f, 0.0f, 0.0f, 1});
  const FlowField r = relaxation_label(f, 1, 5);
  for (int y = 0; y < 12; ++y)
    for (int x = 0; x < 12; ++x) {
      const float u = r.at(x, y).u;
      EXPECT_TRUE(u == 1.0f || u == -1.0f);
    }
}

TEST(RobustPipeline, CleansNoisyField) {
  // 5% gross outliers with high residuals over a smooth field.
  FlowField f = sma::testing::constant_flow(16, 16, 1.0f, 0.0f);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) {
      FlowVector v = f.at(x, y);
      v.error = 0.05f + 0.001f * ((x * 13 + y * 7) % 11);
      f.set(x, y, v);
    }
  int planted = 0;
  for (int k = 0; k < 256; k += 37) {
    const int x = k % 16, y = k / 16;
    FlowVector bad{20.0f, -20.0f, 50.0f, 1};
    f.set(x, y, bad);
    ++planted;
  }
  ASSERT_GT(planted, 3);
  const FlowField clean = robust_postprocess(f);
  const FlowField truth = sma::testing::constant_flow(16, 16, 1.0f, 0.0f);
  EXPECT_LT(imaging::rms_endpoint_error(clean, truth), 0.05);
}

// ---------------------------------------------------------------------------
// The filters against reference copies of their original loops: every
// window distance computed per ordered pair, every pixel in raster order
// on the caller.  The rewrites must reproduce them bit for bit.
// ---------------------------------------------------------------------------

FlowField reference_vector_median_filter(const FlowField& flow, int radius) {
  FlowField out(flow.width(), flow.height());
  std::vector<FlowVector> window;
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      window.clear();
      for (int v = -radius; v <= radius; ++v)
        for (int u = -radius; u <= radius; ++u) {
          const int sx = x + u;
          const int sy = y + v;
          if (sx < 0 || sx >= flow.width() || sy < 0 || sy >= flow.height())
            continue;
          const FlowVector f = flow.at(sx, sy);
          if (f.valid) window.push_back(f);
        }
      if (window.empty()) {
        out.set(x, y, flow.at(x, y));
        continue;
      }
      double best_sum = std::numeric_limits<double>::infinity();
      FlowVector med = window.front();
      for (const FlowVector& cand : window) {
        double sum = 0.0;
        for (const FlowVector& other : window)
          sum += std::hypot(cand.u - other.u, cand.v - other.v);
        if (sum < best_sum) {
          best_sum = sum;
          med = cand;
        }
      }
      med.error = flow.at(x, y).error;
      med.valid = 1;
      out.set(x, y, med);
    }
  return out;
}

FlowField reference_gaussian_smooth(const FlowField& flow, double sigma,
                                    double error_scale) {
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  FlowField out(flow.width(), flow.height());
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      double su = 0.0, sv = 0.0, sw = 0.0;
      for (int v = -radius; v <= radius; ++v)
        for (int u = -radius; u <= radius; ++u) {
          const int sx = x + u;
          const int sy = y + v;
          if (sx < 0 || sx >= flow.width() || sy < 0 || sy >= flow.height())
            continue;
          const FlowVector f = flow.at(sx, sy);
          if (!f.valid) continue;
          double w = std::exp(-0.5 * (u * u + v * v) / (sigma * sigma));
          if (error_scale > 0.0) w *= std::exp(-f.error / error_scale);
          su += w * f.u;
          sv += w * f.v;
          sw += w;
        }
      FlowVector o = flow.at(x, y);
      if (sw > 0.0) {
        o.u = static_cast<float>(su / sw);
        o.v = static_cast<float>(sv / sw);
        o.valid = 1;
      }
      out.set(x, y, o);
    }
  return out;
}

// A seeded field with the cases the filters must reproduce: about one
// pixel in six invalid, vectors repeated from a small palette, and
// +-inf / NaN components.
FlowField random_field(int w, int h, std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::uniform_real_distribution<float> real(-3.0f, 3.0f);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float palette[] = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f};
  const auto component = [&]() {
    const int kind = pick(0, 39);
    if (kind == 0) return inf;
    if (kind == 1) return -inf;
    if (kind == 2) return nan;
    if (kind < 20) return palette[pick(0, 5)];
    return real(rng);
  };
  FlowField f(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      FlowVector v;
      v.u = component();
      v.v = component();
      v.error = pick(0, 3) == 0 ? 0.0f : std::abs(real(rng));
      v.valid = pick(0, 5) == 0 ? 0 : 1;
      v.confidence = v.valid ? 1.0f : 0.0f;
      f.set(x, y, v);
    }
  return f;
}

// bit_equal, except that any NaN matches any NaN: IEEE 754 leaves the
// sign and payload of an arithmetic NaN open, and at -O3 the compiler
// may swap the operands of an add in one translation unit and not in
// another (a NaN Gaussian sum came out -NaN in the library and +NaN
// here).  Every non-NaN value must match bit for bit.
bool bit_equal_up_to_nan(const FlowField& a, const FlowField& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  const auto same = [](float p, float q) {
    return (std::isnan(p) && std::isnan(q)) ||
           std::memcmp(&p, &q, sizeof p) == 0;
  };
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x) {
      const FlowVector p = a.at(x, y), q = b.at(x, y);
      if (!same(p.u, q.u) || !same(p.v, q.v) || !same(p.error, q.error) ||
          !same(p.confidence, q.confidence) || p.valid != q.valid)
        return false;
    }
  return true;
}

TEST(PostprocessReference, FiltersBitEqualToOriginalLoops) {
  sched::ThreadPool& pool = sched::ThreadPool::shared();
  const int restore = pool.threads();
  // 37x29 stays under for_each_row's two bands of kMinBandPixels;
  // 131x97 spans three.
  static_assert(37 * 29 < 2 * sched::kMinBandPixels);
  static_assert(131 * 97 >= 2 * sched::kMinBandPixels);
  for (const int threads : {1, 4}) {
    pool.resize(threads);
    std::uint32_t seed = 1;
    for (const auto& [w, h] : {std::pair{37, 29}, std::pair{131, 97}})
      for (int radius = 1; radius <= 3; ++radius, ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << w << "x" << h << " radius " << radius << " threads "
                     << threads);
        const FlowField f = random_field(w, h, seed);
        // The median copies window vectors, so even NaN bits must match.
        // sigma 0.3 / 0.6 / 1.0: tap radii 1, 2 and 3.
        const FlowField median = reference_vector_median_filter(f, radius);
        const double sigma = radius == 1 ? 0.3 : radius == 2 ? 0.6 : 1.0;
        for (const bool parallel : {false, true}) {
          EXPECT_TRUE(imaging::bit_equal(
              vector_median_filter(f, radius, parallel), median))
              << "parallel " << parallel;
          for (const double error_scale : {0.0, 0.5})
            EXPECT_TRUE(bit_equal_up_to_nan(
                gaussian_smooth(f, sigma, error_scale, parallel),
                reference_gaussian_smooth(f, sigma, error_scale)))
                << "error_scale " << error_scale << " parallel " << parallel;
        }
      }
  }
  pool.resize(restore);
}

}  // namespace
}  // namespace sma::core
