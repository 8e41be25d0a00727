// Unit and property tests for linalg/gaussian_elimination.hpp.
#include "linalg/gaussian_elimination.hpp"

#include <gtest/gtest.h>

#include <random>

namespace sma::linalg {
namespace {

TEST(Solve6, IdentitySystem) {
  const Mat6 a = Mat6::identity();
  const Vec6 b{1, 2, 3, 4, 5, 6};
  Vec6 x;
  ASSERT_EQ(solve6(a, b, x), SolveStatus::kOk);
  EXPECT_LT(max_abs_diff(x, b), 1e-14);
}

TEST(Solve6, DiagonalSystem) {
  Mat6 a;
  for (std::size_t i = 0; i < 6; ++i) a(i, i) = static_cast<double>(i + 1);
  const Vec6 b{1, 4, 9, 16, 25, 36};
  Vec6 x;
  ASSERT_EQ(solve6(a, b, x), SolveStatus::kOk);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(x[i], static_cast<double>(i + 1), 1e-12);
}

TEST(Solve6, RequiresPivoting) {
  // Zero on the leading diagonal: naive elimination would divide by zero.
  Mat6 a = Mat6::identity();
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  Vec6 b{2, 3, 1, 1, 1, 1};
  Vec6 x;
  ASSERT_EQ(solve6(a, b, x), SolveStatus::kOk);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Solve6, SingularDetected) {
  Mat6 a;  // all zeros
  Vec6 b{1, 0, 0, 0, 0, 0};
  Vec6 x;
  EXPECT_EQ(solve6(a, b, x), SolveStatus::kSingular);
}

TEST(Solve6, RankDeficientDetected) {
  Mat6 a = Mat6::identity();
  // Row 5 duplicates row 4 -> rank 5.
  for (std::size_t c = 0; c < 6; ++c) a(5, c) = a(4, c);
  Vec6 b{1, 1, 1, 1, 1, 2};
  Vec6 x;
  EXPECT_EQ(solve6(a, b, x), SolveStatus::kSingular);
}

TEST(Solve6, CountersIncrement) {
  const SolveCounters before = solve_counters();
  Mat6 a = Mat6::identity();
  Vec6 b, x;
  ASSERT_EQ(solve6(a, b, x), SolveStatus::kOk);
  Mat6 zero;
  EXPECT_EQ(solve6(zero, b, x), SolveStatus::kSingular);
  EXPECT_EQ(solve_counters().solves6 - before.solves6, 2u);
  EXPECT_EQ(solve_counters().singular - before.singular, 1u);
  EXPECT_EQ(solve_counters().solves_dynamic, before.solves_dynamic);
}

// Property: random diagonally dominant systems solve with small residual.
class Solve6Random : public ::testing::TestWithParam<int> {};

TEST_P(Solve6Random, ResidualSmall) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Mat6 a;
  Vec6 b;
  for (std::size_t r = 0; r < 6; ++r) {
    double offdiag = 0.0;
    for (std::size_t c = 0; c < 6; ++c) {
      a(r, c) = dist(rng);
      if (c != r) offdiag += std::abs(a(r, c));
    }
    a(r, r) = offdiag + 1.0;  // strict diagonal dominance
    b[r] = dist(rng);
  }
  Vec6 x;
  ASSERT_EQ(solve6(a, b, x), SolveStatus::kOk);
  const Vec6 ax = a * x;
  EXPECT_LT(max_abs_diff(ax, b), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Solve6Random,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(SolveDynamic, Solves3x3) {
  std::vector<double> a = {2, 1, 0, 1, 3, 1, 0, 1, 2};
  std::vector<double> b = {3, 5, 3};
  ASSERT_EQ(solve_inplace(a, b, 3), SolveStatus::kOk);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 1.0, 1e-12);
  EXPECT_NEAR(b[2], 1.0, 1e-12);
}

TEST(SolveDynamic, Solves1x1) {
  std::vector<double> a = {4.0};
  std::vector<double> b = {8.0};
  ASSERT_EQ(solve_inplace(a, b, 1), SolveStatus::kOk);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}

TEST(SolveDynamic, SingularDetected) {
  std::vector<double> a = {1, 2, 2, 4};  // rank 1
  std::vector<double> b = {1, 2};
  EXPECT_EQ(solve_inplace(a, b, 2), SolveStatus::kSingular);
}

class SolveDynamicRandom : public ::testing::TestWithParam<int> {};

TEST_P(SolveDynamicRandom, MatchesMatVec) {
  const int n = GetParam();
  std::mt19937 rng(static_cast<unsigned>(1000 + n));
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> xtrue(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    double offdiag = 0.0;
    for (int c = 0; c < n; ++c) {
      a[static_cast<std::size_t>(r) * n + c] = dist(rng);
      if (c != r) offdiag += std::abs(a[static_cast<std::size_t>(r) * n + c]);
    }
    a[static_cast<std::size_t>(r) * n + r] = offdiag + 1.0;
    xtrue[static_cast<std::size_t>(r)] = dist(rng);
  }
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      b[static_cast<std::size_t>(r)] +=
          a[static_cast<std::size_t>(r) * n + c] *
          xtrue[static_cast<std::size_t>(c)];
  std::vector<double> acopy = a;
  ASSERT_EQ(solve_inplace(acopy, b, static_cast<std::size_t>(n)),
            SolveStatus::kOk);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(b[static_cast<std::size_t>(i)],
                xtrue[static_cast<std::size_t>(i)], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveDynamicRandom,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 12, 16, 24, 32));

}  // namespace
}  // namespace sma::linalg
