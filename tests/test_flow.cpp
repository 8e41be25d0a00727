// Unit tests for imaging/flow.hpp.
#include "imaging/flow.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "helpers.hpp"

namespace sma::imaging {
namespace {

TEST(FlowField, SetAndGet) {
  FlowField f(4, 3);
  f.set(2, 1, FlowVector{1.5f, -2.0f, 0.25f, 1});
  const FlowVector v = f.at(2, 1);
  EXPECT_EQ(v.u, 1.5f);
  EXPECT_EQ(v.v, -2.0f);
  EXPECT_EQ(v.error, 0.25f);
  EXPECT_EQ(v.valid, 1);
}

TEST(FlowField, CountValid) {
  FlowField f(3, 3);
  EXPECT_EQ(f.count_valid(), 0u);
  f.set(0, 0, FlowVector{0, 0, 0, 1});
  f.set(2, 2, FlowVector{0, 0, 0, 1});
  EXPECT_EQ(f.count_valid(), 2u);
}

TEST(FlowField, EqualityIgnoresError) {
  FlowField a(2, 2), b(2, 2);
  a.set(0, 0, FlowVector{1, 2, 0.5f, 1});
  b.set(0, 0, FlowVector{1, 2, 0.9f, 1});  // same motion, different error
  EXPECT_TRUE(a == b);
  b.set(0, 0, FlowVector{1, 3, 0.9f, 1});
  EXPECT_FALSE(a == b);
}

TEST(RmsSparse, ZeroForPerfectTracks) {
  const FlowField f = testing::constant_flow(8, 8, 2.0f, -1.0f);
  std::vector<ReferenceTrack> refs = {{1, 1, 2.0, -1.0}, {5, 6, 2.0, -1.0}};
  EXPECT_DOUBLE_EQ(rms_endpoint_error(f, refs), 0.0);
}

TEST(RmsSparse, KnownError) {
  const FlowField f = testing::constant_flow(8, 8, 0.0f, 0.0f);
  std::vector<ReferenceTrack> refs = {{2, 2, 3.0, 4.0}};  // |e| = 5
  EXPECT_NEAR(rms_endpoint_error(f, refs), 5.0, 1e-12);
}

TEST(RmsSparse, IgnoresOutOfRangeTracks) {
  const FlowField f = testing::constant_flow(4, 4, 0.0f, 0.0f);
  std::vector<ReferenceTrack> refs = {{99, 99, 10.0, 10.0}, {1, 1, 0.0, 0.0}};
  EXPECT_DOUBLE_EQ(rms_endpoint_error(f, refs), 0.0);
}

TEST(RmsSparse, EmptyTracksIsZero) {
  const FlowField f = testing::constant_flow(4, 4, 1.0f, 1.0f);
  EXPECT_DOUBLE_EQ(rms_endpoint_error(f, std::vector<ReferenceTrack>{}), 0.0);
}

TEST(RmsDense, ZeroAgainstSelf) {
  const FlowField f = testing::constant_flow(8, 8, 1.0f, 2.0f);
  EXPECT_DOUBLE_EQ(rms_endpoint_error(f, f), 0.0);
}

TEST(RmsDense, SkipsInvalidPixels) {
  FlowField f = testing::constant_flow(4, 4, 0.0f, 0.0f);
  FlowField t = testing::constant_flow(4, 4, 0.0f, 0.0f);
  t.set(1, 1, FlowVector{100.0f, 0.0f, 0.0f, 1});
  f.set(1, 1, FlowVector{0.0f, 0.0f, 0.0f, 0});  // invalid: excluded
  EXPECT_DOUBLE_EQ(rms_endpoint_error(f, t), 0.0);
}

TEST(RmsDense, MarginExcludesBorder) {
  FlowField f = testing::constant_flow(6, 6, 0.0f, 0.0f);
  FlowField t = testing::constant_flow(6, 6, 0.0f, 0.0f);
  t.set(0, 0, FlowVector{50.0f, 0.0f, 0.0f, 1});  // corrupt a corner
  EXPECT_GT(rms_endpoint_error(f, t, 0), 0.0);
  EXPECT_DOUBLE_EQ(rms_endpoint_error(f, t, 1), 0.0);
}

TEST(AngularError, ZeroForIdenticalFlow) {
  const FlowField f = testing::constant_flow(5, 5, 1.0f, 1.0f);
  EXPECT_NEAR(mean_angular_error_deg(f, f), 0.0, 1e-6);
}

TEST(AngularError, PositiveForDifferentFlow) {
  const FlowField a = testing::constant_flow(5, 5, 2.0f, 0.0f);
  const FlowField b = testing::constant_flow(5, 5, 0.0f, 2.0f);
  EXPECT_GT(mean_angular_error_deg(a, b), 10.0);
}

TEST(FlowText, RoundTrip) {
  FlowField f(3, 2);
  f.set(0, 0, FlowVector{1.0f, 2.0f, 0.5f, 1});
  f.set(2, 1, FlowVector{-1.0f, 0.0f, 0.125f, 1});
  const std::string p = ::testing::TempDir() + "sma_flow_roundtrip.txt";
  write_flow_text(f, p);
  const FlowField back = read_flow_text(p);
  ASSERT_EQ(back.width(), 3);
  ASSERT_EQ(back.height(), 2);
  EXPECT_TRUE(f == back);
  EXPECT_EQ(back.at(2, 1).error, 0.125f);
}

TEST(FlowText, StrideSubsamples) {
  const FlowField f = testing::constant_flow(8, 8, 1.0f, 0.0f);
  const std::string p = ::testing::TempDir() + "sma_flow_stride.txt";
  write_flow_text(f, p, 4);
  std::ifstream in(p);
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 1 + 4);  // header + 2x2 samples
}

// The text format is printf's "%g" for every number (CLI files and
// served payloads are compared byte for byte), including the values
// where %g switches notation, trims zeros or spells a special value.
TEST(FlowText, NumbersArePrintfG) {
  const float values[] = {0.0f,     -0.0f,    1.0f,       -1.5f,
                          0.125f,   1e-4f,    9.99999e-5f, 123456.0f,
                          1234567.0f, 1.0f / 3.0f, 1e-38f, 1e-45f,
                          3.4e38f,  std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()};
  const int n = static_cast<int>(std::size(values));
  FlowField f(n, 1);
  for (int x = 0; x < n; ++x)
    f.set(x, 0,
          FlowVector{values[x], -values[x], values[(x + 1) % n],
                     static_cast<std::uint8_t>(x % 2)});
  std::ostringstream out;
  write_flow_text(f, out);
  std::string expected = "# width " + std::to_string(n) +
                         " height 1 stride 1\n";
  char line[128];
  for (int x = 0; x < n; ++x) {
    const FlowVector v = f.at(x, 0);
    std::snprintf(line, sizeof(line), "%d %d %g %g %g %d\n", x, 0,
                  static_cast<double>(v.u), static_cast<double>(v.v),
                  static_cast<double>(v.error), static_cast<int>(v.valid));
    expected += line;
  }
  EXPECT_EQ(out.str(), expected);
}

TEST(FlowText, MissingFileThrows) {
  EXPECT_THROW(read_flow_text("/nonexistent/flow.txt"), std::runtime_error);
}

}  // namespace
}  // namespace sma::imaging
