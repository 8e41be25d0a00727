// Unit tests for maspar/pdisk.hpp — MPDA streaming model.
#include "maspar/pdisk.hpp"

#include <gtest/gtest.h>

namespace sma::maspar {
namespace {

std::vector<imaging::ImageF> frames(int n, int size) {
  std::vector<imaging::ImageF> out;
  for (int i = 0; i < n; ++i)
    out.emplace_back(size, size, static_cast<float>(i));
  return out;
}

TEST(MpdaSpec, EffectiveBandwidthTwoArrays) {
  const MpdaSpec s;
  // Two 30 MB/s arrays under a 200 MB/s channel: 60 MB/s effective.
  EXPECT_DOUBLE_EQ(s.effective_bw(), 60.0e6);
}

TEST(MpdaSpec, ChannelCapsBandwidth) {
  MpdaSpec s;
  s.sustained_bw = 150.0e6;
  s.array_count = 2;
  EXPECT_DOUBLE_EQ(s.effective_bw(), 200.0e6);
}

TEST(FrameStream, ServesFramesInOrder) {
  FrameStream fs(frames(3, 4));
  EXPECT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs.next().at(0, 0), 0.0f);
  EXPECT_EQ(fs.next().at(0, 0), 1.0f);
  EXPECT_FALSE(fs.exhausted());
  EXPECT_EQ(fs.next().at(0, 0), 2.0f);
  EXPECT_TRUE(fs.exhausted());
}

TEST(FrameStream, IoClockAdvancesPerFrame) {
  FrameStream fs(frames(2, 8), MpdaSpec{}, 1);
  fs.next();
  const double t1 = fs.io_seconds();
  EXPECT_NEAR(t1, 64.0 / 60.0e6, 1e-12);
  fs.next();
  EXPECT_NEAR(fs.io_seconds(), 2.0 * t1, 1e-12);
  EXPECT_EQ(fs.bytes_read(), 128u);
}

TEST(FrameStream, BytesPerPixelScalesIo) {
  FrameStream one(frames(1, 8), MpdaSpec{}, 1);
  FrameStream four(frames(1, 8), MpdaSpec{}, 4);
  one.next();
  four.next();
  EXPECT_NEAR(four.io_seconds() / one.io_seconds(), 4.0, 1e-9);
}

TEST(FrameStream, LuisSequenceStreamsFast) {
  // Paper: 490 frames of GOES-9 data; at 60 MB/s the whole byte stream
  // (490 x 512 x 512) stages in ~2 s — I/O never dominates the 6 min per
  // pair of compute, which is the point of exploiting the MPDA.
  const double bytes = 490.0 * 512 * 512;
  const MpdaSpec s;
  EXPECT_LT(bytes / s.effective_bw(), 5.0);
}

TEST(FrameStream, OverReadThrows) {
  // Regression: next() past the end used to index frames_[size()].
  FrameStream fs(frames(2, 4));
  fs.next();
  fs.next();
  ASSERT_TRUE(fs.exhausted());
  EXPECT_THROW(fs.next(), std::out_of_range);
  EXPECT_THROW(fs.next(), std::out_of_range);  // still exhausted
}

}  // namespace
}  // namespace sma::maspar
