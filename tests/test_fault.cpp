// Unit tests for core/fault.hpp — deterministic fault injection.
#include "core/fault.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "imaging/stats.hpp"

namespace sma::core {
namespace {

imaging::ImageF test_frame(int size) {
  return sma::testing::textured_pattern(size, size);
}

TEST(FaultInjector, ZeroRatesAreIdentity) {
  const imaging::ImageF orig = test_frame(32);
  imaging::ImageF frame = orig;
  FaultLog log;
  const FaultInjector injector;  // all rates default to 0
  injector.corrupt_frame(frame, 0, &log);
  EXPECT_EQ(imaging::max_abs_difference(orig, frame), 0.0);
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(injector.stripe_fault(0));
  EXPECT_FALSE(injector.frame_missing(0));
}

TEST(FaultInjector, SameSeedSameCorruption) {
  FaultSpec spec;
  spec.seed = 42;
  spec.scanline_dropout_rate = 0.1;
  spec.bit_noise_rate = 0.01;
  spec.dead_column_rate = 0.05;
  const FaultInjector a(spec), b(spec);
  imaging::ImageF fa = test_frame(48), fb = test_frame(48);
  a.corrupt_frame(fa, 3, nullptr);
  b.corrupt_frame(fb, 3, nullptr);
  EXPECT_EQ(imaging::max_abs_difference(fa, fb), 0.0);
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultSpec sa, sb;
  sa.seed = 1;
  sb.seed = 2;
  sa.scanline_dropout_rate = sb.scanline_dropout_rate = 0.2;
  imaging::ImageF fa = test_frame(48), fb = test_frame(48);
  FaultInjector(sa).corrupt_frame(fa, 0, nullptr);
  FaultInjector(sb).corrupt_frame(fb, 0, nullptr);
  EXPECT_GT(imaging::max_abs_difference(fa, fb), 0.0);
}

TEST(FaultInjector, UniformIsOrderIndependent) {
  FaultSpec spec;
  spec.seed = 7;
  const FaultInjector injector(spec);
  // Draws are pure hashes: querying in any order, repeatedly, agrees.
  const double a = injector.uniform(FaultKind::kScanlineDropout, 5, 17);
  const double b = injector.uniform(FaultKind::kBitNoise, 5, 17);
  const double a2 = injector.uniform(FaultKind::kScanlineDropout, 5, 17);
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);  // distinct classes decorrelate
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
}

TEST(FaultInjector, ScanlineDropoutWritesConstantRows) {
  FaultSpec spec;
  spec.scanline_dropout_rate = 0.25;
  spec.dropout_value = 7.0f;
  const FaultInjector injector(spec);
  imaging::ImageF frame = test_frame(40);
  FaultLog log;
  injector.corrupt_frame(frame, 0, &log);
  const std::size_t dropped = log.count(FaultKind::kScanlineDropout);
  ASSERT_GT(dropped, 0u);
  for (const FaultEvent& e : log.events()) {
    if (e.kind != FaultKind::kScanlineDropout) continue;
    for (int x = 0; x < frame.width(); ++x)
      EXPECT_EQ(frame.at(x, e.index), 7.0f);
  }
}

TEST(FaultInjector, DeadColumnWritesConstantColumns) {
  FaultSpec spec;
  spec.dead_column_rate = 0.25;
  spec.dropout_value = -1.0f;
  const FaultInjector injector(spec);
  imaging::ImageF frame = test_frame(40);
  FaultLog log;
  injector.corrupt_frame(frame, 2, &log);
  ASSERT_GT(log.count(FaultKind::kDeadColumn), 0u);
  for (const FaultEvent& e : log.events()) {
    if (e.kind != FaultKind::kDeadColumn) continue;
    for (int y = 0; y < frame.height(); ++y)
      EXPECT_EQ(frame.at(e.index, y), -1.0f);
  }
}

TEST(FaultInjector, BitNoiseHitsExtremeValues) {
  FaultSpec spec;
  spec.bit_noise_rate = 0.05;
  spec.noise_lo = -100.0f;
  spec.noise_hi = 999.0f;
  const FaultInjector injector(spec);
  imaging::ImageF frame = test_frame(40);
  FaultLog log;
  injector.corrupt_frame(frame, 0, &log);
  ASSERT_EQ(log.count(FaultKind::kBitNoise), 1u);  // one event per frame
  int salt = 0, pepper = 0;
  for (int y = 0; y < frame.height(); ++y)
    for (int x = 0; x < frame.width(); ++x) {
      if (frame.at(x, y) == 999.0f) ++salt;
      if (frame.at(x, y) == -100.0f) ++pepper;
    }
  EXPECT_GT(salt + pepper, 0);
  for (const FaultEvent& e : log.events())
    if (e.kind == FaultKind::kBitNoise)
      EXPECT_EQ(static_cast<int>(e.detail), salt + pepper);
}

TEST(FaultInjector, MissingFrameFillsEverything) {
  FaultSpec spec;
  spec.missing_frame_rate = 1.0;
  spec.dropout_value = 3.0f;
  const FaultInjector injector(spec);
  imaging::ImageF frame = test_frame(16);
  FaultLog log;
  injector.corrupt_frame(frame, 0, &log);
  EXPECT_EQ(log.count(FaultKind::kMissingFrame), 1u);
  EXPECT_TRUE(injector.frame_missing(0));
  for (int y = 0; y < frame.height(); ++y)
    for (int x = 0; x < frame.width(); ++x)
      EXPECT_EQ(frame.at(x, y), 3.0f);
}

TEST(FaultInjector, StripeFaultsAreDeterministic) {
  FaultSpec spec;
  spec.seed = 5;
  spec.stripe_fault_rate = 0.5;
  spec.stripe_fault_persist = 0.5;
  const FaultInjector a(spec), b(spec);
  int faults = 0;
  for (int f = 0; f < 64; ++f) {
    EXPECT_EQ(a.stripe_fault(f), b.stripe_fault(f));
    if (a.stripe_fault(f)) ++faults;
    EXPECT_EQ(a.stripe_fault_persists(f, 1), b.stripe_fault_persists(f, 1));
  }
  EXPECT_GT(faults, 0);
  EXPECT_LT(faults, 64);
}

TEST(FaultLog, CountsAndSummary) {
  FaultLog log;
  log.record(FaultKind::kScanlineDropout, 0, 3);
  log.record(FaultKind::kScanlineDropout, 0, 9);
  log.record(FaultKind::kStripeSkip, 4);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count(FaultKind::kScanlineDropout), 2u);
  EXPECT_EQ(log.count(FaultKind::kDeadColumn), 0u);
  const std::string s = log.summary();
  EXPECT_NE(s.find("scanline-dropout"), std::string::npos);
  EXPECT_NE(s.find("stripe-skip"), std::string::npos);
  log.clear();
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace sma::core
