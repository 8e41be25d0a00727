// End-to-end graceful degradation: inject telemetry faults into the
// Frederic analog, repair + mask, and verify the tracker's accuracy
// degrades gracefully (the ISSUE acceptance gate for the robustness
// layer).  Companion to bench_fault_tolerance.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fault.hpp"
#include "core/sma.hpp"
#include "goes/datasets.hpp"
#include "imaging/repair.hpp"

namespace sma {
namespace {

struct Pipelines {
  goes::FredericDataset data;
  core::SmaConfig cfg;
  core::PipelineOptions opts{.backend = "tiled"};

  Pipelines() : data(goes::make_frederic_analog(56, 31, 2.0)) {
    cfg = core::frederic_scaled_config();
    cfg.z_search_radius = 3;
  }
};

TEST(FaultTolerance, RepairedTrackingStaysNearCleanAccuracy) {
  const Pipelines p;
  const int margin = 9;

  const core::TrackResult clean =
      core::SmaPipeline(p.cfg, p.opts).track_pair(p.data.left0, p.data.left1);
  const double clean_rms =
      imaging::rms_endpoint_error(clean.flow, p.data.truth, margin);
  ASSERT_GT(clean_rms, 0.0);
  ASSERT_TRUE(std::isfinite(clean_rms));

  // Fixed seed, 5% scan-line dropout (plus a whiff of bit noise).
  core::FaultSpec spec;
  spec.seed = 99;
  spec.scanline_dropout_rate = 0.05;
  spec.bit_noise_rate = 0.01;
  const core::FaultInjector injector(spec);
  core::FaultLog log;
  imaging::ImageF f0 = p.data.left0;
  imaging::ImageF f1 = p.data.left1;
  injector.corrupt_frame(f0, 0, &log);
  injector.corrupt_frame(f1, 1, &log);
  ASSERT_GT(log.count(core::FaultKind::kScanlineDropout), 0u);

  // Unrepaired: corrupted frames straight into the tracker.
  const core::TrackResult raw =
      core::SmaPipeline(p.cfg, p.opts).track_pair(f0, f1);
  const double raw_rms =
      imaging::rms_endpoint_error(raw.flow, p.data.truth, margin);

  // Repaired + masked.
  const imaging::RepairReport rep0 = imaging::repair_frame(f0);
  const imaging::RepairReport rep1 = imaging::repair_frame(f1);
  core::TrackerInput in;
  in.intensity_before = in.surface_before = &rep0.image;
  in.intensity_after = in.surface_after = &rep1.image;
  in.validity_before = &rep0.validity;
  in.validity_after = &rep1.validity;
  const core::TrackResult fixed =
      core::SmaPipeline(p.cfg, p.opts).track_pair(in);
  const double fixed_rms =
      imaging::rms_endpoint_error(fixed.flow, p.data.truth, margin);

  // The acceptance gate: repair + masking holds the mean endpoint error
  // within 2x of the clean baseline, while feeding the corruption
  // straight through is demonstrably worse.
  EXPECT_LE(fixed_rms, 2.0 * clean_rms)
      << "clean=" << clean_rms << " repaired=" << fixed_rms;
  EXPECT_GT(raw_rms, fixed_rms)
      << "unrepaired=" << raw_rms << " repaired=" << fixed_rms;

  // Confidence is a real channel: no NaNs, bounded to [0, 1], and valid
  // pixels carry nonzero confidence.
  for (int y = 0; y < fixed.flow.height(); ++y)
    for (int x = 0; x < fixed.flow.width(); ++x) {
      const imaging::FlowVector f = fixed.flow.at(x, y);
      ASSERT_FALSE(std::isnan(f.u));
      ASSERT_FALSE(std::isnan(f.v));
      ASSERT_FALSE(std::isnan(f.confidence));
      ASSERT_GE(f.confidence, 0.0f);
      ASSERT_LE(f.confidence, 1.0f);
      if (f.valid) ASSERT_GT(f.confidence, 0.0f);
    }
}

TEST(FaultTolerance, AllValidMaskIsBitIdenticalToNoMask) {
  const Pipelines p;
  const core::TrackResult bare =
      core::SmaPipeline(p.cfg, p.opts).track_pair(p.data.left0, p.data.left1);

  const imaging::ImageU8 ones(p.data.left0.width(), p.data.left0.height(), 1);
  core::TrackerInput in;
  in.intensity_before = in.surface_before = &p.data.left0;
  in.intensity_after = in.surface_after = &p.data.left1;
  in.validity_before = &ones;
  in.validity_after = &ones;
  const core::TrackResult masked =
      core::SmaPipeline(p.cfg, p.opts).track_pair(in);

  EXPECT_TRUE(bare.flow == masked.flow);
  // Including the error channel, which operator== does not cover.
  for (int y = 0; y < bare.flow.height(); ++y)
    for (int x = 0; x < bare.flow.width(); ++x) {
      const imaging::FlowVector a = bare.flow.at(x, y);
      const imaging::FlowVector b = masked.flow.at(x, y);
      ASSERT_EQ(a.error, b.error) << "at " << x << "," << y;
      ASSERT_EQ(a.confidence, b.confidence);
    }
}

TEST(FaultTolerance, FullyMaskedRegionYieldsZeroConfidence) {
  const Pipelines p;
  const int w = p.data.left0.width();
  const int h = p.data.left0.height();
  // Mask out a solid block much larger than the template, centred in the
  // frame: hypotheses whose templates live inside it see no valid data.
  imaging::ImageU8 mask(w, h, 1);
  const int lo = h / 2 - 14, hi = h / 2 + 14;
  for (int y = lo; y <= hi; ++y)
    for (int x = lo; x <= hi; ++x) mask.at(x, y) = 0;

  core::TrackerInput in;
  in.intensity_before = in.surface_before = &p.data.left0;
  in.intensity_after = in.surface_after = &p.data.left1;
  in.validity_before = &mask;
  in.validity_after = &mask;
  const core::TrackResult r = core::SmaPipeline(p.cfg, p.opts).track_pair(in);

  const int c = h / 2;  // deep inside the masked block
  const imaging::FlowVector f = r.flow.at(c, c);
  EXPECT_EQ(f.valid, 0);
  EXPECT_TRUE(std::isinf(f.error));
  EXPECT_EQ(f.confidence, 0.0f);
  // Far corner: template reach (radius 4 + search 3 + N_ss 1) stays
  // clear of the masked block, so confidence is untouched.
  const imaging::FlowVector g = r.flow.at(4, 4);
  EXPECT_EQ(g.valid, 1);
  EXPECT_EQ(g.confidence, 1.0f);
}

TEST(FaultTolerance, FilterByConfidenceDropsLowConfidenceVectors) {
  imaging::FlowField flow(4, 1);
  flow.set(0, 0, {1.0f, 0.0f, 0.1f, 1, 1.0f});
  flow.set(1, 0, {1.0f, 0.0f, 0.1f, 1, 0.4f});
  flow.set(2, 0, {1.0f, 0.0f, 0.1f, 1, 0.9f});
  flow.set(3, 0, {0.0f, 0.0f, 0.0f, 0, 0.0f});  // already invalid
  const std::size_t dropped = imaging::filter_by_confidence(flow, 0.5f);
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(flow.at(0, 0).valid, 1);
  EXPECT_EQ(flow.at(1, 0).valid, 0);
  EXPECT_EQ(flow.at(2, 0).valid, 1);
  EXPECT_EQ(flow.count_valid(), 2u);
}

}  // namespace
}  // namespace sma
