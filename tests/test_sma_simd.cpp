// Tests for maspar/sma_simd.hpp — the MP-2 SIMD executor must reproduce
// the sequential tracker bit for bit (the paper's Sec. 5.1 validation).
// The executor runs as the "maspar-sim" backend behind SmaPipeline.
#include "maspar/sma_simd.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "helpers.hpp"
#include "maspar/backend.hpp"

namespace sma::maspar {
namespace {

MachineSpec small_spec(int n, std::uint64_t mem = 64 * 1024) {
  MachineSpec s;
  s.nxproc = n;
  s.nyproc = n;
  s.pe_memory_bytes = mem;
  return s;
}

core::SmaConfig tiny_continuous() {
  core::SmaConfig c;
  c.model = core::MotionModel::kContinuous;
  c.surface_fit_radius = 2;
  c.z_template_radius = 3;
  c.z_search_radius = 2;
  return c;
}

core::SmaConfig tiny_semifluid() {
  core::SmaConfig c;
  c.model = core::MotionModel::kSemiFluid;
  c.surface_fit_radius = 2;
  c.z_template_radius = 3;
  c.z_search_radius = 2;
  c.semifluid_search_radius = 1;
  c.semifluid_template_radius = 2;
  return c;
}

/// One pair through a "maspar-sim" pipeline on `spec` (two images, the
/// monocular count); the executor's report rides on the extras.
core::TrackResult run_simd(const core::TrackerInput& in,
                           const core::SmaConfig& cfg,
                           const MachineSpec& spec) {
  register_maspar_backend(spec, /*image_count=*/2);
  return core::SmaPipeline(cfg, {.backend = "maspar-sim"}).track_pair(in);
}

SimdRunReport report_of(const core::TrackResult& r) {
  return dynamic_cast<const MasParBackendExtras&>(*r.extras).report;
}

core::TrackerInput monocular(const imaging::ImageF& a,
                             const imaging::ImageF& b) {
  core::TrackerInput in;
  in.intensity_before = &a;
  in.intensity_after = &b;
  in.surface_before = &a;
  in.surface_after = &b;
  return in;
}

TEST(MasParExecutor, MatchesSequentialContinuous) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 1, -1);
  const auto in = monocular(f0, f1);
  const core::TrackResult seq =
      core::SmaPipeline(tiny_continuous()).track_pair(in);
  const core::TrackResult par =
      run_simd(in, tiny_continuous(), small_spec(4));
  EXPECT_TRUE(seq.flow == par.flow);
}

TEST(MasParExecutor, MatchesSequentialSemiFluid) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 2, 1);
  const auto in = monocular(f0, f1);
  const core::TrackResult seq =
      core::SmaPipeline(tiny_semifluid()).track_pair(in);
  const core::TrackResult par = run_simd(in, tiny_semifluid(), small_spec(4));
  EXPECT_TRUE(seq.flow == par.flow);
}

TEST(MasParExecutor, LayerCountMatchesMapping) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(24, 24);
  const auto in = monocular(f0, f0);
  // 24x24 on a 4x4 grid: 6x6 block -> 36 layers.
  const SimdRunReport r =
      report_of(run_simd(in, tiny_continuous(), small_spec(4)));
  EXPECT_EQ(r.layers, 36);
}

TEST(MasParExecutor, ReportsMemoryAndSegmentation) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(24, 24);
  const auto in = monocular(f0, f0);
  const SimdRunReport r =
      report_of(run_simd(in, tiny_semifluid(), small_spec(4)));
  EXPECT_GT(r.pe_bytes, 0u);
  EXPECT_GE(r.segment_rows, 1);
  EXPECT_LE(r.segment_rows, tiny_semifluid().z_search_size());
  EXPECT_TRUE(r.fits_pe_memory);  // 36 px/PE easily fits 64 KB here
}

TEST(MasParExecutor, AutoSegmentsUnderTightMemory) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 1, 0);
  const auto in = monocular(f0, f1);
  // Budget chosen so the unsegmented footprint does not fit but some
  // Z >= 1 does: the executor must pick a smaller Z automatically.
  const core::TrackResult big =
      run_simd(in, tiny_semifluid(), small_spec(4, 64 * 1024));
  core::PeMemoryModel mem;
  mem.xvr = 6;
  mem.yvr = 6;
  const std::uint64_t unseg =
      mem.segmented_bytes(tiny_semifluid(), tiny_semifluid().z_search_size());
  const core::TrackResult seg =
      run_simd(in, tiny_semifluid(), small_spec(4, unseg - 64));
  EXPECT_LT(report_of(seg).segment_rows, report_of(big).segment_rows);
  // Segmentation must not change the result (Sec. 4.3).
  EXPECT_TRUE(seg.flow == big.flow);
}

TEST(MasParExecutor, ModeledTimesPopulated) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(16, 16);
  const auto in = monocular(f0, f0);
  const SimdRunReport r =
      report_of(run_simd(in, tiny_semifluid(), small_spec(4)));
  EXPECT_GT(r.modeled.total(), 0.0);
  EXPECT_GT(r.modeled_sgi_total, r.modeled.total());
  EXPECT_GT(r.modeled_speedup, 1.0);
  EXPECT_GT(r.host_seconds, 0.0);
}

TEST(MasParExecutor, CommTrafficMetered) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(16, 16);
  const auto in = monocular(f0, f0);
  const SimdRunReport r =
      report_of(run_simd(in, tiny_continuous(), small_spec(4)));
  EXPECT_GT(r.comm.xnet_words, 0u);
  EXPECT_GT(r.comm.xnet_word_hops, 0u);
}

TEST(MasParExecutor, ExplicitSegmentRowsHonored) {
  const imaging::ImageF f0 = sma::testing::textured_pattern(20, 20);
  const imaging::ImageF f1 = sma::testing::shift_image(f0, 1, 1);
  const auto in = monocular(f0, f1);
  core::SmaConfig cfg = tiny_semifluid();
  cfg.segment_rows = 2;  // the paper's Sec. 4.3 example granularity
  const core::TrackResult r = run_simd(in, cfg, small_spec(4));
  EXPECT_EQ(report_of(r).segment_rows, 2);
  const core::TrackResult seq = core::SmaPipeline(cfg).track_pair(in);
  EXPECT_TRUE(seq.flow == r.flow);
}

TEST(MasParExecutor, NullInputThrows) {
  EXPECT_THROW(
      run_simd(core::TrackerInput{}, tiny_continuous(), small_spec(2)),
      std::invalid_argument);
}

}  // namespace
}  // namespace sma::maspar
