// test_match_precompute.cpp — the hypothesis-invariant matching
// precompute (core/match_precompute.hpp).
//
// The load-bearing property is the equivalence-oracle contract: with the
// precompute ON the tracker must produce BIT-IDENTICAL flow to the naive
// per-pixel evaluator, across the whole configuration grid — and must
// fall back to the naive path (still bit-identical, trivially) exactly
// when resolve_precompute says the window algebra is invalid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/match_precompute.hpp"
#include "core/pipeline.hpp"
#include "helpers.hpp"
#include "surface/geometry.hpp"

namespace sma::core {
namespace {

const imaging::ImageF& frame0() {
  static const imaging::ImageF f = testing::textured_pattern(30, 26);
  return f;
}

const imaging::ImageF& frame1() {
  static const imaging::ImageF f = testing::shift_image(frame0(), 1, -2);
  return f;
}

surface::GeometricField geometry_of(const imaging::ImageF& frame) {
  surface::GeometryOptions opts;
  opts.patch_radius = 2;
  return surface::compute_geometry(frame, opts);
}

const surface::GeometricField& geom0() {
  static const surface::GeometricField g = geometry_of(frame0());
  return g;
}

const surface::GeometricField& geom1() {
  static const surface::GeometricField g = geometry_of(frame1());
  return g;
}

SmaConfig base_config() {
  SmaConfig cfg;
  cfg.model = MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 2;
  cfg.z_template_radius = 3;
  cfg.semifluid_search_radius = 1;
  cfg.semifluid_template_radius = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// resolve_precompute — the single eligibility rule.
// ---------------------------------------------------------------------------

TEST(ResolvePrecompute, DecisionTable) {
  SmaConfig cfg = base_config();
  MatchInput in;

  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kFast);

  cfg.precompute = PrecomputeMode::kOff;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kDisabled);
  cfg.precompute = PrecomputeMode::kOn;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kFast);

  // Semi-fluid remapping moves only the after-frame correspondents, so
  // F_semi is eligible whether or not the remap is active (Nss > 0); the
  // correspondence table carries the remap.
  cfg.model = MotionModel::kSemiFluid;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kFast);
  cfg.semifluid_search_radius = 0;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kFast);
  cfg.semifluid_search_radius = 1;

  // ... but masked F_semi still falls back, under kMasked.
  imaging::ImageU8 semi_mask(4, 4, 1);
  in.mask_after = &semi_mask;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kMasked);
  in.mask_after = nullptr;
  cfg = base_config();

  // Masks change the per-pixel window multiset.
  imaging::ImageU8 mask(4, 4, 1);
  in.mask_before = &mask;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kMasked);
  in.mask_before = nullptr;
  in.mask_after = &mask;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kMasked);
  in.mask_after = nullptr;

  // Strided templates are not a dense box.
  cfg.template_stride = 2;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kStride);

  // kOff wins over every other reason.
  cfg.precompute = PrecomputeMode::kOff;
  EXPECT_EQ(resolve_precompute(cfg, in), PrecomputeDecision::kDisabled);
}

// ---------------------------------------------------------------------------
// Window accumulation vs brute force over the invariant tiles.
// ---------------------------------------------------------------------------

TEST(MatchPrecompute, WindowSumsMatchBruteForce) {
  const MatchPrecompute pre(geom0());
  const int w = geom0().ni.width();
  const int h = geom0().ni.height();
  ASSERT_EQ(pre.width(), w);
  ASSERT_EQ(pre.height(), h);

  const int rx = 3, ry = 2;
  for (const auto [x, y] : {std::pair<int, int>{5, 5},
                            {0, 0},            // corner: clamped window
                            {w - 1, h - 1},    // opposite corner
                            {w / 2, 0}}) {     // edge
    WindowInvariants win;
    pre.accumulate_window(x, y, rx, ry, win);

    // Brute force in the same v-outer/u-inner order through the SAME
    // canonical per-pixel arithmetic: the sums must match to the bit.
    double expect[21] = {};
    for (int v = -ry; v <= ry; ++v)
      for (int u = -rx; u <= rx; ++u) {
        PixelInvariants p;
        compute_pixel_invariants(geom0(), x + u, y + v, p);
        for (int k = 0; k < 21; ++k) expect[k] += p.tile[k];
      }
    for (int k = 0; k < 21; ++k)
      EXPECT_EQ(win.ata[k], expect[k]) << "slot " << k << " at (" << x << ","
                                       << y << ")";
    EXPECT_EQ(win.rows, 3ull * (2 * rx + 1) * (2 * ry + 1));
  }
}

// ---------------------------------------------------------------------------
// The one precomputed evaluator vs the naive oracle, hypothesis by
// hypothesis: every residual, flag and parameter, not just the winners.
// ---------------------------------------------------------------------------

TEST(PrecomputedEvaluator, EveryHypothesisBitIdenticalToNaive) {
  const MatchPrecompute pre(geom0());
  const int w = pre.width();
  const int h = pre.height();
  for (const MotionModel model :
       {MotionModel::kContinuous, MotionModel::kSemiFluid}) {
    SmaConfig cfg = base_config();
    cfg.model = model;
    const int rx = cfg.z_template_radius;
    const int ry = cfg.z_template_ry();
    const int nzs = cfg.z_search_radius;
    // F_semi is driven by one segment's correspondence table: search rows
    // -1..2 of -2..2, so the table's row offset is exercised too.
    const bool semi = model == MotionModel::kSemiFluid;
    const int hy_min = semi ? -1 : -nzs;
    std::optional<SemiFluidTable> table;
    if (semi)
      table.emplace(geom0().disc, geom1().disc, nzs, hy_min, nzs,
                    cfg.effective_nss(), cfg.semifluid_template_radius);
    const SemiFluidTable* tp = table ? &*table : nullptr;
    int interior = 0;
    // Every center of the 30x26 frame: the clamped border band and the
    // contiguous interior sweep alike.
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        WindowInvariants win;
        pre.accumulate_window(x, y, rx, ry, win);
        if (x - rx - nzs >= 0 && x + rx + nzs < w && y - ry - nzs >= 0 &&
            y + ry + nzs < h)
          ++interior;
        for (int hy = hy_min; hy <= nzs; ++hy)
          for (int hx = -nzs; hx <= nzs; ++hx) {
            MotionParams p_fast, p_naive;
            bool ok_fast = false, ok_naive = false;
            const double e_fast = evaluate_hypothesis_precomputed(
                pre, geom1(), win, tp, x, y, hx, hy, rx, ry, p_fast, ok_fast);
            const double e_naive = evaluate_pixel_hypothesis(
                geom0(), geom1(), &geom0().disc, &geom1().disc, tp, x, y, hx,
                hy, cfg, p_naive, ok_naive);
            const auto at = [&] {
              return std::string(semi ? "F_semi" : "F_cont") + " at (" +
                     std::to_string(x) + ", " + std::to_string(y) + ") h=(" +
                     std::to_string(hx) + ", " + std::to_string(hy) + ")";
            };
            ASSERT_EQ(std::memcmp(&e_fast, &e_naive, sizeof(double)), 0)
                << at();
            ASSERT_EQ(ok_fast, ok_naive) << at();
            ASSERT_EQ(std::memcmp(&p_fast, &p_naive, sizeof(MotionParams)), 0)
                << at();
          }
      }
    EXPECT_GT(interior, 0);
    EXPECT_LT(interior, w * h);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity grid: precompute ON vs the naive oracle, through the
// full tracker (search + optional subpixel), across every fallback
// trigger.  Fallback cases are trivially identical (both run naive);
// the fast cases are the real assertion.
// ---------------------------------------------------------------------------

struct GridCase {
  const char* name;
  MotionModel model;
  int template_ry;  // -1 = square
  int stride;
  bool subpixel;
  bool masked;
};

class PrecomputeEquivalence : public ::testing::TestWithParam<GridCase> {};

TEST_P(PrecomputeEquivalence, FlowBitIdenticalToNaive) {
  const GridCase c = GetParam();
  SmaConfig cfg = base_config();
  cfg.model = c.model;
  cfg.z_template_radius_y = c.template_ry;
  cfg.template_stride = c.stride;
  TrackOptions options;
  options.subpixel = c.subpixel;

  TrackerInput in;
  in.intensity_before = in.surface_before = &frame0();
  in.intensity_after = in.surface_after = &frame1();
  imaging::ImageU8 mask0;
  if (c.masked) {
    mask0 = imaging::ImageU8(frame0().width(), frame0().height());
    mask0.fill(1);
    for (int x = 0; x < frame0().width(); ++x) mask0.at(x, 7) = 0;
    in.validity_before = &mask0;
  }

  SmaConfig off = cfg;
  off.precompute = PrecomputeMode::kOff;
  SmaConfig on = cfg;
  on.precompute = PrecomputeMode::kOn;

  const TrackResult naive =
      SmaPipeline(off, {.track = options}).track_pair(in);
  const TrackResult fast = SmaPipeline(on, {.track = options}).track_pair(in);
  ASSERT_GT(naive.flow.count_valid(), 0u);
  EXPECT_EQ(naive.flow, fast.flow) << "precompute diverged on " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PrecomputeEquivalence,
    ::testing::Values(
        GridCase{"cont_square", MotionModel::kContinuous, -1, 1, false, false},
        GridCase{"cont_rect", MotionModel::kContinuous, 2, 1, false, false},
        GridCase{"cont_subpixel", MotionModel::kContinuous, -1, 1, true,
                 false},
        GridCase{"cont_stride2", MotionModel::kContinuous, -1, 2, false,
                 false},
        GridCase{"cont_masked", MotionModel::kContinuous, -1, 1, false, true},
        GridCase{"semi_square", MotionModel::kSemiFluid, -1, 1, false, false},
        GridCase{"semi_subpixel_masked", MotionModel::kSemiFluid, -1, 1, true,
                 true}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Pipeline caching: the planes are built once per before frame and
// reused — without perturbing the geometry hit/miss invariant.
// ---------------------------------------------------------------------------

TEST(PipelinePrecompute, BuildsOncePerBeforeFrameAndReuses) {
  const imaging::ImageF f0 = testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  SmaPipeline pipeline(base_config());

  pipeline.track_pair(f0, f1);
  EXPECT_EQ(pipeline.stats().precompute_builds, 1u);
  EXPECT_EQ(pipeline.stats().precompute_reuses, 0u);

  // Same pair again: geometry is a cache hit AND the planes are reused.
  pipeline.track_pair(f0, f1);
  EXPECT_EQ(pipeline.stats().precompute_builds, 1u);
  EXPECT_EQ(pipeline.stats().precompute_reuses, 1u);
  EXPECT_EQ(pipeline.stats().surface_fits, 2u);
  EXPECT_EQ(pipeline.stats().cache_hits, 2u);
  EXPECT_EQ(pipeline.stats().cache_misses, 2u);
}

TEST(PipelinePrecompute, DisabledModeBuildsNothing) {
  const imaging::ImageF f0 = testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  SmaConfig cfg = base_config();
  cfg.precompute = PrecomputeMode::kOff;
  SmaPipeline pipeline(cfg);
  pipeline.track_pair(f0, f1);
  EXPECT_EQ(pipeline.stats().precompute_builds, 0u);
  EXPECT_EQ(pipeline.stats().precompute_reuses, 0u);
  EXPECT_EQ(pipeline.stats().match_precompute_seconds, 0.0);
}

TEST(PipelinePrecompute, SequenceBuildsOncePerDistinctBeforeFrame) {
  std::vector<imaging::ImageF> frames;
  for (int t = 0; t < 4; ++t)
    frames.push_back(testing::textured_pattern(24, 24, 0.15 * t));
  SmaPipeline pipeline(base_config());
  pipeline.track_sequence(frames);
  // Every pair has a distinct before frame: 3 builds, no reuse — and the
  // documented geometry invariant is untouched.
  EXPECT_EQ(pipeline.stats().precompute_builds, 3u);
  EXPECT_EQ(pipeline.stats().precompute_reuses, 0u);
  EXPECT_EQ(pipeline.stats().surface_fits, 4u);
}

}  // namespace
}  // namespace sma::core
