// test_semifluid_differential.cpp — F_semi and F_cont bit-identity over
// generated configurations.
//
// A seeded generator draws the motion model, template/search radii
// (square and rectangular), N_ss / N_sT, odd frame sizes including
// frames smaller than the template + search halo, segment heights,
// sub-pixel refinement and tile shapes — tile widths 1..20, so tiles
// narrower than, equal to and wider than every lane count occur.  Every
// case runs the naive oracle — the matching stage with the sequential
// visit on the pair without precompute planes, each segment's
// correspondence table cleared before scan_hypotheses, so every F_semi
// template pixel is remapped on the fly by semifluid_match — and
// asserts that every execution path reproduces its flow bit for bit:
// sequential without planes and through the pipeline (both reading the
// correspondence table for F_semi), vector at every compiled SIMD level
// (selected through SMA_SIMD_LEVEL) at shared-pool widths {1, 4}, and
// maspar-sim.  Every vector run must also account for the whole
// search: batched + tail hypotheses = pixels x search hypotheses.  The
// generator also draws a shard grid (1..3 x 1..3): the shard runner over
// an in-memory tile source must stitch the same bits.
//
// A second seeded stream draws the search mode (with its refine radius)
// and, for some cases, validity masks, so the first stream's cases keep
// their configs.  A pruned case's oracle is the naive run in the same
// mode — the naive oracle restricted to the same admission windows — and
// every backend must report the same PruneReport counters (all zero
// under full search); under pruning
// the vector lanes fold exactly the admitted hypotheses
// (fine_scheduled).  Masked cases take the vector backend's staged
// fallback and skip the shard leg (a tile source has no mask channel).
// Sub-pixel cases also account for every probe: a path's evaluated plus
// reused probes equal the probes the oracle evaluates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/match_vector.hpp"
#include "core/pipeline.hpp"
#include "helpers.hpp"
#include "maspar/backend.hpp"
#include "shard/runner.hpp"
#include "simd/dispatch.hpp"

namespace sma::core {
namespace {

struct GeneratedCase {
  SmaConfig config;
  TrackOptions options;
  int w = 0, h = 0;
  double phase = 0.0;
  int shift_x = 0, shift_y = 0;
  shard::ShardSpec grid;
  imaging::ImageU8 mask_before, mask_after;  ///< empty: no mask

  bool masked() const {
    return !mask_before.empty() || !mask_after.empty();
  }

  std::string describe() const {
    std::ostringstream os;
    os << (config.model == MotionModel::kSemiFluid ? "semi " : "cont ") << w
       << "x" << h << " search " << config.z_search_radius << "/"
       << config.z_search_radius_y << " template " << config.z_template_radius
       << "/" << config.z_template_radius_y << " nss "
       << config.semifluid_search_radius << " nst "
       << config.semifluid_template_radius << " Z " << config.segment_rows
       << " subpixel " << options.subpixel << " tile " << config.tile_width
       << "x" << config.tile_height << " shard " << grid.rows << "x"
       << grid.cols;
    if (config.search_mode == SearchMode::kPruned)
      os << " pruned refine " << config.prune_refine_radius;
    if (!mask_before.empty()) os << " mask before";
    if (!mask_after.empty()) os << " mask after";
    return os.str();
  }
};

// `prunable` cases have a search radius of at least 1 and frames of at
// least 15 px a side, which the coarse seed pass can halve; with it off,
// the draws are the ones the generator has always made.
GeneratedCase generate(std::mt19937& rng, bool prunable = false) {
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  GeneratedCase c;
  SmaConfig& cfg = c.config;
  cfg.model = pick(0, 1) == 0 ? MotionModel::kContinuous
                              : MotionModel::kSemiFluid;
  cfg.surface_fit_radius = pick(1, 2);
  cfg.z_search_radius = prunable ? pick(1, 3) : pick(0, 2);
  cfg.z_search_radius_y = pick(-1, 2);
  cfg.z_template_radius = pick(0, 3);
  cfg.z_template_radius_y = pick(-1, 3);
  cfg.semifluid_search_radius = pick(1, 2);
  cfg.semifluid_template_radius = pick(0, 2);
  cfg.segment_rows = pick(0, cfg.z_search_size_y());
  cfg.tile_width = pick(1, 20);
  cfg.tile_height = pick(0, 1) == 0 ? 0 : pick(1, 9);
  c.options.subpixel = pick(0, 1) == 1;
  // Odd sizes; roughly one case in four is smaller than the halo.
  const int halo = cfg.z_template_radius + cfg.z_search_radius +
                   cfg.semifluid_search_radius;
  const bool tiny = !prunable && pick(0, 3) == 0;
  const int lo = prunable ? std::max(halo + 1, 7) : halo + 1;
  c.w = 2 * (tiny ? pick(1, halo) : pick(lo, std::max(lo, 10))) + 1;
  c.h = 2 * (tiny ? pick(1, halo) : pick(lo, std::max(lo, 10))) + 1;
  c.phase = 0.1 * pick(0, 20);
  c.shift_x = pick(-2, 2);
  c.shift_y = pick(-2, 2);
  c.grid = shard::ShardSpec{pick(1, 3), pick(1, 3)};
  return c;
}

// The second stream: search mode, refine radius and masks.  Roughly
// half the cases prune (every `pruned` one) and one in three carries a
// mask on the before frame, the after frame or both, with about one
// pixel in eight masked.
void draw_mode_and_masks(std::mt19937& rng, GeneratedCase& c, bool pruned) {
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  if (pick(0, 1) == 1 || pruned) {
    c.config.search_mode = SearchMode::kPruned;
    c.config.prune_refine_radius = pick(0, 2);
  }
  const int masks = pick(0, 5);  // 0..3: none; 4: one frame; 5: both
  if (masks < 4) return;
  const auto draw_mask = [&] {
    imaging::ImageU8 m(c.w, c.h);
    for (int y = 0; y < c.h; ++y)
      for (int x = 0; x < c.w; ++x) m.at(x, y) = pick(0, 7) == 0 ? 0 : 1;
    return m;
  };
  const bool before = masks == 5 || pick(0, 1) == 0;
  if (before) c.mask_before = draw_mask();
  if (masks == 5 || !before) c.mask_after = draw_mask();
}

std::vector<simd::SimdLevel> compiled_levels() {
  std::vector<simd::SimdLevel> out;
  for (const simd::SimdLevel req :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512,
        simd::SimdLevel::kNeon}) {
    const simd::SimdLevel got = resolve_kernel_level(req);
    if (!simd::level_supported(got)) continue;
    bool seen = false;
    for (const simd::SimdLevel s : out) seen = seen || s == got;
    if (!seen) out.push_back(got);
  }
  return out;
}

TEST(SemiFluidDifferential, GeneratedConfigsBitIdenticalToNaiveOracle) {
  maspar::register_maspar_backend();
  const std::vector<simd::SimdLevel> levels = compiled_levels();
  ASSERT_FALSE(levels.empty());
  std::mt19937 rng(20240613u);
  std::mt19937 mode_rng(20261019u);
  unsetenv("SMA_SIMD_LEVEL");

  // Pruned cases whose windows shrank: all of them, F_semi ones,
  // segmented F_semi ones and masked ones.  The draw must reach each.
  int shrunk = 0, shrunk_semi = 0, shrunk_segmented = 0, shrunk_masked = 0;
  // The first stream's 24 cases, then 12 prunable pruned cases drawn
  // wholly from the second stream.
  constexpr int kCases = 24;
  constexpr int kPrunedCases = 12;
  for (int i = 0; i < kCases + kPrunedCases; ++i) {
    const bool extra = i >= kCases;
    GeneratedCase c = extra ? generate(mode_rng, true) : generate(rng);
    draw_mode_and_masks(mode_rng, c, extra);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.describe());
    const imaging::ImageF f0 = testing::textured_pattern(c.w, c.h, c.phase);
    const imaging::ImageF f1 = testing::shift_image(f0, c.shift_x, c.shift_y);
    TrackerInput in;
    in.intensity_before = in.surface_before = &f0;
    in.intensity_after = in.surface_after = &f1;
    if (!c.mask_before.empty()) in.validity_before = &c.mask_before;
    if (!c.mask_after.empty()) in.validity_after = &c.mask_after;
    const bool pruned = c.config.search_mode == SearchMode::kPruned;

    const testing::PlanelessPair planeless(in, c.config);
    const MatchInput& mi = planeless.input();
    const TrackResult oracle = run_matching_stage(
        mi, c.config, c.options, /*parallel=*/false,
        [&](const MatchSegment& seg) {
          MatchSegment naive = seg;
          naive.table = nullptr;
          naive.pre = nullptr;
          scan_segment(mi, c.config, /*parallel=*/false, naive);
        });
    const PruneReport& oracle_prune = oracle.extras->prune;
    EXPECT_EQ(oracle.subpixel_probes.reused, 0u);
    if (!c.options.subpixel) {
      EXPECT_EQ(oracle.subpixel_probes.evaluated, 0u);
    }
    ASSERT_EQ(oracle_prune.active, pruned ? 1u : 0u);
    if (pruned && oracle_prune.window_pixels > 0) {
      const bool semi = c.config.effective_nss() > 0;
      ++shrunk;
      shrunk_semi += semi ? 1 : 0;
      shrunk_segmented +=
          semi && c.config.effective_segment_rows() < c.config.z_search_size_y()
              ? 1
              : 0;
      shrunk_masked += c.masked() ? 1 : 0;
    }

    const auto expect_same = [&](const std::string& what,
                                 const TrackResult& r) {
      EXPECT_TRUE(imaging::bit_equal(r.flow, oracle.flow)) << what;
      // Every probe the oracle evaluates is either evaluated or read
      // from the sweep's residuals.
      EXPECT_EQ(r.subpixel_probes.evaluated + r.subpixel_probes.reused,
                oracle.subpixel_probes.evaluated)
          << what;
      EXPECT_EQ(std::memcmp(&r.extras->prune, &oracle_prune,
                            sizeof(PruneReport)),
                0)
          << what << " PruneReport differs";
    };
    const auto track = [&](const std::string& backend, const SmaConfig& cfg) {
      return SmaPipeline(cfg, {.backend = backend, .track = c.options})
          .track_pair(in);
    };

    // The table consumed by the naive arithmetic: no planes.
    expect_same("sequential without planes",
                planeless.match("sequential", c.config, c.options));
    expect_same("sequential", track("sequential", c.config));
    expect_same("maspar-sim", track("maspar-sim", c.config));
    for (const int threads : {1, 4}) {
      const testing::PoolWidth pool(threads);
      const SmaConfig& cfg = c.config;
      for (const simd::SimdLevel level : levels) {
        setenv("SMA_SIMD_LEVEL", simd::level_name(level), 1);
        const TrackResult r = track("vector", cfg);
        expect_same(std::string("vector@") + simd::level_name(level), r);
        const auto* vx =
            dynamic_cast<const VectorBackendExtras*>(r.extras.get());
        ASSERT_NE(vx, nullptr);
        if (c.masked()) {
          EXPECT_FALSE(vx->report.vector_path);
          EXPECT_EQ(vx->report.fallback, "masked");
          continue;
        }
        EXPECT_TRUE(vx->report.vector_path);
        EXPECT_EQ(vx->report.fallback, "");
        EXPECT_EQ(vx->report.batched_hypotheses + vx->report.tail_hypotheses,
                  pruned ? oracle_prune.fine_scheduled
                         : static_cast<std::uint64_t>(c.w) * c.h *
                               cfg.z_search_size() * cfg.z_search_size_y());
      }
      unsetenv("SMA_SIMD_LEVEL");
    }

    // The generated tile grid: each haloed crop tracked on its own and
    // stitched must reproduce the whole frame.
    if (c.masked()) continue;
    shard::InMemoryTileSource source(f0, f1);
    const shard::ShardResult sharded = shard::shard_track_pair(
        source, c.config,
        {.spec = c.grid, .backend = "vector", .track = c.options});
    EXPECT_TRUE(imaging::bit_equal(sharded.flow, oracle.flow)) << "shard";
  }
  std::printf("pruned cases with shrunk windows: %d (F_semi %d, segmented "
              "F_semi %d, masked %d)\n",
              shrunk, shrunk_semi, shrunk_segmented, shrunk_masked);
  EXPECT_GT(shrunk_semi, 0);
  EXPECT_GT(shrunk_segmented, 0);
  EXPECT_GT(shrunk_masked, 0);
}

}  // namespace
}  // namespace sma::core
