// test_semifluid_differential.cpp — F_semi and F_cont bit-identity over
// generated configurations.
//
// A seeded generator draws the motion model, template/search radii
// (square and rectangular), N_ss / N_sT, odd frame sizes including
// frames smaller than the template + search halo, segment heights,
// sub-pixel refinement and tile shapes — tile widths 1..20, so tiles
// narrower than, equal to and wider than every lane count occur.  Every
// case runs the naive oracle — sequential, precompute off,
// use_precomputed_mapping off, so every F_semi template pixel is
// remapped on the fly by semifluid_match — and asserts that every
// execution path reproduces its flow bit for bit: sequential (with the
// correspondence table for F_semi), vector at every compiled SIMD level
// (selected through SMA_SIMD_LEVEL) and the thread caps {1, 4}, and
// maspar-sim.  Every vector run must also account for the whole
// search: batched + tail hypotheses = pixels x search hypotheses.  The
// generator also draws a shard grid (1..3 x 1..3): the shard runner over
// an in-memory tile source must stitch the same bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
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
    return os.str();
  }
};

GeneratedCase generate(std::mt19937& rng) {
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  GeneratedCase c;
  SmaConfig& cfg = c.config;
  cfg.model = pick(0, 1) == 0 ? MotionModel::kContinuous
                              : MotionModel::kSemiFluid;
  cfg.surface_fit_radius = pick(1, 2);
  cfg.z_search_radius = pick(0, 2);
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
  const bool tiny = pick(0, 3) == 0;
  c.w = 2 * (tiny ? pick(1, halo) : pick(halo + 1, 10)) + 1;
  c.h = 2 * (tiny ? pick(1, halo) : pick(halo + 1, 10)) + 1;
  c.phase = 0.1 * pick(0, 20);
  c.shift_x = pick(-2, 2);
  c.shift_y = pick(-2, 2);
  c.grid = shard::ShardSpec{pick(1, 3), pick(1, 3)};
  return c;
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
  unsetenv("SMA_SIMD_LEVEL");

  constexpr int kCases = 24;
  for (int i = 0; i < kCases; ++i) {
    const GeneratedCase c = generate(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.describe());
    const imaging::ImageF f0 = testing::textured_pattern(c.w, c.h, c.phase);
    const imaging::ImageF f1 = testing::shift_image(f0, c.shift_x, c.shift_y);
    TrackerInput in;
    in.intensity_before = in.surface_before = &f0;
    in.intensity_after = in.surface_after = &f1;

    SmaConfig oracle_cfg = c.config;
    oracle_cfg.precompute = PrecomputeMode::kOff;
    oracle_cfg.use_precomputed_mapping = false;
    const TrackResult oracle =
        SmaPipeline(oracle_cfg, {.track = c.options}).track_pair(in);

    const auto expect_same = [&](const std::string& what,
                                 const SmaConfig& cfg) {
      const TrackResult r =
          SmaPipeline(cfg, {.backend = what.substr(0, what.find('@')),
                            .track = c.options})
              .track_pair(in);
      EXPECT_TRUE(imaging::bit_equal(r.flow, oracle.flow)) << what;
      return r;
    };

    // The table consumed by the naive arithmetic (precompute off).
    SmaConfig table_naive = c.config;
    table_naive.precompute = PrecomputeMode::kOff;
    expect_same("sequential", table_naive);
    expect_same("sequential", c.config);
    expect_same("maspar-sim", c.config);
    for (const int threads : {1, 4}) {
      SmaConfig cfg = c.config;
      cfg.threads = threads;
      for (const simd::SimdLevel level : levels) {
        setenv("SMA_SIMD_LEVEL", simd::level_name(level), 1);
        const TrackResult r = expect_same(
            std::string("vector@") + simd::level_name(level), cfg);
        const auto* vx =
            dynamic_cast<const VectorBackendExtras*>(r.extras.get());
        ASSERT_NE(vx, nullptr);
        EXPECT_TRUE(vx->report.vector_path);
        EXPECT_EQ(vx->report.fallback, "");
        EXPECT_EQ(vx->report.batched_hypotheses + vx->report.tail_hypotheses,
                  static_cast<std::uint64_t>(c.w) * c.h *
                      cfg.z_search_size() * cfg.z_search_size_y());
      }
      unsetenv("SMA_SIMD_LEVEL");
    }

    // The generated tile grid: each haloed crop tracked on its own and
    // stitched must reproduce the whole frame.
    shard::InMemoryTileSource source(f0, f1);
    const shard::ShardResult sharded = shard::shard_track_pair(
        source, c.config,
        {.spec = c.grid, .backend = "vector", .track = c.options});
    EXPECT_TRUE(imaging::bit_equal(sharded.flow, oracle.flow)) << "shard";
  }
}

}  // namespace
}  // namespace sma::core
