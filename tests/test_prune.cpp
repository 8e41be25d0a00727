// test_prune.cpp — the coarse-to-fine pruned hypothesis search
// (core/match_prune.hpp).
//
// The load-bearing properties, in dependency order:
//  * upsample_flow scales vectors with the resolution ratio;
//  * the upsampled coarse winner seeds a shrunken window that contains
//    it, with a full-window per-pixel fallback when it cannot;
//  * the pruned FlowField — and every counter of its report — is
//    bit-identical across backends (maspar-sim included), pool widths
//    and tile shapes, and the vector backend runs it on its lane kernel,
//    folding exactly the admitted hypotheses;
//  * a backend without host parallelism (sequential, maspar-sim) runs
//    the whole pruned search, seed pass included, off the shared pool;
//  * pruned search runs whenever it is asked for: F_semi, every segment
//    height, validity masks and a pair without precompute planes prune
//    too, with the same bytes on every backend, and every segment height
//    and the planes-less route reproduce the unsegmented run with
//    planes; only
//    the full-vs-pruned comparison is tolerance-based (a bad seed may
//    exclude the oracle winner; quantified, not assumed);
//  * the coarse seed pass runs inside the pruned search's span, so its
//    time is attributed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/match_prune.hpp"
#include "core/match_vector.hpp"
#include "core/obs_bridge.hpp"
#include "core/pipeline.hpp"
#include "goes/synth.hpp"
#include "helpers.hpp"
#include "maspar/backend.hpp"
#include "obs/trace.hpp"
#include "surface/geometry.hpp"

namespace sma::core {
namespace {

constexpr int kW = 40;
constexpr int kH = 36;

const imaging::ImageF& frame0() {
  static const imaging::ImageF f = testing::textured_pattern(kW, kH);
  return f;
}

const imaging::ImageF& frame1() {
  static const imaging::ImageF f = testing::shift_image(frame0(), 2, -1);
  return f;
}

TrackerInput monocular_input() {
  TrackerInput in;
  in.intensity_before = in.surface_before = &frame0();
  in.intensity_after = in.surface_after = &frame1();
  return in;
}

SmaConfig pruned_config() {
  SmaConfig cfg;
  cfg.model = MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 3;
  cfg.z_template_radius = 3;
  cfg.search_mode = SearchMode::kPruned;
  return cfg;
}

const surface::GeometricField& geom0() {
  static const surface::GeometricField g = [] {
    surface::GeometryOptions opts;
    opts.patch_radius = 2;
    return surface::compute_geometry(frame0(), opts);
  }();
  return g;
}

/// The stage fills every backend's report from the same windows and the
/// same winners, so every counter matches.
void expect_same_report(const PruneReport& want, const PruneReport& got,
                        const std::string& what) {
  static_assert(sizeof(PruneReport) == 9 * sizeof(std::uint64_t),
                "PruneReport changed: compare the new field here");
  EXPECT_EQ(got.active, want.active) << what;
  EXPECT_EQ(got.full_grid_hypotheses, want.full_grid_hypotheses) << what;
  EXPECT_EQ(got.coarse_hypotheses, want.coarse_hypotheses) << what;
  EXPECT_EQ(got.fine_scheduled, want.fine_scheduled) << what;
  EXPECT_EQ(got.bound_checks, want.bound_checks) << what;
  EXPECT_EQ(got.bound_skipped, want.bound_skipped) << what;
  EXPECT_EQ(got.window_pixels, want.window_pixels) << what;
  EXPECT_EQ(got.fallback_pixels, want.fallback_pixels) << what;
  EXPECT_EQ(got.seed_interior, want.seed_interior) << what;
}

// ---------------------------------------------------------------------------
// upsample_flow — the coarse winners' propagation to full resolution.
// ---------------------------------------------------------------------------

TEST(UpsampleFlow, DoublesVectorsWithResolution) {
  const imaging::FlowField coarse = testing::constant_flow(8, 8, 1.5f, -0.5f);
  const imaging::FlowField fine = upsample_flow(coarse, 16, 16);
  EXPECT_EQ(fine.width(), 16);
  EXPECT_NEAR(fine.at(8, 8).u, 3.0f, 1e-5);
  EXPECT_NEAR(fine.at(8, 8).v, -1.0f, 1e-5);
  EXPECT_EQ(fine.count_valid(), 256u);
}

TEST(UpsampleFlow, IdentityAtSameSize) {
  const imaging::FlowField f = testing::constant_flow(8, 8, 2.0f, 1.0f);
  const imaging::FlowField same = upsample_flow(f, 8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      EXPECT_NEAR(same.at(x, y).u, 2.0f, 1e-5);
      EXPECT_NEAR(same.at(x, y).v, 1.0f, 1e-5);
    }
}

// ---------------------------------------------------------------------------
// prune_window / prune_winner_interior — the per-pixel window rule.
// ---------------------------------------------------------------------------

PruneSeeds one_seed(int sx, int sy, bool ok) {
  PruneSeeds seeds;
  seeds.width = 1;
  seeds.height = 1;
  seeds.sx = {sx};
  seeds.sy = {sy};
  seeds.ok = {static_cast<std::uint8_t>(ok ? 1 : 0)};
  return seeds;
}

TEST(PruneWindow, ShrinksAroundSeedAndClamps) {
  const PruneWindow w = prune_window(one_seed(1, -2, true), 0, 0, 3, 3, 1);
  EXPECT_TRUE(w.shrunk);
  EXPECT_EQ(w.hx_min, 0);
  EXPECT_EQ(w.hx_max, 2);
  EXPECT_EQ(w.hy_min, -3);
  EXPECT_EQ(w.hy_max, -1);

  // A seed on the search-box corner keeps the overlapping quarter.
  const PruneWindow c = prune_window(one_seed(3, 3, true), 0, 0, 3, 3, 1);
  EXPECT_TRUE(c.shrunk);
  EXPECT_EQ(c.hx_min, 2);
  EXPECT_EQ(c.hx_max, 3);
  EXPECT_EQ(c.hy_min, 2);
  EXPECT_EQ(c.hy_max, 3);
}

TEST(PruneWindow, FallsBackToFullWindow) {
  // Invalid seed: full window, not shrunk.
  const PruneWindow inv = prune_window(one_seed(0, 0, false), 0, 0, 3, 3, 1);
  EXPECT_FALSE(inv.shrunk);
  EXPECT_EQ(inv.hx_min, -3);
  EXPECT_EQ(inv.hx_max, 3);
  EXPECT_EQ(inv.hy_min, -3);
  EXPECT_EQ(inv.hy_max, 3);

  // A seed strictly outside the search box cannot center a window.
  const PruneWindow out = prune_window(one_seed(5, 0, true), 0, 0, 3, 3, 1);
  EXPECT_FALSE(out.shrunk);
  EXPECT_EQ(out.hx_min, -3);
  EXPECT_EQ(out.hx_max, 3);

  // A radius at least the search radius shrinks nothing.
  const PruneWindow wide = prune_window(one_seed(0, 0, true), 0, 0, 3, 3, 3);
  EXPECT_FALSE(wide.shrunk);
}

TEST(PruneWindow, WinnerInteriorPredicate) {
  const PruneWindow w = prune_window(one_seed(0, 0, true), 0, 0, 3, 3, 1);
  ASSERT_TRUE(w.shrunk);
  EXPECT_TRUE(prune_winner_interior(w, 3, 3, 0, 0));
  // Winners pinned to a shrunken edge are not interior.
  EXPECT_FALSE(prune_winner_interior(w, 3, 3, 1, 0));
  EXPECT_FALSE(prune_winner_interior(w, 3, 3, 0, -1));

  // Edges that coincide with the full search box do not count: a corner
  // seed's window touches the box at hx = hy = 3 and stays "interior"
  // there.
  const PruneWindow c = prune_window(one_seed(3, 3, true), 0, 0, 3, 3, 1);
  ASSERT_TRUE(c.shrunk);
  EXPECT_FALSE(prune_winner_interior(c, 3, 3, 2, 2));  // shrunken edges
  EXPECT_TRUE(prune_winner_interior(c, 3, 3, 3, 3));   // box corner
}

// ---------------------------------------------------------------------------
// compute_prune_seeds — the coarse-to-fine seeding property.
// ---------------------------------------------------------------------------

TEST(PruneSeedsTest, UpsampledWinnerSeedsWindowForSyntheticFlows) {
  const SmaConfig cfg = pruned_config();
  const int nzs = cfg.z_search_radius;
  // Synthetic translations up to the search radius (the property the
  // ISSUE names): the window built on the upsampled coarse winner must
  // contain it, and — the property pruning accuracy rests on — the TRUE
  // displacement must fall inside that shrunken window for most interior
  // pixels (the coarse winner can be off by a pixel on half-pixel coarse
  // shifts; the refine radius is what absorbs that).
  // Broadband fractal clouds rather than the sinusoid pattern: the
  // coarse pass matches on the DOWNSAMPLED frames, so the input needs
  // structure that survives the pyramid's smoothing.
  const imaging::ImageF f0 = goes::fractal_clouds(48, 44, 7);
  for (const auto [dx, dy] : {std::pair{1, 0}, {2, -1}, {-3, 2}, {0, 3}}) {
    const imaging::ImageF f1 = testing::shift_image(f0, dx, dy);
    const PruneSeeds seeds = compute_prune_seeds(f0, f1, cfg, true);
    ASSERT_EQ(seeds.width, 48);
    ASSERT_EQ(seeds.height, 44);
    EXPECT_GT(seeds.coarse_hypotheses, 0u);

    int valid = 0, truth_in_window = 0;
    const int margin = 8;
    for (int y = margin; y < seeds.height - margin; ++y)
      for (int x = margin; x < seeds.width - margin; ++x) {
        if (!seeds.valid_at(x, y)) continue;
        ++valid;
        const std::size_t i = static_cast<std::size_t>(y) * seeds.width + x;
        const int sx = seeds.sx[i];
        const int sy = seeds.sy[i];
        const PruneWindow w = prune_window(seeds, x, y, nzs, nzs,
                                           cfg.prune_refine_radius);
        if (sx >= -nzs && sx <= nzs && sy >= -nzs && sy <= nzs) {
          // In-box seeds shrink (radius 1 < nzs = 3) and contain the
          // seed.
          EXPECT_TRUE(w.shrunk);
          EXPECT_GE(sx, w.hx_min);
          EXPECT_LE(sx, w.hx_max);
          EXPECT_GE(sy, w.hy_min);
          EXPECT_LE(sy, w.hy_max);
        } else {
          // Out-of-box seeds fall back to the full window.
          EXPECT_FALSE(w.shrunk);
        }
        if (dx >= w.hx_min && dx <= w.hx_max && dy >= w.hy_min &&
            dy <= w.hy_max)
          ++truth_in_window;
      }
    ASSERT_GT(valid, 0) << "shift (" << dx << ", " << dy << ")";
    EXPECT_GT(static_cast<double>(truth_in_window) / valid, 0.8)
        << "shift (" << dx << ", " << dy << ")";
  }
}

TEST(PruneSeedsTest, TinyFrameYieldsNoSeeds) {
  // Frames too small to downsample (pyramid min size) produce a seedless
  // result: every pixel searches the full window.
  const imaging::ImageF f0 = testing::textured_pattern(8, 8);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  const PruneSeeds seeds =
      compute_prune_seeds(f0, f1, pruned_config(), true);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) EXPECT_FALSE(seeds.valid_at(x, y));
}

// The seed pass runs on the pool only for a host-parallel caller, and
// gives the same bits either way: 96^2 is past for_each_row's two-band
// threshold, so the filters really split across the pool.
TEST(PruneSeedsTest, SameSeedsOnAndOffThePool) {
  const testing::PoolWidth pool(4);
  const imaging::ImageF f0 = goes::fractal_clouds(96, 96, 7);
  const imaging::ImageF f1 = testing::shift_image(f0, 2, -1);
  const PruneSeeds on = compute_prune_seeds(f0, f1, pruned_config(), true);
  const PruneSeeds off = compute_prune_seeds(f0, f1, pruned_config(), false);
  EXPECT_EQ(on.sx, off.sx);
  EXPECT_EQ(on.sy, off.sy);
  EXPECT_EQ(on.ok, off.ok);
  EXPECT_EQ(on.coarse_hypotheses, off.coarse_hypotheses);
}

// ---------------------------------------------------------------------------
// End-to-end: determinism, fallback exactness, oracle agreement.
// ---------------------------------------------------------------------------

// A backend that declares no host parallelism never enters the shared
// pool, its seed pass included, and still gives vector's flow.
TEST(PrunedSearch, InlineBackendsNeverEnterThePool) {
  maspar::register_maspar_backend();
  const TrackerInput in = monocular_input();
  for (const MotionModel model :
       {MotionModel::kContinuous, MotionModel::kSemiFluid}) {
    SmaConfig cfg = pruned_config();
    cfg.model = model;
    const TrackResult vec =
        SmaPipeline(cfg, {.backend = "vector"}).track_pair(in);
    for (const std::string backend : {"sequential", "maspar-sim"}) {
      const std::uint64_t batches =
          sched::ThreadPool::shared().stats().batches;
      const TrackResult r =
          SmaPipeline(cfg, {.backend = backend}).track_pair(in);
      EXPECT_EQ(sched::ThreadPool::shared().stats().batches, batches)
          << backend << " entered the pool";
      EXPECT_TRUE(imaging::bit_equal(vec.flow, r.flow)) << backend;
    }
  }
}

TEST(PrunedSearch, BitIdenticalAcrossBackendsThreadsAndTiles) {
  const TrackerInput in = monocular_input();
  const SmaConfig cfg = pruned_config();

  const TrackResult ref = SmaPipeline(cfg).track_pair(in);
  ASSERT_GT(ref.flow.count_valid(), 0u);
  const PruneReport& ref_report = ref.extras->prune;
  EXPECT_EQ(ref_report.active, 1u);

  // The MP-2 executor visits pixels in its own memory-layer order but
  // runs the same pruned pass, so its flow and counters match too.
  maspar::register_maspar_backend();
  const TrackResult mp =
      SmaPipeline(cfg, {.backend = "maspar-sim"}).track_pair(in);
  EXPECT_EQ(ref.flow, mp.flow) << "maspar-sim diverged from sequential";
  expect_same_report(ref_report, mp.extras->prune, "maspar-sim");

  for (const int threads : {1, 2, 4})
    for (const auto& [tw, th] : {std::pair{0, 0}, {8, 8}, {16, 4}}) {
      const testing::PoolWidth pool(threads);
      SmaConfig variant = cfg;
      variant.tile_width = tw;
      variant.tile_height = th;
      const TrackResult r =
          SmaPipeline(variant, {.backend = "vector"}).track_pair(in);
      const std::string what = "vector threads=" + std::to_string(threads) +
                               " tile=" + std::to_string(tw) + "x" +
                               std::to_string(th);
      EXPECT_EQ(ref.flow, r.flow) << what << " diverged from sequential";
      const auto* vx = dynamic_cast<const VectorBackendExtras*>(r.extras.get());
      ASSERT_NE(vx, nullptr) << what;
      // Pruned search runs on the lane kernel, and its lanes fold exactly
      // the admitted hypotheses.
      EXPECT_TRUE(vx->report.vector_path) << what;
      EXPECT_EQ(vx->report.fallback, "") << what;
      EXPECT_EQ(vx->report.batched_hypotheses + vx->report.tail_hypotheses,
                ref_report.fine_scheduled)
          << what;
      expect_same_report(ref_report, r.extras->prune, what);
    }
}

TEST(PrunedSearch, ReportAccountingIsConsistent) {
  const TrackerInput in = monocular_input();
  const SmaConfig cfg = pruned_config();
  const TrackResult r =
      SmaPipeline(cfg).track_pair(in);
  const PruneReport& report = r.extras->prune;
  EXPECT_EQ(report.active, 1u);

  const std::uint64_t npix = static_cast<std::uint64_t>(kW) * kH;
  const std::uint64_t grid = 7ull * 7ull;  // (2*3+1)^2
  EXPECT_EQ(report.full_grid_hypotheses, npix * grid);
  EXPECT_EQ(report.window_pixels + report.fallback_pixels, npix);
  EXPECT_GT(report.window_pixels, 0u);
  EXPECT_GT(report.fine_scheduled, 0u);
  EXPECT_LT(report.fine_scheduled, report.full_grid_hypotheses);
  // No residual bound: nothing is checked or skipped.
  EXPECT_EQ(report.bound_checks, 0u);
  EXPECT_EQ(report.bound_skipped, 0u);
  EXPECT_LE(report.seed_interior, report.window_pixels);
  EXPECT_GT(report.coarse_hypotheses, 0u);
  // The point of the exercise: fewer hypotheses than the full grid.
  EXPECT_GT(report.reduction(), 1.0);
}

TEST(PrunedSearch, CoarsePassRunsInsideThePrunedSpan) {
  // The seed pass is part of the pruned search: its span nests inside
  // match/pruned_search, whose timer feeds timings.hypothesis_matching,
  // so the coarse pass lands in a TrackTimings bucket on every backend.
  const TrackerInput in = monocular_input();
  for (const std::string backend : {"sequential", "vector"}) {
    obs::TraceRecorder recorder;
    obs::set_trace_recorder(&recorder);
    SmaPipeline(pruned_config(), {.backend = backend}).track_pair(in);
    obs::set_trace_recorder(nullptr);

    const std::vector<obs::TraceEvent> events = recorder.events();
    const auto only = [&](const char* name) {
      const obs::TraceEvent* found = nullptr;
      int count = 0;
      for (const obs::TraceEvent& e : events)
        if (std::strcmp(e.category, "match") == 0 &&
            std::strcmp(e.name, name) == 0) {
          found = &e;
          ++count;
        }
      EXPECT_EQ(count, 1) << backend << " match/" << name << " spans";
      return found;
    };
    const obs::TraceEvent* seed = only("prune_coarse_seed");
    const obs::TraceEvent* pruned = only("pruned_search");
    ASSERT_NE(seed, nullptr) << backend;
    ASSERT_NE(pruned, nullptr) << backend;
    EXPECT_GE(seed->start_us, pruned->start_us) << backend;
    EXPECT_LE(seed->start_us + seed->dur_us,
              pruned->start_us + pruned->dur_us + 1e-3)
        << backend;
  }
}

TEST(PrunedSearch, AnyModelSegmentMaskOrPlanesPrunesOnEveryBackend) {
  // F_semi, segmented, masked and planes-less runs prune, and every
  // backend, tile shape and pool width reproduces the sequential bytes
  // and counters.  Segment heights and the precompute planes do not
  // change the hypotheses a pixel folds, so they reproduce the
  // unsegmented run with planes too.
  maspar::register_maspar_backend();
  const TrackerInput plain = monocular_input();
  imaging::ImageU8 mask(kW, kH);
  mask.fill(1);
  for (int x = 0; x < kW; ++x) mask.at(x, 9) = 0;
  TrackerInput masked = plain;
  masked.validity_before = &mask;

  // Runs `cfg` on every backend and returns the sequential result:
  // through the pipeline, or with `planeless` through each backend's
  // match() on the pair without precompute planes (the naive evaluator).
  const auto every_backend = [](const SmaConfig& cfg, const TrackerInput& in,
                                const std::string& what,
                                bool planeless = false) {
    std::optional<testing::PlanelessPair> pair;
    if (planeless) pair.emplace(in, cfg);
    const auto run = [&](const SmaConfig& rcfg, const std::string& backend) {
      return pair ? pair->match(backend, rcfg)
                  : SmaPipeline(rcfg, {.backend = backend}).track_pair(in);
    };
    TrackResult ref = run(cfg, "sequential");
    const PruneReport& want = ref.extras->prune;
    EXPECT_EQ(want.active, 1u) << what;
    EXPECT_GT(want.window_pixels, 0u) << what;
    EXPECT_LT(want.fine_scheduled, want.full_grid_hypotheses) << what;

    const TrackResult mp = run(cfg, "maspar-sim");
    EXPECT_TRUE(imaging::bit_equal(ref.flow, mp.flow)) << what << " maspar";
    expect_same_report(want, mp.extras->prune, what + " maspar");
    for (const int threads : {1, 4})
      for (const int tile : {0, 1}) {
        const testing::PoolWidth pool(threads);
        SmaConfig vcfg = cfg;
        vcfg.tile_width = tile != 0 ? 5 : 0;
        vcfg.tile_height = tile != 0 ? 3 : 0;
        const std::string vwhat = what + " vector threads " +
                                  std::to_string(threads) +
                                  (tile != 0 ? " 5x3" : " default tiles");
        const TrackResult r = run(vcfg, "vector");
        EXPECT_TRUE(imaging::bit_equal(ref.flow, r.flow)) << vwhat;
        expect_same_report(want, r.extras->prune, vwhat);
      }
    return ref;
  };

  for (const MotionModel model :
       {MotionModel::kSemiFluid, MotionModel::kContinuous}) {
    SmaConfig cfg = pruned_config();
    cfg.model = model;
    const std::string name =
        model == MotionModel::kSemiFluid ? "semi" : "cont";
    const TrackResult base = every_backend(cfg, plain, name);

    const auto expect_as_base = [&](const TrackResult& r,
                                    const std::string& what) {
      EXPECT_TRUE(imaging::bit_equal(base.flow, r.flow)) << what;
      expect_same_report(base.extras->prune, r.extras->prune, what);
    };
    for (int rows = 1; rows <= cfg.z_search_size_y(); ++rows) {
      SmaConfig seg = cfg;
      seg.segment_rows = rows;
      const std::string what = name + " segment_rows " + std::to_string(rows);
      expect_as_base(every_backend(seg, plain, what), what);
    }
    expect_as_base(every_backend(cfg, plain, name + " without planes", true),
                   name + " without planes");

    const TrackResult m = every_backend(cfg, masked, name + " masked");
    EXPECT_LT(m.flow.at(20, 9).confidence, 1.0f) << name << " masked";
  }
}

TEST(PrunedSearch, RadiusZeroSearchReportsItsOwnCost) {
  // A 1x1 search has nothing to shrink: every pixel keeps its full
  // window, the flow is full search's, and the report shows the seed
  // pass as pure overhead.
  SmaConfig pruned = pruned_config();
  pruned.z_search_radius = 0;
  SmaConfig full = pruned;
  full.search_mode = SearchMode::kFull;
  const TrackerInput in = monocular_input();
  const TrackResult want = SmaPipeline(full).track_pair(in);
  const TrackResult got = SmaPipeline(pruned).track_pair(in);
  EXPECT_TRUE(imaging::bit_equal(want.flow, got.flow));
  const PruneReport& report = got.extras->prune;
  EXPECT_EQ(report.active, 1u);
  const std::uint64_t npix = static_cast<std::uint64_t>(kW) * kH;
  EXPECT_EQ(report.window_pixels, 0u);
  EXPECT_EQ(report.fallback_pixels, npix);
  EXPECT_EQ(report.fine_scheduled, npix);
  EXPECT_LT(report.reduction(), 1.0);
}

TEST(PruneWindows, NeedSeedsOrRawFrames) {
  MatchInput in;
  in.before = in.after = &geom0();
  std::uint64_t coarse = 0;
  EXPECT_THROW(prune_windows(in, pruned_config(), false, coarse),
               std::invalid_argument);
  in.raw_before = &frame0();
  EXPECT_THROW(prune_windows(in, pruned_config(), false, coarse),
               std::invalid_argument);
  in.raw_after = &frame1();
  EXPECT_EQ(prune_windows(in, pruned_config(), false, coarse).size(),
            static_cast<std::size_t>(kW) * kH);
  EXPECT_GT(coarse, 0u);
}

TEST(PrunedSearch, AgreesWithFullOracleOnTranslation) {
  struct Translation {
    const char* name;
    imaging::ImageF before, after;
    SmaConfig config;
  };
  std::vector<Translation> inputs;
  inputs.push_back({"textured 40x36, shift (2, -1)", frame0(), frame1(),
                    pruned_config()});
  // A 6 px shift that a 7 px search box covers: the coarse level sees
  // 3 px.  Multiscale clouds, so the decimated frames stay trackable.
  {
    const imaging::ImageF base = goes::fractal_clouds(96, 96, 7);
    SmaConfig wide = pruned_config();
    wide.z_search_radius = 7;
    inputs.push_back({"clouds 96x96, shift (6, 0)", base,
                      testing::shift_image(base, 6, 0), wide});
  }

  imaging::FlowField wide_flow;
  for (const Translation& t : inputs) {
    SCOPED_TRACE(t.name);
    const SmaConfig& pruned = t.config;
    SmaConfig full = pruned;
    full.search_mode = SearchMode::kFull;
    TrackOptions opts;
    opts.subpixel = true;
    const TrackResult want =
        SmaPipeline(full, {.track = opts}).track_pair(t.before, t.after);
    const TrackResult got =
        SmaPipeline(pruned, {.track = opts}).track_pair(t.before, t.after);

    // Tolerance-equal, not bit-equal: a bad seed can exclude the oracle
    // winner.  The disagreement concentrates in the clamped-border band,
    // where the shifted frame is locally ambiguous and the oracle's
    // tie-break picks among near-equal minima the shrunken window may
    // exclude — so the interior budget is tight and the global one loose.
    const int w = got.flow.width();
    const int h = got.flow.height();
    const int margin = pruned.z_search_radius + pruned.z_template_radius + 2;
    int mismatches = 0, interior_mismatches = 0, interior = 0;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const imaging::FlowVector a = got.flow.at(x, y);
        const imaging::FlowVector b = want.flow.at(x, y);
        const bool differs = a.valid != b.valid || a.u != b.u || a.v != b.v;
        if (differs) ++mismatches;
        if (x >= margin && x < w - margin && y >= margin && y < h - margin) {
          ++interior;
          if (differs) ++interior_mismatches;
        }
      }
    ASSERT_GT(interior, 0);
    EXPECT_LE(static_cast<double>(interior_mismatches) / interior, 0.02);
    EXPECT_LE(static_cast<double>(mismatches) / (w * h), 0.20);
    wide_flow = got.flow;
  }
  // The wide pair's pruned flow reaches the 6 px displacement.
  int close = 0, total = 0;
  for (int y = 16; y < 80; ++y)
    for (int x = 16; x < 80; ++x) {
      const imaging::FlowVector f = wide_flow.at(x, y);
      if (std::abs(f.u - 6.0f) <= 1.0f && std::abs(f.v) <= 1.0f) ++close;
      ++total;
    }
  EXPECT_GT(static_cast<double>(close) / total, 0.9);
}

TEST(PrunedSearch, FullModeReportStaysZero) {
  SmaConfig full = pruned_config();
  full.search_mode = SearchMode::kFull;
  maspar::register_maspar_backend();
  for (const std::string backend : {"sequential", "vector", "maspar-sim"}) {
    const TrackResult r = SmaPipeline(full, {.backend = backend})
                              .track_pair(monocular_input());
    ASSERT_NE(r.extras, nullptr) << backend;
    expect_same_report(PruneReport{}, r.extras->prune, backend);
  }
}

TEST(PruneReportTest, MetricsNamesCoverEveryField) {
  // The obs bridge's pruning.* export is complete (the sizeof guard in
  // obs_bridge.cpp enforces revisits; this checks the names resolve).
  obs::MetricsRegistry reg;
  PruneReport report;
  report.active = 1;
  report.full_grid_hypotheses = 100;
  report.coarse_hypotheses = 10;
  report.fine_scheduled = 20;
  publish_metrics(report, reg);
  const auto snap = reg.snapshot();
  for (const std::string& name : pruning_metric_names())
    EXPECT_NE(obs::find_metric(snap, name), nullptr) << name;
  const obs::MetricSnapshot* reduction =
      obs::find_metric(snap, "pruning.reduction");
  ASSERT_NE(reduction, nullptr);
  EXPECT_NEAR(reduction->value, 100.0 / 30.0, 1e-12);
}

}  // namespace
}  // namespace sma::core
