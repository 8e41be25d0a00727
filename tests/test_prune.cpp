// test_prune.cpp — the coarse-to-fine pruned hypothesis search
// (core/match_prune.hpp).
//
// The load-bearing properties, in dependency order:
//  * resolve_prune is the single eligibility rule, and every fallback
//    reason degrades to a flow BIT-IDENTICAL to the full oracle;
//  * the half-template prefix residual really is a LOWER bound of the
//    full Eq. (3) residual, and an evaluation that passes the
//    evaluator's checkpoint runs the identical floating-point sequence
//    as one without it;
//  * the upsampled coarse winner seeds a shrunken window that contains
//    it, with a full-window per-pixel fallback when it cannot;
//  * the pruned FlowField — and every integer counter of its report —
//    is bit-identical across backends (maspar-sim included), thread
//    caps and tile shapes, and the flow across bound on/off; only the
//    full-vs-pruned comparison is tolerance-based (a bad seed may
//    exclude the oracle winner; quantified, not assumed);
//  * the coarse seed pass runs inside the pruned search's span, so its
//    time is attributed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/match_precompute.hpp"
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

const surface::GeometricField& geom1() {
  static const surface::GeometricField g = [] {
    surface::GeometryOptions opts;
    opts.patch_radius = 2;
    return surface::compute_geometry(frame1(), opts);
  }();
  return g;
}

const MatchPrecompute& precompute0() {
  static const MatchPrecompute pre(geom0());
  return pre;
}

/// The pruning accounting of a sequential result (null if absent).
const PruneReport* host_report(const TrackResult& r) {
  const auto* extras =
      dynamic_cast<const PruneBackendExtras*>(r.extras.get());
  return extras != nullptr ? &extras->report : nullptr;
}

/// Every backend runs the one pruned pass, so every integer counter
/// matches; bound_tightness_sum is a double folded per tile in tile
/// order, so it only agrees to rounding.
void expect_same_report(const PruneReport& want, const PruneReport& got,
                        const std::string& what) {
  static_assert(sizeof(PruneReport) ==
                    11 * sizeof(std::uint64_t) + sizeof(double),
                "PruneReport changed: compare the new field here");
  EXPECT_EQ(got.active, want.active) << what;
  EXPECT_EQ(got.fallback_reason, want.fallback_reason) << what;
  EXPECT_EQ(got.full_grid_hypotheses, want.full_grid_hypotheses) << what;
  EXPECT_EQ(got.coarse_hypotheses, want.coarse_hypotheses) << what;
  EXPECT_EQ(got.fine_scheduled, want.fine_scheduled) << what;
  EXPECT_EQ(got.fine_evaluated, want.fine_evaluated) << what;
  EXPECT_EQ(got.bound_checks, want.bound_checks) << what;
  EXPECT_EQ(got.bound_skipped, want.bound_skipped) << what;
  EXPECT_EQ(got.window_pixels, want.window_pixels) << what;
  EXPECT_EQ(got.fallback_pixels, want.fallback_pixels) << what;
  EXPECT_EQ(got.seed_interior, want.seed_interior) << what;
  EXPECT_NEAR(got.bound_tightness_sum, want.bound_tightness_sum,
              1e-9 * std::abs(want.bound_tightness_sum))
      << what;
}

// ---------------------------------------------------------------------------
// resolve_prune — the single eligibility rule.
// ---------------------------------------------------------------------------

TEST(ResolvePrune, DecisionTable) {
  SmaConfig cfg = pruned_config();
  MatchInput in;
  in.precompute = &precompute0();
  in.raw_before = &frame0();
  in.raw_after = &frame1();

  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kNone);

  cfg.search_mode = SearchMode::kFull;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kNotRequested);
  cfg.search_mode = SearchMode::kPruned;

  // No planes (or an ineligible precompute config) — the pruned sweep
  // rides the SoA planes, so it degrades with them.
  in.precompute = nullptr;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kNoPrecompute);
  in.precompute = &precompute0();
  cfg.precompute = PrecomputeMode::kOff;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kNoPrecompute);
  cfg.precompute = PrecomputeMode::kOn;

  // F_semi rides the precompute now, but the pruned sweep does not model
  // its remap: an active one reports its own reason instead of hiding
  // under kNoPrecompute (or silently pruning).  Nss = 0 is F_cont.
  cfg.model = MotionModel::kSemiFluid;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kSemiFluid);
  cfg.semifluid_search_radius = 0;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kNone);
  cfg = pruned_config();

  // A segment height below the full hy range splits the shrunken
  // window across segments.
  cfg.segment_rows = 1;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kSegmented);
  cfg.segment_rows = 0;

  in.raw_before = nullptr;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kNoRawFrames);
  in.raw_before = &frame0();
  in.raw_after = nullptr;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kNoRawFrames);
  in.raw_after = &frame1();

  cfg.z_search_radius = 0;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kTinySearch);
  cfg.z_search_radius = 3;
  cfg.z_search_radius_y = 0;
  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kTinySearch);
  cfg.z_search_radius_y = -1;

  EXPECT_EQ(resolve_prune(cfg, in), PruneFallback::kNone);
}

TEST(ResolvePrune, FallbackNamesAreStable) {
  EXPECT_STREQ(prune_fallback_name(PruneFallback::kNone), "none");
  EXPECT_STREQ(prune_fallback_name(PruneFallback::kNotRequested),
               "not-requested");
  EXPECT_STREQ(prune_fallback_name(PruneFallback::kSemiFluid), "semi-fluid");
  // Every enumerator has a distinct, non-empty name (metrics readers
  // key on them).
  std::vector<std::string> names;
  for (const PruneFallback f :
       {PruneFallback::kNone, PruneFallback::kNotRequested,
        PruneFallback::kNoPrecompute, PruneFallback::kSegmented,
        PruneFallback::kNoRawFrames, PruneFallback::kTinySearch,
        PruneFallback::kSemiFluid}) {
    const std::string name = prune_fallback_name(f);
    EXPECT_FALSE(name.empty());
    for (const std::string& seen : names) EXPECT_NE(name, seen);
    names.push_back(name);
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
// accumulate_window_span — the prefix system.
// ---------------------------------------------------------------------------

TEST(AccumulateWindowSpan, FullSpanMatchesWindowBitwise) {
  const MatchPrecompute& pre = precompute0();
  const int rx = 3, ry = 3;
  for (const auto [x, y] : {std::pair{10, 12}, {0, 0}, {kW - 1, kH - 1}}) {
    WindowInvariants full, span;
    pre.accumulate_window(x, y, rx, ry, full);
    pre.accumulate_window_span(x, y, rx, -ry, ry, span);
    EXPECT_EQ(span.rows, full.rows);
    for (int k = 0; k < 21; ++k)
      EXPECT_EQ(span.ata[k], full.ata[k]) << "slot " << k << " at (" << x
                                          << ", " << y << ")";
  }
}

TEST(AccumulateWindowSpan, PrefixPlusSuffixCoversWindow) {
  const MatchPrecompute& pre = precompute0();
  const int rx = 2, ry = 3;
  for (const auto [x, y] : {std::pair{8, 9}, {1, kH - 2}}) {
    WindowInvariants full, prefix, suffix;
    pre.accumulate_window(x, y, rx, ry, full);
    pre.accumulate_window_span(x, y, rx, -ry, -1, prefix);
    pre.accumulate_window_span(x, y, rx, 0, ry, suffix);
    EXPECT_EQ(prefix.rows + suffix.rows, full.rows);
    EXPECT_EQ(prefix.rows, 3ull * (2 * rx + 1) * ry);
    for (int k = 0; k < 21; ++k)
      // Near, not equal: the split reassociates the plane sums.
      EXPECT_NEAR(prefix.ata[k] + suffix.ata[k], full.ata[k],
                  1e-9 * (1.0 + std::abs(full.ata[k])))
          << "slot " << k;
  }
  WindowInvariants empty;
  pre.accumulate_window_span(5, 5, rx, 0, -1, empty);
  EXPECT_EQ(empty.rows, 0u);
}

// ---------------------------------------------------------------------------
// The evaluator's half-template checkpoint — bound validity and
// exactness.
// ---------------------------------------------------------------------------

TEST(PruneBound, LowerBoundsResidualAndPreservesBitIdentity) {
  const MatchPrecompute& pre = precompute0();
  const int rx = 3, ry = 3;
  int finite_bounds = 0;
  for (int y = ry; y < kH - ry; y += 5)
    for (int x = rx; x < kW - rx; x += 5) {
      WindowInvariants win, win_prefix;
      pre.accumulate_window(x, y, rx, ry, win);
      pre.accumulate_window_span(x, y, rx, -ry, -1, win_prefix);
      for (int hy = -2; hy <= 2; hy += 2)
        for (int hx = -2; hx <= 2; hx += 2) {
          MotionParams p_ref, p_bnd;
          bool ok_ref = false, ok_bnd = false;
          const double ref = evaluate_hypothesis_precomputed(
              pre, geom1(), win, nullptr, x, y, hx, hy, rx, ry, p_ref,
              ok_ref);
          // A max() incumbent forces the checkpoint to compute the bound
          // without ever being allowed to skip.
          PruneCheckpoint cp{.prefix = &win_prefix,
                             .incumbent = std::numeric_limits<double>::max(),
                             .bound = -1.0};
          const double err = evaluate_hypothesis_precomputed(
              pre, geom1(), win, nullptr, x, y, hx, hy, rx, ry, p_bnd, ok_bnd,
              &cp);
          EXPECT_FALSE(cp.skipped);
          const double bound = cp.bound;
          // Completed checkpointed evaluations reproduce the unbounded
          // evaluator bit for bit.
          EXPECT_EQ(err, ref);
          EXPECT_EQ(ok_bnd, ok_ref);
          if (ok_ref) {
            EXPECT_EQ(std::memcmp(&p_bnd, &p_ref, sizeof(p_ref)), 0);
          }
          // The prefix minimum lower-bounds the full residual (with the
          // shared slack absorbing the prefix solve's rounding).
          if (std::isfinite(ref)) {
            EXPECT_LE(bound, ref * (1.0 + kPruneBoundSlack) + 1e-12)
                << "at (" << x << ", " << y << ") h=(" << hx << ", " << hy
                << ")";
            if (bound > 0.0) ++finite_bounds;
          }
        }
    }
  // The property must have been exercised by nontrivial bounds, not
  // vacuously passed on all-singular prefixes.
  EXPECT_GT(finite_bounds, 0);
}

TEST(PruneBound, SkipPredicateIsTieSafe) {
  EXPECT_FALSE(prune_bound_exceeds(1.0, 1.0));            // exact tie
  EXPECT_FALSE(prune_bound_exceeds(0.5, 1.0));            // better
  EXPECT_FALSE(prune_bound_exceeds(1.0 + 1e-9, 1.0));     // inside slack
  EXPECT_TRUE(prune_bound_exceeds(1.0 + 1e-3, 1.0));      // beyond slack
  EXPECT_FALSE(prune_bound_exceeds(5.0, 0.0));  // zero incumbent guard
  EXPECT_FALSE(prune_bound_exceeds(0.0, -1.0));
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
    const PruneSeeds seeds = compute_prune_seeds(f0, f1, cfg);
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
  const PruneSeeds seeds = compute_prune_seeds(f0, f1, pruned_config());
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) EXPECT_FALSE(seeds.valid_at(x, y));
}

// ---------------------------------------------------------------------------
// End-to-end: determinism, fallback exactness, oracle agreement.
// ---------------------------------------------------------------------------

TEST(PrunedSearch, BitIdenticalAcrossBackendsThreadsAndTiles) {
  const TrackerInput in = monocular_input();
  const SmaConfig cfg = pruned_config();

  const TrackResult ref = SmaPipeline(cfg).track_pair(in);
  ASSERT_GT(ref.flow.count_valid(), 0u);
  const PruneReport* ref_report = host_report(ref);
  ASSERT_NE(ref_report, nullptr);
  EXPECT_EQ(ref_report->active, 1u);

  // The MP-2 executor visits pixels in its own memory-layer order but
  // runs the same pruned pass, so its flow and counters match too.
  maspar::register_maspar_backend();
  const TrackResult mp =
      SmaPipeline(cfg, {.backend = "maspar-sim"}).track_pair(in);
  EXPECT_EQ(ref.flow, mp.flow) << "maspar-sim diverged from sequential";
  const auto* mx =
      dynamic_cast<const maspar::MasParBackendExtras*>(mp.extras.get());
  ASSERT_NE(mx, nullptr);
  expect_same_report(*ref_report, mx->prune, "maspar-sim");

  for (const int threads : {0, 1, 2})
    for (const auto& [tw, th] : {std::pair{0, 0}, {8, 8}, {16, 4}}) {
      SmaConfig variant = cfg;
      variant.threads = threads;
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
      EXPECT_FALSE(vx->report.vector_path) << what;
      EXPECT_EQ(vx->report.fallback, "pruned") << what;
      expect_same_report(*ref_report, vx->prune, what);
    }

  // The bound only discards provably-worse hypotheses, so switching it
  // off changes the work done, never the winner.
  SmaConfig unbounded = cfg;
  unbounded.prune_bound = false;
  const TrackResult nb = SmaPipeline(unbounded).track_pair(in);
  EXPECT_EQ(ref.flow, nb.flow);
  const PruneReport* nb_report = host_report(nb);
  ASSERT_NE(nb_report, nullptr);
  EXPECT_EQ(nb_report->bound_checks, 0u);
}

TEST(PrunedSearch, ReportAccountingIsConsistent) {
  const TrackerInput in = monocular_input();
  const SmaConfig cfg = pruned_config();
  const TrackResult r =
      SmaPipeline(cfg).track_pair(in);
  const PruneReport* report = host_report(r);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->active, 1u);
  EXPECT_EQ(report->fallback_reason,
            static_cast<std::uint64_t>(PruneFallback::kNone));

  const std::uint64_t npix = static_cast<std::uint64_t>(kW) * kH;
  const std::uint64_t grid = 7ull * 7ull;  // (2*3+1)^2
  EXPECT_EQ(report->full_grid_hypotheses, npix * grid);
  EXPECT_EQ(report->window_pixels + report->fallback_pixels, npix);
  EXPECT_GT(report->window_pixels, 0u);
  EXPECT_GT(report->fine_scheduled, 0u);
  EXPECT_LE(report->fine_evaluated, report->fine_scheduled);
  EXPECT_EQ(report->fine_scheduled - report->fine_evaluated,
            report->bound_skipped);
  EXPECT_LE(report->bound_skipped, report->bound_checks);
  EXPECT_LE(report->seed_interior, report->window_pixels);
  EXPECT_GT(report->coarse_hypotheses, 0u);
  // The point of the exercise: fewer hypotheses than the full grid.
  EXPECT_GT(report->reduction(), 1.0);
  EXPECT_GE(report->mean_bound_tightness(), 0.0);
  EXPECT_LE(report->mean_bound_tightness(), 1.0);
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

TEST(PrunedSearch, IneligibleConfigsFallBackBitIdenticalToFull) {

  struct FallbackCase {
    const char* name;
    PruneFallback expected;
    void (*mutate)(SmaConfig&, TrackerInput&, imaging::ImageU8&);
  };
  const FallbackCase cases[] = {
      {"segmented", PruneFallback::kSegmented,
       [](SmaConfig& cfg, TrackerInput&, imaging::ImageU8&) {
         cfg.segment_rows = 2;
       }},
      {"tiny-search", PruneFallback::kTinySearch,
       [](SmaConfig& cfg, TrackerInput&, imaging::ImageU8&) {
         cfg.z_search_radius_y = 0;
       }},
      {"semi-fluid", PruneFallback::kSemiFluid,
       [](SmaConfig& cfg, TrackerInput&, imaging::ImageU8&) {
         cfg.model = MotionModel::kSemiFluid;
       }},
      {"masked", PruneFallback::kNoPrecompute,
       [](SmaConfig&, TrackerInput& in, imaging::ImageU8& mask) {
         mask = imaging::ImageU8(kW, kH);
         mask.fill(1);
         for (int x = 0; x < kW; ++x) mask.at(x, 9) = 0;
         in.validity_before = &mask;
       }},
  };

  for (const FallbackCase& c : cases) {
    SmaConfig pruned = pruned_config();
    TrackerInput in = monocular_input();
    imaging::ImageU8 mask;
    c.mutate(pruned, in, mask);
    SmaConfig full = pruned;
    full.search_mode = SearchMode::kFull;

    const TrackResult want = SmaPipeline(full).track_pair(in);
    const TrackResult got = SmaPipeline(pruned).track_pair(in);
    EXPECT_EQ(want.flow, got.flow)
        << "fallback '" << c.name << "' must be bit-identical to full";
    const PruneReport* report = host_report(got);
    ASSERT_NE(report, nullptr) << c.name;
    EXPECT_EQ(report->active, 0u) << c.name;
    EXPECT_EQ(report->fallback_reason, static_cast<std::uint64_t>(c.expected))
        << c.name;
  }
}

TEST(PrunedSearch, AgreesWithFullOracleOnTranslation) {
  const TrackerInput in = monocular_input();
  SmaConfig pruned = pruned_config();
  SmaConfig full = pruned;
  full.search_mode = SearchMode::kFull;

  TrackOptions opts;
  opts.subpixel = true;
  const TrackResult want = SmaPipeline(full, {.track = opts}).track_pair(in);
  const TrackResult got = SmaPipeline(pruned, {.track = opts}).track_pair(in);

  // Tolerance-equal, not bit-equal: a bad seed can exclude the oracle
  // winner.  The disagreement concentrates in the clamped-border band,
  // where the shifted frame is locally ambiguous and the oracle's
  // tie-break picks among near-equal minima the shrunken window may
  // exclude — so the interior budget is tight and the global one loose.
  const int margin = pruned.z_search_radius + pruned.z_template_radius + 2;
  int mismatches = 0, interior_mismatches = 0, interior = 0;
  for (int y = 0; y < got.flow.height(); ++y)
    for (int x = 0; x < got.flow.width(); ++x) {
      const imaging::FlowVector a = got.flow.at(x, y);
      const imaging::FlowVector b = want.flow.at(x, y);
      const bool differs = a.valid != b.valid || a.u != b.u || a.v != b.v;
      if (differs) ++mismatches;
      if (x >= margin && x < kW - margin && y >= margin && y < kH - margin) {
        ++interior;
        if (differs) ++interior_mismatches;
      }
    }
  ASSERT_GT(interior, 0);
  EXPECT_LE(static_cast<double>(interior_mismatches) / interior, 0.02);
  EXPECT_LE(static_cast<double>(mismatches) / (kW * kH), 0.20);
}

TEST(PrunedSearch, FullModeCarriesNoPruneExtras) {
  SmaConfig full = pruned_config();
  full.search_mode = SearchMode::kFull;
  const TrackResult r = SmaPipeline(full).track_pair(monocular_input());
  // The historical host-backend contract: full runs stay extras-free.
  EXPECT_EQ(host_report(r), nullptr);
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
  report.fine_evaluated = 15;
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
