// test_match_precompute.cpp — the hypothesis-invariant matching
// precompute (core/match_precompute.hpp).
//
// The load-bearing property is the equivalence-oracle contract: with the
// precompute planes the tracker must produce BIT-IDENTICAL flow to the
// naive per-pixel evaluator, across the whole configuration grid.  The
// pair picks the evaluator: the pipeline builds planes exactly for a
// pair without a validity mask (the one input the window algebra cannot
// serve), and the matching stage rejects planes plus a mask, and an
// F_semi input without its discriminants, on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/match_precompute.hpp"
#include "core/pipeline.hpp"
#include "goes/synth.hpp"
#include "helpers.hpp"
#include "linalg/least_squares.hpp"
#include "maspar/backend.hpp"
#include "simd/batch_solve.hpp"
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
// The pair picks the evaluator.
// ---------------------------------------------------------------------------

// Planes for every pair without a validity mask, none for a masked one,
// and the stage rejects both together on every backend: it never drops
// planes silently.
TEST(PairPicksEvaluator, PlanesExactlyForUnmaskedPairs) {
  maspar::register_maspar_backend();
  imaging::ImageU8 mask(frame0().width(), frame0().height(), 1);
  mask.at(5, 5) = 0;
  const MatchPrecompute pre(geom0());
  for (const MotionModel model :
       {MotionModel::kContinuous, MotionModel::kSemiFluid}) {
    SmaConfig cfg = base_config();
    cfg.model = model;
    SCOPED_TRACE(cfg.describe());
    SmaPipeline pipeline(cfg);
    TrackerInput in;
    in.intensity_before = in.surface_before = &frame0();
    in.intensity_after = in.surface_after = &frame1();
    for (const bool before : {true, false}) {
      TrackerInput masked = in;
      (before ? masked.validity_before : masked.validity_after) = &mask;
      pipeline.track_pair(masked);
      EXPECT_EQ(pipeline.stats().precompute_builds, 0u);
      EXPECT_EQ(pipeline.stats().match_precompute_seconds, 0.0);

      MatchInput mi;
      mi.before = &geom0();
      mi.after = &geom1();
      mi.disc_before = &geom0().disc;
      mi.disc_after = &geom1().disc;
      (before ? mi.mask_before : mi.mask_after) = &mask;
      mi.precompute = &pre;
      for (const char* backend : {"sequential", "maspar-sim", "vector"})
        EXPECT_THROW(
            BackendRegistry::instance().get(backend).match(mi, cfg, {}),
            std::invalid_argument)
            << backend << (before ? " mask_before" : " mask_after");
    }
    pipeline.track_pair(in);
    EXPECT_EQ(pipeline.stats().precompute_builds, 1u);
  }
}

// The semi-fluid remap reads both discriminants.  Without either one
// every backend throws, with planes or without; the naive evaluator
// used to dereference the missing one, and the planes without a
// correspondence table ran F_cont.
TEST(PairPicksEvaluator, SemiFluidWithoutDiscriminantsThrowsOnEveryBackend) {
  maspar::register_maspar_backend();
  const imaging::ImageF f0 = goes::fractal_clouds(32, 32, 7);
  const imaging::ImageF f1 =
      goes::advect_frame(f0, goes::rankine_vortex(16.0, 16.0, 6.4, 2.0));
  const surface::GeometricField g0 = geometry_of(f0);
  const surface::GeometricField g1 = geometry_of(f1);
  const MatchPrecompute pre(g0);
  SmaConfig cfg = base_config();
  cfg.model = MotionModel::kSemiFluid;
  cfg.semifluid_search_radius = 1;
  for (const char* backend : {"sequential", "maspar-sim", "vector"})
    for (const bool planes : {false, true})
      for (const int present : {0, 1, 2}) {  // none, before only, after only
        MatchInput mi;
        mi.before = &g0;
        mi.after = &g1;
        mi.disc_before = present == 1 ? &g0.disc : nullptr;
        mi.disc_after = present == 2 ? &g1.disc : nullptr;
        mi.precompute = planes ? &pre : nullptr;
        EXPECT_THROW(
            BackendRegistry::instance().get(backend).match(mi, cfg, {}),
            std::invalid_argument)
            << backend << (planes ? " with" : " without") << " planes, "
            << (present == 0 ? "no" : present == 1 ? "only the before"
                                                   : "only the after")
            << " discriminant";
      }
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

    // Brute force in the same two-level order — each template row from
    // 0.0 in u order, then the row subtotals in v order — through the
    // SAME canonical per-pixel arithmetic: the sums must match to the bit.
    double expect[21] = {};
    for (int v = -ry; v <= ry; ++v) {
      double row[21] = {};
      for (int u = -rx; u <= rx; ++u) {
        PixelInvariants p;
        compute_pixel_invariants(geom0(), x + u, y + v, p);
        for (int k = 0; k < 21; ++k) row[k] += p.tile[k];
      }
      for (int k = 0; k < 21; ++k) expect[k] += row[k];
    }
    for (int k = 0; k < 21; ++k)
      EXPECT_EQ(win.ata[k], expect[k]) << "slot " << k << " at (" << x << ","
                                       << y << ")";
    EXPECT_EQ(win.rows, 3ull * (2 * rx + 1) * (2 * ry + 1));
  }
}

// ---------------------------------------------------------------------------
// The summation order against an order-independent reference: the
// double residual of the two-level order (which every evaluator uses)
// and of the flat v-outer / u-inner order it replaced, each against the
// same moments summed and solved in long double.
// ---------------------------------------------------------------------------

// One template's Eq. (3) moments: 21 A^T A slots, A^T b, b^T b.
template <class F>
struct Moments {
  F ata[21] = {};
  F atb[6] = {};
  F btb = 0;
};

// Partial-pivot elimination and the Eq. (3) residual in long double;
// nullopt when a pivot falls below 1e-12, as solve6 reports singular.
std::optional<long double> reference_residual(const Moments<long double>& m) {
  long double a[6][6], b[6], x[6];
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c)
      a[r][c] = m.ata[c >= r ? simd::tri21(r, c) : simd::tri21(c, r)];
    b[r] = m.atb[r];
  }
  long double full[6][6];
  std::memcpy(full, a, sizeof(a));
  for (int col = 0; col < 6; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 6; ++r)
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    if (std::fabs(a[pivot][col]) < 1e-12L) return std::nullopt;
    for (int c = 0; c < 6; ++c) std::swap(a[col][c], a[pivot][c]);
    std::swap(b[col], b[pivot]);
    for (int r = col + 1; r < 6; ++r) {
      const long double f = a[r][col] / a[col][col];
      for (int c = col; c < 6; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (int r = 5; r >= 0; --r) {
    long double s = b[r];
    for (int c = r + 1; c < 6; ++c) s -= a[r][c] * x[c];
    x[r] = s / a[r][r];
  }
  long double quad = 0, lin = 0;
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) quad += x[r] * full[r][c] * x[c];
    lin += x[r] * m.atb[r];
  }
  return std::max(quad - 2 * lin + m.btb, 0.0L);
}

// The double evaluator's solve and residual on given moments.
double double_residual(const Moments<double>& m, std::uint64_t rows) {
  linalg::NormalEquations6 ne;
  linalg::Vec6 atb;
  for (int r = 0; r < 6; ++r) atb[r] = m.atb[r];
  ne.add_precomputed(m.ata, atb, m.btb, rows);
  linalg::Vec6 theta;
  if (ne.solve(theta) != linalg::SolveStatus::kOk) theta = linalg::Vec6{};
  return ne.residual(theta);
}

TEST(WindowOrder, ResidualGapToLongDoubleReferenceIsBounded) {
  const MatchPrecompute pre(geom0());
  const int w = pre.width();
  const int h = pre.height();
  std::mt19937 rng(20261018);
  for (const MotionModel model :
       {MotionModel::kContinuous, MotionModel::kSemiFluid}) {
    SmaConfig cfg = base_config();
    cfg.model = model;
    const int rx = cfg.z_template_radius;
    const int ry = cfg.z_template_ry();
    const int nzs = cfg.z_search_radius;
    const bool semi = model == MotionModel::kSemiFluid;
    std::optional<SemiFluidTable> table;
    if (semi)
      table.emplace(geom0().disc, geom1().disc, nzs, -nzs, nzs,
                    cfg.effective_nss(), cfg.semifluid_template_radius);
    const SemiFluidTable* tp = table ? &*table : nullptr;

    // Seeded centres: 12 in the clamped border band, 12 interior.
    std::vector<std::pair<int, int>> centres;
    std::uniform_int_distribution<int> xs(0, w - 1), ys(0, h - 1);
    int borders = 0, interiors = 0;
    while (centres.size() < 24) {
      const int x = xs(rng), y = ys(rng);
      const bool border = x - rx - nzs < 0 || x + rx + nzs >= w ||
                          y - ry - nzs < 0 || y + ry + nzs >= h;
      int& n = border ? borders : interiors;
      if (n < 12) {
        ++n;
        centres.emplace_back(x, y);
      }
    }

    double max_gap_old = 0.0, max_gap_new = 0.0;
    int samples = 0;
    for (const auto& [x, y] : centres) {
      WindowInvariants win;
      pre.accumulate_window(x, y, rx, ry, win);
      for (int hy = -nzs; hy <= nzs; ++hy)
        for (int hx = -nzs; hx <= nzs; ++hx) {
          Moments<double> flat, two_level;
          Moments<long double> ref;
          for (int v = -ry; v <= ry; ++v) {
            Moments<double> row;
            for (int u = -rx; u <= rx; ++u) {
              // add_normal_rows' terms for template pixel p and its
              // correspondent q.
              const int px = std::clamp(x + u, 0, w - 1);
              const int py = std::clamp(y + v, 0, h - 1);
              const auto [ox, oy] = semi ? tp->offset(px, py, hx, hy)
                                         : std::pair<int, int>{hx, hy};
              PixelInvariants p;
              compute_pixel_invariants(geom0(), px, py, p);
              const double bi =
                  static_cast<double>(geom1().ni.at_clamped(px + ox, py + oy)) -
                  p.ni;
              const double bj =
                  static_cast<double>(geom1().nj.at_clamped(px + ox, py + oy)) -
                  p.nj;
              const double bk =
                  static_cast<double>(geom1().nk.at_clamped(px + ox, py + oy)) -
                  p.nk;
              double t[6];
              for (int r = 0; r < 6; ++r)
                t[r] = p.wri[r] * bi + p.wrj[r] * bj + p.wrk[r] * bk;
              const double tb = p.wi * (bi * bi) + p.wj * (bj * bj) + bk * bk;
              for (int k = 0; k < 21; ++k) {
                flat.ata[k] += p.tile[k];
                row.ata[k] += p.tile[k];
                ref.ata[k] += p.tile[k];
              }
              for (int r = 0; r < 6; ++r) {
                flat.atb[r] += t[r];
                row.atb[r] += t[r];
                ref.atb[r] += t[r];
              }
              flat.btb += tb;
              row.btb += tb;
              ref.btb += tb;
            }
            for (int k = 0; k < 21; ++k) two_level.ata[k] += row.ata[k];
            for (int r = 0; r < 6; ++r) two_level.atb[r] += row.atb[r];
            two_level.btb += row.btb;
          }
          const double e_new = double_residual(two_level, win.rows);
          // The evaluators run exactly the two-level sums.
          for (int k = 0; k < 21; ++k)
            ASSERT_EQ(two_level.ata[k], win.ata[k]) << "slot " << k;
          MotionParams params;
          bool ok = false;
          const double e_eval = evaluate_hypothesis_precomputed(
              pre, geom1(), win, tp, x, y, hx, hy, rx, ry, params, ok);
          ASSERT_EQ(std::memcmp(&e_new, &e_eval, sizeof(double)), 0);

          const std::optional<long double> e_ref = reference_residual(ref);
          if (!e_ref || !ok) continue;
          // Relative to b^T b, the residual at theta = 0 and the scale of
          // the three terms the residual cancels.
          const double scale = 1.0 + static_cast<double>(ref.btb);
          const double e_old = double_residual(flat, win.rows);
          max_gap_old = std::max(
              max_gap_old,
              static_cast<double>(std::fabs(e_old - *e_ref)) / scale);
          max_gap_new = std::max(
              max_gap_new,
              static_cast<double>(std::fabs(e_new - *e_ref)) / scale);
          ++samples;
        }
    }
    const std::string name = semi ? "F_semi" : "F_cont";
    std::printf("[ order    ] %s: %d samples, max |residual - long double "
                "reference| / (1 + b^T b): flat %.3g, two-level %.3g\n",
                name.c_str(), samples, max_gap_old, max_gap_new);
    RecordProperty(name + "_max_gap_flat", std::to_string(max_gap_old));
    RecordProperty(name + "_max_gap_two_level", std::to_string(max_gap_new));
    EXPECT_GT(samples, 0);
    EXPECT_LT(max_gap_old, 1e-12) << name;
    EXPECT_LT(max_gap_new, 1e-12) << name;
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
// Bit-identity grid: the pipeline vs the naive oracle (the sequential
// backend without planes), through the full tracker (search + optional
// subpixel).  Masked cases are trivially identical (the pipeline gives a
// masked pair no planes); the unmasked cases are the real assertion.
// ---------------------------------------------------------------------------

struct GridCase {
  const char* name;
  MotionModel model;
  int template_ry;  // -1 = square
  bool subpixel;
  bool masked;
};

class PrecomputeEquivalence : public ::testing::TestWithParam<GridCase> {};

TEST_P(PrecomputeEquivalence, FlowBitIdenticalToNaive) {
  const GridCase c = GetParam();
  SmaConfig cfg = base_config();
  cfg.model = c.model;
  cfg.z_template_radius_y = c.template_ry;
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

  const TrackResult naive =
      testing::PlanelessPair(in, cfg).match("sequential", cfg, options);
  const TrackResult fast = SmaPipeline(cfg, {.track = options}).track_pair(in);
  ASSERT_GT(naive.flow.count_valid(), 0u);
  EXPECT_EQ(naive.flow, fast.flow) << "precompute diverged on " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PrecomputeEquivalence,
    ::testing::Values(
        GridCase{"cont_square", MotionModel::kContinuous, -1, false, false},
        GridCase{"cont_rect", MotionModel::kContinuous, 2, false, false},
        GridCase{"cont_subpixel", MotionModel::kContinuous, -1, true, false},
        GridCase{"cont_masked", MotionModel::kContinuous, -1, false, true},
        GridCase{"semi_square", MotionModel::kSemiFluid, -1, false, false},
        GridCase{"semi_subpixel_masked", MotionModel::kSemiFluid, -1, true,
                 true}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Pipeline: the planes are built once per pair and dropped with it; the
// geometry cache holds fitted geometry only, so the hit/miss invariant
// is untouched.
// ---------------------------------------------------------------------------

TEST(PipelinePrecompute, BuildsOncePerPair) {
  const imaging::ImageF f0 = testing::textured_pattern(24, 24);
  const imaging::ImageF f1 = testing::shift_image(f0, 1, 0);
  SmaPipeline pipeline(base_config());

  const TrackResult first = pipeline.track_pair(f0, f1);
  EXPECT_EQ(pipeline.stats().precompute_builds, 1u);

  // Same pair again: geometry is a cache hit, the planes are rebuilt
  // from it, and the flow keeps every bit.
  const TrackResult second = pipeline.track_pair(f0, f1);
  EXPECT_EQ(pipeline.stats().precompute_builds, 2u);
  EXPECT_EQ(pipeline.stats().surface_fits, 2u);
  EXPECT_EQ(pipeline.stats().cache_hits, 2u);
  EXPECT_EQ(pipeline.stats().cache_misses, 2u);
  EXPECT_TRUE(imaging::bit_equal(first.flow, second.flow));
}

TEST(PipelinePrecompute, SequenceBuildsOncePerPair) {
  std::vector<imaging::ImageF> frames;
  for (int t = 0; t < 4; ++t)
    frames.push_back(testing::textured_pattern(24, 24, 0.15 * t));
  SmaPipeline pipeline(base_config());
  pipeline.track_sequence(frames);
  // One build per pair, and the documented geometry invariant is
  // untouched.
  EXPECT_EQ(pipeline.stats().precompute_builds, 3u);
  EXPECT_EQ(pipeline.stats().surface_fits, 4u);
}

}  // namespace
}  // namespace sma::core
