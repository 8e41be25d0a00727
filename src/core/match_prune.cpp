#include "core/match_prune.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/hierarchical.hpp"
#include "core/pipeline.hpp"
#include "core/postprocess.hpp"
#include "imaging/pyramid.hpp"
#include "obs/trace.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SMA_RESTRICT __restrict__
#else
#define SMA_RESTRICT
#endif

namespace sma::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

const char* prune_fallback_name(PruneFallback f) {
  switch (f) {
    case PruneFallback::kNone:
      return "none";
    case PruneFallback::kNotRequested:
      return "not-requested";
    case PruneFallback::kNoPrecompute:
      return "no-precompute";
    case PruneFallback::kSegmented:
      return "segmented";
    case PruneFallback::kNoRawFrames:
      return "no-raw-frames";
    case PruneFallback::kTinySearch:
      return "tiny-search";
    case PruneFallback::kSemiFluid:
      return "semi-fluid";
  }
  return "unknown";
}

PruneFallback resolve_prune(const SmaConfig& config, const MatchInput& in) {
  if (config.search_mode != SearchMode::kPruned)
    return PruneFallback::kNotRequested;
  // The pruned sweep rides the precomputed SoA planes (window sums for
  // the bound's prefix system, the 18-MAC A^T b sweep): no fast path, no
  // pruned path.  This also transitively excludes masks and strided
  // templates.
  if (in.precompute == nullptr ||
      resolve_precompute(config, in) != PrecomputeDecision::kFast)
    return PruneFallback::kNoPrecompute;
  // F_semi rides the planes too, but the coarse seeding pass and the
  // half-template bound model F_cont correspondents only.
  if (config.model == MotionModel::kSemiFluid &&
      config.semifluid_search_radius > 0)
    return PruneFallback::kSemiFluid;
  // Segmented searches chunk the hy range across semi-fluid mapping
  // segments; a per-pixel shrunken window straddles chunks and the
  // incumbent would reset between them.
  if (config.effective_segment_rows() < config.z_search_size_y())
    return PruneFallback::kSegmented;
  if (in.raw_before == nullptr || in.raw_after == nullptr)
    return PruneFallback::kNoRawFrames;
  // A 1x1 (or 1xN / Nx1) search has nothing to shrink, and the bound's
  // prefix needs at least one template row above the center.
  if (config.z_search_radius < 1 || config.z_search_ry() < 1)
    return PruneFallback::kTinySearch;
  return PruneFallback::kNone;
}

PruneSeeds compute_prune_seeds(const imaging::ImageF& raw_before,
                               const imaging::ImageF& raw_after,
                               const SmaConfig& config) {
  PruneSeeds s;
  s.width = raw_before.width();
  s.height = raw_before.height();
  const std::size_t n = static_cast<std::size_t>(s.width) * s.height;
  s.sx.assign(n, 0);
  s.sy.assign(n, 0);
  s.ok.assign(n, 0);
  if (n == 0) return s;

  obs::TraceSpan span("match", "prune_coarse_seed");
  const imaging::Pyramid pb(raw_before, config.prune_coarse_levels + 1);
  const imaging::Pyramid pa(raw_after, config.prune_coarse_levels + 1);
  const int top = std::min(pb.levels(), pa.levels()) - 1;
  // The pyramid refused to downsample (tiny image): no seeds, every
  // pixel keeps the full window — still correct, just unpruned.
  if (top < 1) return s;
  const int f = 1 << top;

  // Coarse configuration: the same model on 2^top-downsampled frames,
  // radii shrunk to cover the same physical extent (ceil-divided, floor
  // 1 so the coarse search still localizes).  search_mode is forced back
  // to kFull — the seeding pass must not recurse.
  const auto shrink = [f](int r) { return std::max(1, (r + f - 1) / f); };
  SmaConfig coarse = config;
  coarse.search_mode = SearchMode::kFull;
  coarse.z_search_radius = shrink(config.z_search_radius);
  if (config.z_search_radius_y >= 0)
    coarse.z_search_radius_y = shrink(config.z_search_ry());
  coarse.z_template_radius = shrink(config.z_template_radius);
  if (config.z_template_radius_y >= 0)
    coarse.z_template_radius_y = shrink(config.z_template_ry());
  coarse.segment_rows = 0;
  coarse.tile_width = 0;
  coarse.tile_height = 0;

  // Sub-pixel at the coarse level: integer quantization there costs
  // 2^top fine pixels after upsampling (same rationale as the
  // hierarchical tracker's forced subpixel).
  TrackOptions topts;
  topts.subpixel = true;

  // The "vector" backend is bit-identical to "sequential" by the
  // Sec. 5.1 contract, so the seeds do not depend on who asked; it runs
  // on the caller's thread (the fine tile fan-out has not started), so
  // the pool is never entered re-entrantly.  A local pipeline: the
  // pyramid levels die with this call, so nothing may cache them.
  const imaging::ImageF& cb = pb.level(top);
  const imaging::ImageF& ca = pa.level(top);
  PipelineOptions popts;
  popts.backend = "vector";
  popts.track = topts;
  const TrackResult coarse_res =
      SmaPipeline(coarse, std::move(popts)).track_pair(cb, ca);

  // Propagate to full resolution with the hierarchical smoothing recipe:
  // vector median kills isolated coarse errors, the Gaussian gives a
  // fractional consensus, nearbyint recovers integer seeds.
  const imaging::FlowField prior = gaussian_smooth(
      vector_median_filter(upsample_flow(coarse_res.flow, s.width, s.height),
                           1),
      1.0);
  for (int y = 0; y < s.height; ++y)
    for (int x = 0; x < s.width; ++x) {
      const imaging::FlowVector p = prior.at(x, y);
      if (p.valid == 0 || !std::isfinite(p.u) || !std::isfinite(p.v))
        continue;
      const std::size_t i = static_cast<std::size_t>(y) * s.width + x;
      s.sx[i] = static_cast<int>(std::nearbyint(p.u));
      s.sy[i] = static_cast<int>(std::nearbyint(p.v));
      s.ok[i] = 1;
    }

  // Cost of the seeding pass, in hypothesis units: the coarse grid plus
  // the four forced subpixel probes per coarse pixel.
  const std::uint64_t coarse_pixels =
      static_cast<std::uint64_t>(cb.width()) * cb.height();
  s.coarse_hypotheses =
      coarse_pixels *
      (static_cast<std::uint64_t>(2 * coarse.z_search_radius + 1) *
           (2 * coarse.z_search_ry() + 1) +
       4);
  return s;
}

PruneWindow prune_window(const PruneSeeds& seeds, int x, int y, int nzs_x,
                         int nzs_y, int radius) {
  PruneWindow win;
  win.hx_min = -nzs_x;
  win.hx_max = nzs_x;
  win.hy_min = -nzs_y;
  win.hy_max = nzs_y;
  if (!seeds.valid_at(x, y)) return win;
  const std::size_t i = static_cast<std::size_t>(y) * seeds.width + x;
  const int sx = seeds.sx[i];
  const int sy = seeds.sy[i];
  // A seed outside the search area contradicts the fine search's own
  // premise (|motion| <= N_zs); distrust it entirely.
  if (sx < -nzs_x || sx > nzs_x || sy < -nzs_y || sy > nzs_y) return win;
  win.hx_min = std::max(-nzs_x, sx - radius);
  win.hx_max = std::min(nzs_x, sx + radius);
  win.hy_min = std::max(-nzs_y, sy - radius);
  win.hy_max = std::min(nzs_y, sy + radius);
  win.shrunk = win.hx_min > -nzs_x || win.hx_max < nzs_x ||
               win.hy_min > -nzs_y || win.hy_max < nzs_y;
  return win;
}

bool prune_winner_interior(const PruneWindow& win, int nzs_x, int nzs_y,
                           int hx, int hy) {
  if (win.hx_min > -nzs_x && hx <= win.hx_min) return false;
  if (win.hx_max < nzs_x && hx >= win.hx_max) return false;
  if (win.hy_min > -nzs_y && hy <= win.hy_min) return false;
  if (win.hy_max < nzs_y && hy >= win.hy_max) return false;
  return true;
}

// The body below is evaluate_hypothesis_precomputed (match_precompute.cpp)
// with one insertion: at the top of the v == 0 iteration — the template
// rows v in [-ry, -1] fully accumulated — the prefix system is solved
// and its residual compared against the incumbent.  Completed
// evaluations therefore run the identical floating-point sequence as
// the full-mode evaluator, which is what keeps pruned-mode results
// bit-identical across backends.
double evaluate_hypothesis_bounded(
    const MatchPrecompute& pre, const surface::GeometricField& after,
    const WindowInvariants& win, const WindowInvariants& win_prefix, int x,
    int y, int hx, int hy, int rx, int ry, double incumbent,
    bool has_incumbent, MotionParams& params_out, bool& ok_out,
    bool& skipped_out, double* bound_out) {
  skipped_out = false;
  const int w = pre.width();
  const int h = pre.height();
  const double* SMA_RESTRICT const ni_p = pre.plane(MatchPrecompute::kNi);
  const double* SMA_RESTRICT const nj_p = pre.plane(MatchPrecompute::kNj);
  const double* SMA_RESTRICT const nk_p = pre.plane(MatchPrecompute::kNk);
  const double* SMA_RESTRICT const wi_p = pre.plane(MatchPrecompute::kWi);
  const double* SMA_RESTRICT const wj_p = pre.plane(MatchPrecompute::kWj);
  const double* rows_p[18];
  for (int t = 0; t < 18; ++t)
    rows_p[t] = pre.plane(MatchPrecompute::kWri0 + t);

  const bool interior = x - rx >= 0 && x + rx < w && y - ry >= 0 &&
                        y + ry < h && x - rx + hx >= 0 && x + rx + hx < w &&
                        y - ry + hy >= 0 && y + ry + hy < h;
  linalg::Vec6 atb;
  double btb = 0.0;
  for (int v = -ry; v <= ry; ++v) {
    if (v == 0 && has_incumbent) {
      // Half-template checkpoint: minimize the prefix residual.  A
      // singular prefix only yields residual(0) = b^T b — an UPPER bound
      // of the prefix minimum — so it never prunes (bound 0).
      MotionParams btmp;
      bool bok = false;
      double bound =
          solve_from_moments(win_prefix.ata, atb, btb, win_prefix.rows, btmp,
                             bok);
      if (!bok) bound = 0.0;
      if (bound_out != nullptr) *bound_out = bound;
      if (prune_bound_exceeds(bound, incumbent)) {
        skipped_out = true;
        params_out = MotionParams{};
        ok_out = false;
        return std::numeric_limits<double>::infinity();
      }
    }
    const int py = std::clamp(y + v, 0, h - 1);
    const int qy = std::clamp(py + hy, 0, h - 1);
    const std::size_t off = static_cast<std::size_t>(py) * w;
    const float* SMA_RESTRICT const a_ni = after.ni.row(qy);
    const float* SMA_RESTRICT const a_nj = after.nj.row(qy);
    const float* SMA_RESTRICT const a_nk = after.nk.row(qy);
    if (interior) {
      for (int px = x - rx; px <= x + rx; ++px) {
        const int qx = px + hx;
        const double bi = static_cast<double>(a_ni[qx]) - ni_p[off + px];
        const double bj = static_cast<double>(a_nj[qx]) - nj_p[off + px];
        const double bk = static_cast<double>(a_nk[qx]) - nk_p[off + px];
        for (int r = 0; r < 6; ++r)
          atb[r] += rows_p[r][off + px] * bi + rows_p[6 + r][off + px] * bj +
                    rows_p[12 + r][off + px] * bk;
        btb += wi_p[off + px] * (bi * bi) + wj_p[off + px] * (bj * bj) +
               bk * bk;
      }
    } else {
      for (int u = -rx; u <= rx; ++u) {
        const int px = std::clamp(x + u, 0, w - 1);
        const int qx = std::clamp(px + hx, 0, w - 1);
        const double bi = static_cast<double>(a_ni[qx]) - ni_p[off + px];
        const double bj = static_cast<double>(a_nj[qx]) - nj_p[off + px];
        const double bk = static_cast<double>(a_nk[qx]) - nk_p[off + px];
        for (int r = 0; r < 6; ++r)
          atb[r] += rows_p[r][off + px] * bi + rows_p[6 + r][off + px] * bj +
                    rows_p[12 + r][off + px] * bk;
        btb += wi_p[off + px] * (bi * bi) + wj_p[off + px] * (bj * bj) +
               bk * bk;
      }
    }
  }
  return solve_from_moments(win.ata, atb, btb, win.rows, params_out, ok_out);
}

std::vector<PixelBest> run_pruned_search(const MatchInput& in,
                                         const SmaConfig& config,
                                         bool parallel,
                                         TrackTimings& timings,
                                         PruneReport* report) {
  const int w = in.width();
  const int h = in.height();
  const int nzs_x = config.z_search_radius;
  const int nzs_y = config.z_search_ry();
  const int nzt_x = config.z_template_radius;
  const int nzt_y = config.z_template_ry();
  const int radius = config.prune_refine_radius;
  const MatchPrecompute* const pre = in.precompute;
  // The bound's prefix is the template rows above the center; with a
  // one-row template there is no prefix to checkpoint.
  const bool bound_on = config.prune_bound && nzt_y >= 1;

  obs::TraceSpan span("match", "pruned_search");
  const auto t0 = Clock::now();
  // An injected seed slice (shard runner) replaces the coarse pass: the
  // seeds were computed once on the full frames, so every tile's fine
  // pass sees exactly the values the whole-frame run would have.
  if (in.prune_seeds != nullptr &&
      (in.prune_seeds->width != w || in.prune_seeds->height != h))
    throw std::invalid_argument(
        "MatchInput::prune_seeds dimensions do not match the frames");
  PruneSeeds local_seeds;
  if (in.prune_seeds == nullptr)
    local_seeds = compute_prune_seeds(*in.raw_before, *in.raw_after, config);
  const PruneSeeds& seeds =
      in.prune_seeds != nullptr ? *in.prune_seeds : local_seeds;

  std::vector<PixelBest> best(static_cast<std::size_t>(w) * h);

  // Per-tile counters, folded in tile-index order after the run: the
  // report is deterministic for a fixed tile grid no matter the steal
  // schedule (and the FlowField is deterministic unconditionally).
  struct TileTally {
    std::uint64_t scheduled = 0, evaluated = 0;
    std::uint64_t bound_checks = 0, bound_skipped = 0;
    std::uint64_t window_pixels = 0, fallback_pixels = 0, seed_interior = 0;
    double bound_tightness_sum = 0.0;
  };

  const std::vector<sched::Tile> tiles = pixel_tiles(w, h, config, parallel);
  std::vector<TileTally> tallies(tiles.size());

  const auto process_tile = [&](const sched::Tile& tile, std::size_t index) {
    TileTally& tl = tallies[index];
    for (int y = tile.y0; y < tile.y1; ++y)
      for (int x = tile.x0; x < tile.x1; ++x) {
        const PruneWindow pw =
            prune_window(seeds, x, y, nzs_x, nzs_y, radius);
        if (pw.shrunk)
          ++tl.window_pixels;
        else
          ++tl.fallback_pixels;
        WindowInvariants win;
        pre->accumulate_window(x, y, nzt_x, nzt_y, win);
        WindowInvariants winp;
        if (bound_on)
          pre->accumulate_window_span(x, y, nzt_x, -nzt_y, -1, winp);
        PixelBest& b = best[static_cast<std::size_t>(y) * w + x];
        for (int hy = pw.hy_min; hy <= pw.hy_max; ++hy)
          for (int hx = pw.hx_min; hx <= pw.hx_max; ++hx) {
            ++tl.scheduled;
            MotionParams params;
            bool ok = false;
            double error;
            // The bound costs a 6x6 solve; only pay it once a prunable
            // (finite, positive) incumbent exists.
            if (bound_on && b.any_ok && std::isfinite(b.error) &&
                b.error > 0.0) {
              bool skipped = false;
              double bnd = 0.0;
              error = evaluate_hypothesis_bounded(
                  *pre, *in.after, win, winp, x, y, hx, hy, nzt_x, nzt_y,
                  b.error, true, params, ok, skipped, &bnd);
              ++tl.bound_checks;
              if (skipped) {
                ++tl.bound_skipped;
                continue;
              }
              if (std::isfinite(error) && error > 0.0)
                tl.bound_tightness_sum +=
                    std::min(1.0, std::max(0.0, bnd) / error);
            } else {
              error = evaluate_hypothesis_precomputed(*pre, *in.after, win,
                                                      x, y, hx, hy, nzt_x,
                                                      nzt_y, params, ok);
            }
            ++tl.evaluated;
            if (hypothesis_improves(b, error, hx, hy)) {
              b.solved = ok;
              b.coverage = 1.0;
              b.hx = hx;
              b.hy = hy;
              b.ux = hx;
              b.uy = hy;
              b.error = error;
              b.params = params;
              b.any_ok = true;
            }
          }
        if (pw.shrunk && b.any_ok &&
            prune_winner_interior(pw, nzs_x, nzs_y, b.hx, b.hy))
          ++tl.seed_interior;
      }
  };

  run_pixel_tiles(tiles, config, parallel, process_tile);

  if (report != nullptr) {
    report->active = 1;
    report->fallback_reason = static_cast<std::uint64_t>(PruneFallback::kNone);
    report->full_grid_hypotheses =
        static_cast<std::uint64_t>(w) * h *
        (static_cast<std::uint64_t>(2 * nzs_x + 1) * (2 * nzs_y + 1));
    report->coarse_hypotheses = seeds.coarse_hypotheses;
    for (const TileTally& tl : tallies) {
      report->fine_scheduled += tl.scheduled;
      report->fine_evaluated += tl.evaluated;
      report->bound_checks += tl.bound_checks;
      report->bound_skipped += tl.bound_skipped;
      report->window_pixels += tl.window_pixels;
      report->fallback_pixels += tl.fallback_pixels;
      report->seed_interior += tl.seed_interior;
      report->bound_tightness_sum += tl.bound_tightness_sum;
    }
  }
  timings.hypothesis_matching += seconds_since(t0);
  return best;
}

}  // namespace sma::core
