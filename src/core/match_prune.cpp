#include "core/match_prune.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/pipeline.hpp"
#include "core/postprocess.hpp"
#include "imaging/pyramid.hpp"
#include "obs/trace.hpp"

namespace sma::core {

imaging::FlowField upsample_flow(const imaging::FlowField& flow, int width,
                                 int height) {
  const double gain_x =
      flow.width() > 1 ? static_cast<double>(width) / flow.width() : 1.0;
  const imaging::ImageF u =
      imaging::upsample_to(flow.u(), width, height, gain_x);
  const double gain_y =
      flow.height() > 1 ? static_cast<double>(height) / flow.height() : 1.0;
  const imaging::ImageF v =
      imaging::upsample_to(flow.v(), width, height, gain_y);
  imaging::FlowField out(width, height);
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x)
      out.set(x, y,
              imaging::FlowVector{u.at(x, y), v.at(x, y), 0.0f, 1});
  return out;
}

PruneSeeds compute_prune_seeds(const imaging::ImageF& raw_before,
                               const imaging::ImageF& raw_after,
                               const SmaConfig& config, bool parallel) {
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

  // Coarse configuration: F_cont on 2^top-downsampled frames, radii
  // shrunk to cover the same physical extent (ceil-divided, floor 1 so
  // the coarse search still localizes).  The seeds only place windows
  // around a motion estimate, which F_cont gives for every model; so
  // pruned F_semi does not pay F_semi's on-the-fly sub-pixel probes at
  // the coarse level.  search_mode is forced back to kFull — the seeding
  // pass must not recurse.
  const auto shrink = [f](int r) { return std::max(1, (r + f - 1) / f); };
  SmaConfig coarse = config;
  coarse.model = MotionModel::kContinuous;
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
  // 2^top fine pixels after upsampling.
  TrackOptions topts;
  topts.subpixel = true;

  // Every backend is bit-identical by the Sec. 5.1 contract, so the
  // seeds do not depend on who asked; the pass runs on the caller's
  // thread (the fine tile fan-out has not started), so the pool is
  // never entered re-entrantly.  A local pipeline: the pyramid levels
  // die with this call, so nothing may cache them.
  const imaging::ImageF& cb = pb.level(top);
  const imaging::ImageF& ca = pa.level(top);
  PipelineOptions popts;
  popts.backend = parallel ? "vector" : "sequential";
  popts.track = topts;
  const TrackResult coarse_res =
      SmaPipeline(coarse, std::move(popts)).track_pair(cb, ca);

  // Propagate to full resolution: vector median kills isolated coarse
  // errors, the Gaussian gives a fractional consensus, nearbyint
  // recovers integer seeds.  Both filter rows on the pool when the
  // coarse pass does.
  const imaging::FlowField prior = gaussian_smooth(
      vector_median_filter(upsample_flow(coarse_res.flow, s.width, s.height),
                           1, parallel),
      1.0, 0.0, parallel);
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
  // the four forced subpixel probes per coarse pixel, counted whether a
  // probe is evaluated or read from the coarse sweep.
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

std::vector<PruneWindow> prune_windows(const MatchInput& in,
                                       const SmaConfig& config, bool parallel,
                                       std::uint64_t& coarse_hypotheses) {
  const int w = in.width();
  const int h = in.height();
  // An injected seed slice (shard runner) replaces the coarse pass: the
  // seeds were computed once on the full frames, so every tile's windows
  // are exactly the ones the whole-frame run would use.
  if (in.prune_seeds != nullptr &&
      (in.prune_seeds->width != w || in.prune_seeds->height != h))
    throw std::invalid_argument(
        "MatchInput::prune_seeds dimensions do not match the frames");
  if (in.prune_seeds == nullptr &&
      (in.raw_before == nullptr || in.raw_after == nullptr))
    throw std::invalid_argument(
        "pruned search needs MatchInput::prune_seeds or the raw frames");
  PruneSeeds local_seeds;
  if (in.prune_seeds == nullptr)
    local_seeds =
        compute_prune_seeds(*in.raw_before, *in.raw_after, config, parallel);
  const PruneSeeds& seeds =
      in.prune_seeds != nullptr ? *in.prune_seeds : local_seeds;
  coarse_hypotheses = seeds.coarse_hypotheses;

  std::vector<PruneWindow> windows(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      windows[static_cast<std::size_t>(y) * w + x] =
          prune_window(seeds, x, y, config.z_search_radius,
                       config.z_search_ry(), config.prune_refine_radius);
  return windows;
}

PruneReport prune_report(const std::vector<PruneWindow>& windows,
                         const std::vector<PixelBest>& best,
                         std::uint64_t coarse_hypotheses,
                         const SmaConfig& config) {
  const int nzs_x = config.z_search_radius;
  const int nzs_y = config.z_search_ry();
  PruneReport r;
  r.active = 1;
  r.full_grid_hypotheses =
      static_cast<std::uint64_t>(windows.size()) *
      (static_cast<std::uint64_t>(2 * nzs_x + 1) * (2 * nzs_y + 1));
  r.coarse_hypotheses = coarse_hypotheses;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const PruneWindow& pw = windows[i];
    r.fine_scheduled += static_cast<std::uint64_t>(pw.hx_max - pw.hx_min + 1) *
                        static_cast<std::uint64_t>(pw.hy_max - pw.hy_min + 1);
    if (!pw.shrunk) {
      ++r.fallback_pixels;
      continue;
    }
    ++r.window_pixels;
    const PixelBest& b = best[i];
    if (b.any_ok && prune_winner_interior(pw, nzs_x, nzs_y, b.hx, b.hy))
      ++r.seed_interior;
  }
  return r;
}

}  // namespace sma::core
