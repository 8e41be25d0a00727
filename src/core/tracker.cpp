#include "core/tracker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "core/match_precompute.hpp"
#include "core/match_prune.hpp"
#include "core/semifluid.hpp"
#include "imaging/stats.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace sma::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

// Cache-blocked 2-D tiles keep a thread's template reads cache-resident
// and give the vector kernel whole tiles to lane-batch over, so threads
// x SIMD compose.  Every per-pixel computation is independent of its
// neighbors and each tile writes only its own pixels' slots, so results
// are bit-identical for ANY tile shape, thread count and steal order.
std::vector<sched::Tile> pixel_tiles(int w, int h, const SmaConfig& config,
                                     bool parallel, int kernel_lanes) {
  if (w <= 0 || h <= 0) return {};
  if (!parallel) return {sched::Tile{0, 0, w, h}};
  sched::TileShape shape;
  if (config.tile_width > 0 || config.tile_height > 0) {
    shape.width = config.tile_width > 0 ? config.tile_width : 32;
    shape.height = config.tile_height > 0 ? config.tile_height : 32;
    return sched::make_tiles(w, h, shape);
  }
  const int executors = std::max(sched::ThreadPool::shared().threads(), 1);
  shape = sched::choose_tile_shape(w, h, executors);
  if (kernel_lanes <= 0) return sched::make_tiles(w, h, shape);
  const int n = kernel_lanes;
  shape.width = std::min(w, (shape.width + n - 1) / n * n);
  if (config.search_mode != SearchMode::kFull)
    return sched::make_tiles(w, h, shape);
  // Grow with the template: the kernel builds a tile's template halo
  // once per hypothesis, so while the haloed tile is more than twice
  // the tile, double the smaller side (the height on a tie), as long as
  // every executor keeps two tiles and the kernel's per-center scratch
  // stays bounded.
  constexpr long long kMaxCenters = 8192;
  const long long rx = config.z_template_radius;
  const long long ry = config.z_template_ry();
  while ((shape.width + 2 * rx) * (shape.height + 2 * ry) >
         2LL * shape.width * shape.height) {
    sched::TileShape next = shape;
    if ((shape.height <= shape.width || shape.width == w) && shape.height < h)
      next.height = std::min(h, 2 * shape.height);
    else if (shape.width < w)
      next.width = std::min(w, 2 * shape.width);
    else
      break;
    if (1LL * next.width * next.height > kMaxCenters ||
        sched::make_tiles(w, h, next).size() < 2u * executors)
      break;
    shape = next;
  }
  return sched::make_tiles(w, h, shape);
}

void run_pixel_tiles(
    const std::vector<sched::Tile>& tiles, bool parallel,
    const std::function<void(const sched::Tile&, std::size_t)>& fn) {
  if (parallel) {
    sched::ThreadPool::shared().run(tiles, fn);
    return;
  }
  for (std::size_t i = 0; i < tiles.size(); ++i) fn(tiles[i], i);
}

// Documented at the declaration.  Deliberately out-of-line: the per-ISA
// vector-kernel translation units call it, and an out-of-line call is
// immune to the comdat/ODR hazards of sharing inline code with a TU
// built under wider target flags (DESIGN.md §13).
bool hypothesis_improves(const PixelBest& best, double error, int hx,
                         int hy) {
  if (!best.any_ok) return true;
  if (error < best.error) return true;
  if (error > best.error) return false;
  const int m_old = std::abs(best.hx) + std::abs(best.hy);
  const int m_new = std::abs(hx) + std::abs(hy);
  if (m_new != m_old) return m_new < m_old;
  if (hy != best.hy) return hy < best.hy;
  return hx < best.hx;
}

// Documented at the declaration; out of line for the same reason as
// hypothesis_improves.
void PixelBest::take(int hx, int hy, int ux, int uy, double error,
                     const MotionParams& params, bool ok, double coverage) {
  this->hx = hx;
  this->hy = hy;
  this->ux = ux;
  this->uy = uy;
  this->error = error;
  this->params = params;
  any_ok = true;
  solved = ok;
  this->coverage = coverage;
}

// The naive per-hypothesis evaluation — documented at the declaration in
// tracker.hpp, which also carries the default arguments (they used to be
// duplicated here on the definition).
double evaluate_pixel_hypothesis(const surface::GeometricField& before,
                                 const surface::GeometricField& after,
                                 const imaging::ImageF* disc_before,
                                 const imaging::ImageF* disc_after,
                                 const SemiFluidTable* table, int x, int y,
                                 int hx, int hy, const SmaConfig& config,
                                 MotionParams& params_out, bool& ok_out,
                                 const imaging::ImageU8* mask_before,
                                 const imaging::ImageU8* mask_after,
                                 double* coverage_out) {
  const int nzt_x = config.z_template_radius;
  const int nzt_y = config.z_template_ry();
  const int nss = config.effective_nss();
  const int nst = config.semifluid_template_radius;
  const bool semifluid = nss > 0;
  const int w = before.width();
  const int h = before.height();
  const bool masked = mask_before != nullptr || mask_after != nullptr;

  // The two-level window order every evaluator shares (DESIGN.md §11):
  // each template row sums from 0.0 in u order, then the row subtotals
  // add in v order.
  linalg::NormalEquations6 ne;
  int total = 0;
  int included = 0;
  for (int v = -nzt_y; v <= nzt_y; ++v) {
    linalg::NormalEquations6 row;
    for (int u = -nzt_x; u <= nzt_x; ++u) {
      // Clamp template coordinates up front so the precomputed and
      // naive semi-fluid paths see identical border semantics.
      const int px = std::clamp(x + u, 0, w - 1);
      const int py = std::clamp(y + v, 0, h - 1);
      ++total;
      if (mask_before != nullptr && mask_before->at(px, py) == 0) continue;
      int qx = px + hx;
      int qy = py + hy;
      if (semifluid) {
        if (table != nullptr) {
          const auto [ox, oy] = table->offset(px, py, hx, hy);
          qx = px + ox;
          qy = py + oy;
        } else {
          const auto [sx, sy] = semifluid_match(*disc_before, *disc_after,
                                                px, py, qx, qy, nss, nst);
          qx = sx;
          qy = sy;
        }
      }
      if (mask_after != nullptr &&
          mask_after->at_clamped(qx, qy) == 0)
        continue;
      ++included;
      add_normal_rows(before, after, px, py, qx, qy, row);
    }
    ne.add(row);
  }
  if (coverage_out != nullptr)
    *coverage_out = total > 0 ? static_cast<double>(included) / total : 0.0;
  if (masked && included == 0) {
    // The whole template fell in masked (unrepairable) data: there is no
    // evidence to score this hypothesis at all.
    params_out = MotionParams{};
    ok_out = false;
    return std::numeric_limits<double>::infinity();
  }
  linalg::Vec6 theta;
  if (ne.solve(theta) == linalg::SolveStatus::kOk) {
    params_out = MotionParams::from_vec(theta);
    ok_out = true;
    return ne.residual(theta);
  }
  params_out = MotionParams{};
  ok_out = false;
  return ne.residual(linalg::Vec6{});
}

void scan_hypotheses(const MatchInput& in, const SmaConfig& config,
                     const MatchSegment& seg, int x, int y) {
  const std::size_t i = static_cast<std::size_t>(y) * in.width() + x;
  const int nzt_x = config.z_template_radius;
  const int nzt_y = config.z_template_ry();
  const int nss = config.effective_nss();
  const int nst = config.semifluid_template_radius;
  const bool semifluid = nss > 0;
  const SemiFluidTable* const table = seg.table;
  PixelBest& best = seg.best[i];
  // The segment's rows, narrowed to the pixel's window under pruned
  // search.
  int hx_min = -config.z_search_radius, hx_max = config.z_search_radius;
  int hy_min = seg.hy_min, hy_max = seg.hy_max;
  if (seg.windows != nullptr) {
    const PruneWindow& pw = seg.windows[i];
    hx_min = pw.hx_min;
    hx_max = pw.hx_max;
    hy_min = std::max(hy_min, pw.hy_min);
    hy_max = std::min(hy_max, pw.hy_max);
    if (hy_min > hy_max) return;  // the window misses this segment
  }
  // F_semi rides the planes only through a correspondence table.
  const MatchPrecompute* const pre =
      semifluid && table == nullptr ? nullptr : seg.pre;
  // The template's A^T A window sum is shared by every hypothesis of
  // this pixel and this segment.
  WindowInvariants win;
  if (pre != nullptr) pre->accumulate_window(x, y, nzt_x, nzt_y, win);
  for (int hy = hy_min; hy <= hy_max; ++hy) {
    for (int hx = hx_min; hx <= hx_max; ++hx) {
      MotionParams params;
      bool ok = false;
      double coverage = 1.0;
      const double error =
          pre != nullptr
              ? evaluate_hypothesis_precomputed(*pre, *in.after, win, table,
                                                x, y, hx, hy, nzt_x, nzt_y,
                                                params, ok)
              : evaluate_pixel_hypothesis(*in.before, *in.after,
                                          in.disc_before, in.disc_after,
                                          table, x, y, hx, hy, config, params,
                                          ok, in.mask_before, in.mask_after,
                                          &coverage);
      if (!hypothesis_improves(best, error, hx, hy)) continue;
      // Flow vector: the center pixel's own correspondence (Eq. 9).
      int ux = hx;
      int uy = hy;
      if (semifluid && table != nullptr) {
        std::tie(ux, uy) = table->offset(x, y, hx, hy);
      } else if (semifluid) {
        const auto [sx, sy] = semifluid_match(*in.disc_before,
                                              *in.disc_after, x, y, x + hx,
                                              y + hy, nss, nst);
        ux = sx - x;
        uy = sy - y;
      }
      best.take(hx, hy, ux, uy, error, params, ok, coverage);
    }
  }
}

void validate_tracker_input(const TrackerInput& input, const char* context) {
  if (input.intensity_before == nullptr || input.intensity_after == nullptr ||
      input.surface_before == nullptr || input.surface_after == nullptr)
    throw std::invalid_argument(std::string(context) + ": null input image");
  const imaging::ImageF& surf0 = *input.surface_before;
  const imaging::ImageF& surf1 = *input.surface_after;
  const imaging::ImageF& int0 = *input.intensity_before;
  const imaging::ImageF& int1 = *input.intensity_after;
  if (!surf0.same_shape(surf1) || !int0.same_shape(int1) ||
      !surf0.same_shape(int0))
    throw std::invalid_argument(std::string(context) +
                                ": image shape mismatch");
  if (imaging::has_nonfinite(int0) || imaging::has_nonfinite(int1) ||
      imaging::has_nonfinite(surf0) || imaging::has_nonfinite(surf1))
    throw std::invalid_argument(
        std::string(context) +
        ": non-finite pixel values (sensor dropout?)");
  const imaging::ImageU8* mask0 = input.validity_before;
  const imaging::ImageU8* mask1 = input.validity_after;
  if ((mask0 != nullptr && (mask0->width() != surf0.width() ||
                            mask0->height() != surf0.height())) ||
      (mask1 != nullptr && (mask1->width() != surf0.width() ||
                            mask1->height() != surf0.height())))
    throw std::invalid_argument(std::string(context) +
                                ": validity mask shape mismatch");
}

namespace {

// The "Semi-fluid mapping" phase of one hypothesis-row segment: the
// correspondence table for hy in [hy_min, hy_max] when the semi-fluid
// remap is on, nullopt under F_cont.  Every evaluator reads it — the
// precomputed one, the lane kernel and the naive one, masked or not.
// With `parallel` its strips run on the shared sched pool.  The build
// time goes to timings.semifluid_mapping only; resident band + table
// bytes raise `peak_mapping_bytes`.
std::optional<SemiFluidTable> build_semifluid_table(
    const MatchInput& in, const SmaConfig& config, bool parallel, int hy_min,
    int hy_max, TrackTimings& timings, std::size_t& peak_mapping_bytes) {
  if (config.effective_nss() == 0) return std::nullopt;
  const auto t0 = Clock::now();
  obs::TraceSpan span("match", "semifluid_mapping");
  std::optional<SemiFluidTable> table;
  table.emplace(*in.disc_before, *in.disc_after, config.z_search_radius,
                hy_min, hy_max, config.effective_nss(),
                config.semifluid_template_radius, parallel);
  timings.semifluid_mapping += seconds_since(t0);
  peak_mapping_bytes =
      std::max(peak_mapping_bytes, table->band_bytes() + table->bytes());
  return table;
}

// The optional parabolic sub-pixel stage (TrackOptions::subpixel): the
// Eq. (3) residuals at the four axis neighbors of each winner, and the
// parabola minimum through them.  A residual the visit's sweep already
// scored is read from `probes` (the same bits, by the evaluator
// contract); the rest are evaluated, and a pixel whose four probes are
// all known skips its window sum.  The semi-fluid probes remap on the fly
// through the direct (naive) matcher — they can fall outside the
// search's correspondence tables, and the direct matcher equals them by
// construction; the F_cont probes reuse the precompute planes when the
// pair has them.  Its time goes to timings.subpixel_refine, its probe
// counts to `count`.
void refine_subpixel(const MatchInput& in, const SmaConfig& config,
                     bool parallel, std::vector<PixelBest>& best,
                     const std::vector<SubpixelProbes>& probes,
                     TrackTimings& timings, SubpixelProbeCount& count) {
  const int w = in.width();
  const int h = in.height();
  obs::TraceSpan span("match", "subpixel_refine");
  const auto t0 = Clock::now();
  const MatchPrecompute* pre =
      config.effective_nss() > 0 ? nullptr : in.precompute;
  const int nzt_x = config.z_template_radius;
  const int nzt_y = config.z_template_ry();
  const std::vector<sched::Tile> tiles = pixel_tiles(w, h, config, parallel);
  // Per-tile counts, summed in tile order after the pass.
  std::vector<SubpixelProbeCount> tallies(tiles.size());
  run_pixel_tiles(
      tiles, parallel,
      [&](const sched::Tile& tile, std::size_t index) {
        SubpixelProbeCount& tally = tallies[index];
        for (int y = tile.y0; y < tile.y1; ++y)
          for (int x = tile.x0; x < tile.x1; ++x) {
            const std::size_t i = static_cast<std::size_t>(y) * w + x;
            PixelBest& b = best[i];
            // Masked winners can carry an infinite residual; the parabola
            // is meaningless there (inf - inf), so only refine finite
            // minima.
            if (!b.any_ok || !std::isfinite(b.error)) continue;
            const SubpixelProbes& s = probes[i];
            const unsigned known =
                s.hx == b.hx && s.hy == b.hy ? s.known : 0u;
            double e[4];
            WindowInvariants win;
            if (pre != nullptr && known != 0xFu)
              pre->accumulate_window(x, y, nzt_x, nzt_y, win);
            for (int k = 0; k < 4; ++k) {
              if ((known >> k & 1u) != 0) {
                e[k] = s.err[k];
                ++tally.reused;
                continue;
              }
              const int hx = b.hx + SubpixelProbes::kDx[k];
              const int hy = b.hy + SubpixelProbes::kDy[k];
              MotionParams unused;
              bool ok = false;
              e[k] = pre != nullptr
                         ? evaluate_hypothesis_precomputed(
                               *pre, *in.after, win, nullptr, x, y, hx, hy,
                               nzt_x, nzt_y, unused, ok)
                         : evaluate_pixel_hypothesis(
                               *in.before, *in.after, in.disc_before,
                               in.disc_after, nullptr, x, y, hx, hy, config,
                               unused, ok, in.mask_before, in.mask_after);
              ++tally.evaluated;
            }
            // The parabola through (-1, em), (0, e0), (1, ep) along one
            // axis.  A near-zero center residual means the integer
            // hypothesis is an (essentially) exact match; the parabola is
            // then degenerate and neighbor asymmetry would inject
            // spurious fractions.
            const auto fit = [e0 = b.error](double em, double ep,
                                            float& sub) {
              const double denom = em - 2.0 * e0 + ep;
              if (std::isfinite(em) && std::isfinite(ep) && denom > 1e-12 &&
                  e0 <= em && e0 <= ep && e0 > 1e-4 * std::min(em, ep))
                sub = static_cast<float>(
                    std::clamp(0.5 * (em - ep) / denom, -0.5, 0.5));
            };
            fit(e[0], e[1], b.sub_u);
            fit(e[2], e[3], b.sub_v);
          }
      });
  for (const SubpixelProbeCount& tally : tallies) {
    count.evaluated += tally.evaluated;
    count.reused += tally.reused;
  }
  timings.subpixel_refine += seconds_since(t0);
}

// The "products" stage: packs per-pixel winners into the result's flow
// field (and ParamsField when options.keep_params).
void collect_track_result(const MatchInput& in, const TrackOptions& options,
                          const std::vector<PixelBest>& best,
                          TrackResult& result) {
  const int w = in.width();
  const int h = in.height();
  result.flow = imaging::FlowField(w, h);
  if (options.keep_params) {
    ParamsField pf;
    pf.ai = imaging::ImageF(w, h);
    pf.bi = imaging::ImageF(w, h);
    pf.aj = imaging::ImageF(w, h);
    pf.bj = imaging::ImageF(w, h);
    pf.ak = imaging::ImageF(w, h);
    pf.bk = imaging::ImageF(w, h);
    result.params = std::move(pf);
  }
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const PixelBest& b = best[static_cast<std::size_t>(y) * w + x];
      imaging::FlowVector f;
      f.u = static_cast<float>(b.ux) + b.sub_u;
      f.v = static_cast<float>(b.uy) + b.sub_v;
      f.valid = (b.any_ok && b.solved) ? 1 : 0;
      // Degradation contract: an unsolved winner (singular system or
      // fully masked template) reports infinite error and zero
      // confidence — never NaN, never a silently plausible residual.
      f.error = f.valid ? static_cast<float>(b.error)
                        : std::numeric_limits<float>::infinity();
      f.confidence = f.valid ? static_cast<float>(b.coverage) : 0.0f;
      result.flow.set(x, y, f);
      if (result.params) {
        result.params->ai.at(x, y) = static_cast<float>(b.params.ai);
        result.params->bi.at(x, y) = static_cast<float>(b.params.bi);
        result.params->aj.at(x, y) = static_cast<float>(b.params.aj);
        result.params->bj.at(x, y) = static_cast<float>(b.params.bj);
        result.params->ak.at(x, y) = static_cast<float>(b.params.ak);
        result.params->bk.at(x, y) = static_cast<float>(b.params.bk);
      }
    }
}

}  // namespace

TrackResult run_matching_stage(const MatchInput& in, const SmaConfig& config,
                               const TrackOptions& options, bool parallel,
                               const SegmentVisit& visit,
                               std::shared_ptr<BackendExtras> extras) {
  const bool semifluid = config.effective_nss() > 0;
  if (semifluid && (in.disc_before == nullptr || in.disc_after == nullptr))
    throw std::invalid_argument(
        "run_matching_stage: the semi-fluid remap needs both discriminants");
  if (in.precompute != nullptr &&
      (in.mask_before != nullptr || in.mask_after != nullptr))
    throw std::invalid_argument(
        "run_matching_stage: precompute planes cannot serve a masked pair");
  if (extras == nullptr) extras = std::make_shared<BackendExtras>();
  TrackResult result;
  TrackTimings& timings = result.timings;
  std::vector<PixelBest> best(static_cast<std::size_t>(in.width()) *
                              in.height());
  // The sub-pixel step's probe store, filled by the visits that can.
  std::vector<SubpixelProbes> probes;
  if (options.subpixel) probes.resize(best.size());
  // Semi-fluid mapping + hypothesis matching, interleaved per
  // hypothesis-row segment (Sec. 4.3).  Segments bound the resident
  // correspondence table; F_cont has none and sweeps once.
  const auto sweep = [&](const PruneWindow* windows) {
    const int nzs_y = config.z_search_ry();
    const int zseg = semifluid ? config.effective_segment_rows()
                               : config.z_search_size_y();
    for (int hy_min = -nzs_y; hy_min <= nzs_y; hy_min += zseg) {
      const int hy_max = std::min(hy_min + zseg - 1, nzs_y);
      const std::optional<SemiFluidTable> table =
          build_semifluid_table(in, config, parallel, hy_min, hy_max,
                                timings, result.peak_mapping_bytes);
      // Nested under the pipeline's "matching" span: one span per
      // segment, so segmented searches show their per-segment structure
      // on the trace timeline.
      obs::TraceSpan segment_span("match", "hypothesis_search");
      const auto t0 = Clock::now();
      visit(MatchSegment{hy_min, hy_max, table ? &*table : nullptr,
                         in.precompute, best.data(), windows,
                         probes.empty() ? nullptr : probes.data()});
      timings.hypothesis_matching += seconds_since(t0);
    }
  };
  // Coarse-to-fine pruned search narrows each pixel of the same sweep to
  // its admission window, in every segment.
  if (config.search_mode == SearchMode::kPruned) {
    obs::TraceSpan span("match", "pruned_search");
    const auto t0 = Clock::now();
    std::uint64_t coarse_hypotheses = 0;
    const std::vector<PruneWindow> windows =
        prune_windows(in, config, parallel, coarse_hypotheses);
    timings.hypothesis_matching += seconds_since(t0);
    sweep(windows.data());
    extras->prune = prune_report(windows, best, coarse_hypotheses, config);
  } else {
    sweep(nullptr);
  }
  if (options.subpixel)
    refine_subpixel(in, config, parallel, best, probes, timings,
                    result.subpixel_probes);
  collect_track_result(in, options, best, result);
  timings.total = timings.match_precompute + timings.semifluid_mapping +
                  timings.hypothesis_matching + timings.subpixel_refine;
  result.extras = std::move(extras);
  return result;
}

void scan_segment(const MatchInput& in, const SmaConfig& config,
                  bool parallel, const MatchSegment& seg) {
  const int w = in.width();
  run_pixel_tiles(
      pixel_tiles(w, in.height(), config, parallel), parallel,
      [&](const sched::Tile& tile, std::size_t) {
        for (int y = tile.y0; y < tile.y1; ++y)
          for (int x = tile.x0; x < tile.x1; ++x)
            scan_hypotheses(in, config, seg, x, y);
      });
}

}  // namespace sma::core
