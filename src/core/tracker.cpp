#include "core/tracker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

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

// Semi-fluid flag used consistently across the stages: the discriminants
// must actually be present for the semi-fluid path to engage.
bool semifluid_active(const MatchInput& in, const SmaConfig& config) {
  return config.model == MotionModel::kSemiFluid &&
         config.semifluid_search_radius > 0 && in.disc_before != nullptr &&
         in.disc_after != nullptr;
}

// Runs fn over cache-blocked tiles of the w x h pixel plane on the
// shared work-stealing pool (sched/scheduler.hpp): 2-D tiles keep a
// thread's template reads cache-resident AND give the vector kernel
// whole tiles to lane-batch over, so threads x SIMD compose.
//
// parallel=false runs the plane as one inline tile — the sequential
// backend never touches the pool.
//
// Every per-pixel computation submitted here is independent of its
// neighbors and each tile writes only its own pixels' slots, so results
// are bit-identical for ANY tile shape, thread count, and steal order.
void for_each_pixel_tile(int w, int h, const SmaConfig& config, bool parallel,
                         const std::function<void(const sched::Tile&)>& fn) {
  if (w <= 0 || h <= 0) return;
  if (!parallel) {
    fn(sched::Tile{0, 0, w, h});
    return;
  }
  sched::ThreadPool& pool = sched::ThreadPool::shared();
  const int executors = config.threads > 0
                            ? std::min(config.threads, pool.threads())
                            : pool.threads();
  sched::TileShape shape;
  if (config.tile_width > 0 || config.tile_height > 0) {
    shape.width = config.tile_width > 0 ? config.tile_width : 32;
    shape.height = config.tile_height > 0 ? config.tile_height : 32;
  } else {
    shape = sched::choose_tile_shape(w, h, std::max(executors, 1));
  }
  pool.run(sched::make_tiles(w, h, shape),
           [&](const sched::Tile& tile, std::size_t) { fn(tile); },
           config.threads);
}

}  // namespace

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
  const int stride = config.template_stride;
  const bool semifluid = config.model == MotionModel::kSemiFluid && nss > 0;
  const int w = before.width();
  const int h = before.height();
  const bool masked = mask_before != nullptr || mask_after != nullptr;

  linalg::NormalEquations6 ne;
  int total = 0;
  int included = 0;
  for (int v = -nzt_y; v <= nzt_y; v += stride) {
    for (int u = -nzt_x; u <= nzt_x; u += stride) {
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
      add_normal_rows(before, after, px, py, qx, qy, ne);
    }
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

void scan_hypotheses(const surface::GeometricField& before,
                     const surface::GeometricField& after,
                     const imaging::ImageF* disc_before,
                     const imaging::ImageF* disc_after,
                     const SemiFluidTable* table, int x, int y,
                     int hy_min, int hy_max, const SmaConfig& config,
                     PixelBest& best, const imaging::ImageU8* mask_before,
                     const imaging::ImageU8* mask_after,
                     const MatchPrecompute* pre) {
  const int nzs_x = config.z_search_radius;
  const int nss = config.effective_nss();
  const int nst = config.semifluid_template_radius;
  const bool semifluid = config.model == MotionModel::kSemiFluid && nss > 0;

  if (pre != nullptr && (table != nullptr || !semifluid)) {
    // Precomputed fast path (callers gate on resolve_precompute, so no
    // masks, stride 1): the template's A^T A window sum is shared by
    // every hypothesis of this pixel and this segment.  F_semi gathers
    // its remapped correspondents — and the center pixel's flow vector —
    // from the correspondence table.
    const int nzt_x = config.z_template_radius;
    const int nzt_y = config.z_template_ry();
    WindowInvariants win;
    pre->accumulate_window(x, y, nzt_x, nzt_y, win);
    for (int hy = hy_min; hy <= hy_max; ++hy) {
      for (int hx = -nzs_x; hx <= nzs_x; ++hx) {
        MotionParams params;
        bool ok = false;
        const double error =
            semifluid
                ? evaluate_hypothesis_remapped(*pre, after, win, *table, x, y,
                                               hx, hy, nzt_x, nzt_y, params,
                                               ok)
                : evaluate_hypothesis_precomputed(*pre, after, win, x, y, hx,
                                                  hy, nzt_x, nzt_y, params,
                                                  ok);
        if (hypothesis_improves(best, error, hx, hy)) {
          best.solved = ok;
          best.coverage = 1.0;
          best.hx = hx;
          best.hy = hy;
          best.ux = hx;
          best.uy = hy;
          if (semifluid) {
            const auto [ox, oy] = table->offset(x, y, hx, hy);
            best.ux = ox;
            best.uy = oy;
          }
          best.error = error;
          best.params = params;
          best.any_ok = true;
        }
      }
    }
    return;
  }

  for (int hy = hy_min; hy <= hy_max; ++hy) {
    for (int hx = -nzs_x; hx <= nzs_x; ++hx) {
      MotionParams params;
      bool ok = false;
      double coverage = 1.0;
      const double error =
          evaluate_pixel_hypothesis(before, after, disc_before, disc_after,
                                    table, x, y, hx, hy, config, params, ok,
                                    mask_before, mask_after, &coverage);
      if (hypothesis_improves(best, error, hx, hy)) {
        best.solved = ok;
        best.coverage = coverage;
        best.hx = hx;
        best.hy = hy;
        // Flow vector: the center pixel's own correspondence (Eq. 9).
        best.ux = hx;
        best.uy = hy;
        if (semifluid) {
          if (table != nullptr) {
            const auto [ox, oy] = table->offset(x, y, hx, hy);
            best.ux = ox;
            best.uy = oy;
          } else {
            const auto [sx, sy] = semifluid_match(*disc_before, *disc_after,
                                                  x, y, x + hx, y + hy, nss,
                                                  nst);
            best.ux = sx - x;
            best.uy = sy - y;
          }
        }
        best.error = error;
        best.params = params;
        best.any_ok = true;
      }
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

std::optional<SemiFluidTable> build_semifluid_table(
    const MatchInput& in, const SmaConfig& config, bool fast_path, int hy_min,
    int hy_max, TrackTimings& timings, std::size_t& peak_mapping_bytes) {
  if (!semifluid_active(in, config) ||
      !(fast_path || config.use_precomputed_mapping))
    return std::nullopt;
  const auto t0 = Clock::now();
  obs::TraceSpan span("match", "semifluid_mapping");
  std::optional<SemiFluidTable> table;
  table.emplace(*in.disc_before, *in.disc_after, config.z_search_radius,
                hy_min, hy_max, config.effective_nss(),
                config.semifluid_template_radius);
  timings.semifluid_mapping += seconds_since(t0);
  peak_mapping_bytes =
      std::max(peak_mapping_bytes, table->band_bytes() + table->bytes());
  return table;
}

std::vector<PixelBest> run_hypothesis_search(const MatchInput& in,
                                             const SmaConfig& config,
                                             bool parallel,
                                             TrackTimings& timings,
                                             std::size_t& peak_mapping_bytes,
                                             PruneReport* prune) {
  const int w = in.width();
  const int h = in.height();
  const int nzs_y = config.z_search_ry();
  const int zseg = config.effective_segment_rows();
  const bool semifluid = semifluid_active(in, config);

  // Coarse-to-fine pruned search: engages only when the eligibility rule
  // holds (precompute fast path, unsegmented, raw frames attached);
  // otherwise the reason is recorded and the exhaustive sweep below runs
  // exactly as in full mode.
  if (config.search_mode == SearchMode::kPruned) {
    const PruneFallback fb = resolve_prune(config, in);
    if (prune != nullptr)
      prune->fallback_reason = static_cast<std::uint64_t>(fb);
    if (fb == PruneFallback::kNone)
      return run_pruned_search(in, config, parallel, timings, prune);
  }

  // Hypothesis-invariant precompute: only consumed when the pipeline
  // attached it AND the eligibility rule holds for this config —
  // re-checked here so a stale attachment can never corrupt a masked or
  // strided run.
  const MatchPrecompute* pre =
      (in.precompute != nullptr &&
       resolve_precompute(config, in) == PrecomputeDecision::kFast)
          ? in.precompute
          : nullptr;

  std::vector<PixelBest> best(static_cast<std::size_t>(w) * h);

  // Semi-fluid mapping precompute + hypothesis matching, interleaved per
  // hypothesis-row segment (Sec. 4.3).
  for (int hy_min = -nzs_y; hy_min <= nzs_y; hy_min += zseg) {
    const int hy_max = std::min(hy_min + zseg - 1, nzs_y);

    const std::optional<SemiFluidTable> table = build_semifluid_table(
        in, config, pre != nullptr, hy_min, hy_max, timings,
        peak_mapping_bytes);

    // Nested under the pipeline's "matching" span: one span per
    // hypothesis-row segment, so segmented searches (Sec. 4.3) show
    // their per-segment structure on the trace timeline.
    obs::TraceSpan segment_span("match", "hypothesis_search");
    const auto t0 = Clock::now();
    const SemiFluidTable* table_ptr = table ? &*table : nullptr;
    const imaging::ImageF* db = semifluid ? in.disc_before : nullptr;
    const imaging::ImageF* da = semifluid ? in.disc_after : nullptr;
    for_each_pixel_tile(w, h, config, parallel, [&](const sched::Tile& tile) {
      for (int y = tile.y0; y < tile.y1; ++y)
        for (int x = tile.x0; x < tile.x1; ++x)
          scan_hypotheses(*in.before, *in.after, db, da, table_ptr, x, y,
                          hy_min, hy_max, config,
                          best[static_cast<std::size_t>(y) * w + x],
                          in.mask_before, in.mask_after, pre);
    });
    timings.hypothesis_matching += seconds_since(t0);
  }
  return best;
}

void refine_subpixel(const MatchInput& in, const SmaConfig& config,
                     bool parallel, std::vector<PixelBest>& best,
                     TrackTimings& timings) {
  const int w = in.width();
  const int h = in.height();
  const bool semifluid = semifluid_active(in, config);
  // Probe the Eq. (3) residual at the four axis neighbors of each winner
  // and interpolate the parabola minimum.  The semi-fluid probes remap on
  // the fly through the direct (naive) matcher — they can fall outside
  // the search's correspondence tables, and the direct matcher equals
  // them by construction.
  obs::TraceSpan span("match", "subpixel_refine");
  const auto t0 = Clock::now();
  const imaging::ImageF* db = semifluid ? in.disc_before : nullptr;
  const imaging::ImageF* da = semifluid ? in.disc_after : nullptr;
  // The four F_cont neighbor probes reuse the precomputed planes when
  // eligible.
  const MatchPrecompute* pre =
      (in.precompute != nullptr && !semifluid &&
       resolve_precompute(config, in) == PrecomputeDecision::kFast)
          ? in.precompute
          : nullptr;
  const int nzt_x = config.z_template_radius;
  const int nzt_y = config.z_template_ry();
  for_each_pixel_tile(
      w, h, config, parallel,
      [&](const sched::Tile& tile) {
  for (int y = tile.y0; y < tile.y1; ++y)
    for (int x = tile.x0; x < tile.x1; ++x) {
      PixelBest& b = best[static_cast<std::size_t>(y) * w + x];
      // Masked winners can carry an infinite residual; the parabola is
      // meaningless there (inf - inf), so only refine finite minima.
      if (!b.any_ok || !std::isfinite(b.error)) continue;
      MotionParams unused;
      bool ok = false;
      const double e0 = b.error;
      double exm, exp_, eym, eyp;
      if (pre != nullptr) {
        WindowInvariants win;
        pre->accumulate_window(x, y, nzt_x, nzt_y, win);
        exm = evaluate_hypothesis_precomputed(*pre, *in.after, win, x, y,
                                              b.hx - 1, b.hy, nzt_x, nzt_y,
                                              unused, ok);
        exp_ = evaluate_hypothesis_precomputed(*pre, *in.after, win, x, y,
                                               b.hx + 1, b.hy, nzt_x, nzt_y,
                                               unused, ok);
        eym = evaluate_hypothesis_precomputed(*pre, *in.after, win, x, y,
                                              b.hx, b.hy - 1, nzt_x, nzt_y,
                                              unused, ok);
        eyp = evaluate_hypothesis_precomputed(*pre, *in.after, win, x, y,
                                              b.hx, b.hy + 1, nzt_x, nzt_y,
                                              unused, ok);
      } else {
        exm = evaluate_pixel_hypothesis(
            *in.before, *in.after, db, da, nullptr, x, y, b.hx - 1, b.hy,
            config, unused, ok, in.mask_before, in.mask_after);
        exp_ = evaluate_pixel_hypothesis(
            *in.before, *in.after, db, da, nullptr, x, y, b.hx + 1, b.hy,
            config, unused, ok, in.mask_before, in.mask_after);
        eym = evaluate_pixel_hypothesis(
            *in.before, *in.after, db, da, nullptr, x, y, b.hx, b.hy - 1,
            config, unused, ok, in.mask_before, in.mask_after);
        eyp = evaluate_pixel_hypothesis(
            *in.before, *in.after, db, da, nullptr, x, y, b.hx, b.hy + 1,
            config, unused, ok, in.mask_before, in.mask_after);
      }
      // A near-zero center residual means the integer hypothesis is an
      // (essentially) exact match; the parabola is then degenerate and
      // neighbor asymmetry would inject spurious fractions.
      const double dx_denom = exm - 2.0 * e0 + exp_;
      if (std::isfinite(exm) && std::isfinite(exp_) && dx_denom > 1e-12 &&
          e0 <= exm && e0 <= exp_ && e0 > 1e-4 * std::min(exm, exp_))
        b.sub_u = static_cast<float>(
            std::clamp(0.5 * (exm - exp_) / dx_denom, -0.5, 0.5));
      const double dy_denom = eym - 2.0 * e0 + eyp;
      if (std::isfinite(eym) && std::isfinite(eyp) && dy_denom > 1e-12 &&
          e0 <= eym && e0 <= eyp && e0 > 1e-4 * std::min(eym, eyp))
        b.sub_v = static_cast<float>(
            std::clamp(0.5 * (eym - eyp) / dy_denom, -0.5, 0.5));
    }
      });
  timings.hypothesis_matching += seconds_since(t0);
}

void collect_track_result(const MatchInput& in, const SmaConfig& config,
                          const TrackOptions& options,
                          const std::vector<PixelBest>& best,
                          TrackResult& result) {
  (void)config;
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

}  // namespace sma::core
