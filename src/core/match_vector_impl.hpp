// match_vector_impl.hpp — the lane-generic body of the hypothesis-batched
// scan kernel.  Included ONLY by the per-ISA translation units
// (match_vector_<isa>.cpp), each of which instantiates scan_pixel_t /
// batch_solve_soa for its lane tag under the matching target flags.
//
// Bit-exactness contract (DESIGN.md §13): a lane is one hypothesis, and
// every floating-point operation a lane performs — accumulation order
// over the template window, moment normalization, elimination,
// residual — is the same operation, on the same values, in the same
// order as the scalar evaluate_hypothesis_precomputed +
// NormalEquations6 path.  Three details make that exact rather than
// approximate:
//
//  * moments are "normalized" through add(0, v) before the solve,
//    because the scalar path accumulates them into a zero-initialized
//    NormalEquations6 (0.0 + v flushes -0.0 to +0.0);
//  * the batched elimination replicates solve6's `if (f == 0.0)
//    continue` and first-strict-max pivot per lane (simd/batch_solve.hpp);
//  * no FMA anywhere: mul-then-add only, matching -ffp-contract=off.
//
// Winner selection keeps the scalar tie-break semantics: a horizontal
// reduce-min rejects batches that cannot beat the incumbent, and any
// surviving batch is folded lane by lane (ascending hx) through the
// shared hypothesis_improves predicate — the identical comparisons the
// scalar scan would have made.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/match_precompute.hpp"
#include "core/match_prune.hpp"
#include "core/match_vector.hpp"
#include "core/tracker.hpp"
#include "linalg/gaussian_elimination.hpp"
#include "simd/batch_solve.hpp"
#include "simd/lane.hpp"

namespace sma::core::detail {

// ---- Pieces shared by the F_cont and F_semi kernels.  Force-inlined, so
// each kernel compiles to the same instruction sequence as if they were
// written out in place.

// a*b + c under the active profile.
template <class Tag, bool Fma>
[[gnu::always_inline]] inline typename simd::LaneTraits<Tag>::Vec lane_fmadd(
    typename simd::LaneTraits<Tag>::Vec a,
    typename simd::LaneTraits<Tag>::Vec b,
    typename simd::LaneTraits<Tag>::Vec c) {
  using T = simd::LaneTraits<Tag>;
  if constexpr (Fma)
    return T::mul_add(a, b, c);
  else
    return T::add(c, T::mul(a, b));
}

// The before-frame planes a template pixel's A^T b / b^T b MACs read.
struct TemplatePlanes {
  const double* ni;
  const double* nj;
  const double* nk;
  const double* wi;
  const double* wj;
  const double* rows[18];

  explicit TemplatePlanes(const MatchPrecompute& pre)
      : ni(pre.plane(MatchPrecompute::kNi)),
        nj(pre.plane(MatchPrecompute::kNj)),
        nk(pre.plane(MatchPrecompute::kNk)),
        wi(pre.plane(MatchPrecompute::kWi)),
        wj(pre.plane(MatchPrecompute::kWj)) {
    for (int t = 0; t < 18; ++t)
      rows[t] = pre.plane(MatchPrecompute::kWri0 + t);
  }
};

// Template pixel i's MACs into every lane's A^T b / b^T b, lane l's
// after-frame normal being lane l of (oi, oj, ok).  Same association
// order per MAC as the scalar evaluate_hypothesis_precomputed.
template <class Tag, bool Fma>
[[gnu::always_inline]] inline void accumulate_template_pixel(
    const TemplatePlanes& p, std::size_t i,
    typename simd::LaneTraits<Tag>::Vec oi,
    typename simd::LaneTraits<Tag>::Vec oj,
    typename simd::LaneTraits<Tag>::Vec ok,
    typename simd::LaneTraits<Tag>::Vec (&atb)[6],
    typename simd::LaneTraits<Tag>::Vec& btb) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  const V bi = T::sub(oi, T::broadcast(p.ni[i]));
  const V bj = T::sub(oj, T::broadcast(p.nj[i]));
  const V bk = T::sub(ok, T::broadcast(p.nk[i]));
  for (int r = 0; r < 6; ++r) {
    V t = T::mul(T::broadcast(p.rows[r][i]), bi);
    t = lane_fmadd<Tag, Fma>(T::broadcast(p.rows[6 + r][i]), bj, t);
    t = lane_fmadd<Tag, Fma>(T::broadcast(p.rows[12 + r][i]), bk, t);
    atb[r] = T::add(atb[r], t);
  }
  V s = T::mul(T::broadcast(p.wi[i]), T::mul(bi, bi));
  s = lane_fmadd<Tag, Fma>(T::broadcast(p.wj[i]), T::mul(bj, bj), s);
  s = lane_fmadd<Tag, Fma>(bk, bk, s);
  btb = T::add(btb, s);
}

// The pixel's A^T A window sum, normalized exactly as
// NormalEquations6::add_precomputed leaves it (0.0 + v) and broadcast:
// every lane shares the same before-frame matrix.
template <class Tag>
[[gnu::always_inline]] inline void broadcast_ata(
    const double* ata21, typename simd::LaneTraits<Tag>::Vec (&ata)[21]) {
  using T = simd::LaneTraits<Tag>;
  for (int k = 0; k < 21; ++k)
    ata[k] = T::add(T::zero(), T::broadcast(ata21[k]));
}

// A solved batch: every lane's parameters, residual and singular flag.
template <class Tag>
struct ScoredBatch {
  typename simd::LaneTraits<Tag>::Vec theta[6];
  double errs[simd::LaneTraits<Tag>::kLanes];
  double min_err;
  unsigned singular_bits;
};

// Normalize the moments (add_precomputed's 0.0 + v), eliminate, score,
// and count the solves.
template <class Tag>
[[gnu::always_inline]] inline void score_batch(
    const typename simd::LaneTraits<Tag>::Vec (&ata)[21],
    const typename simd::LaneTraits<Tag>::Vec (&atb)[6],
    typename simd::LaneTraits<Tag>::Vec btb, ScoredBatch<Tag>& out,
    VectorLaneTally& tally) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;
  const V vzero = T::zero();
  V atbn[6];
  for (int r = 0; r < 6; ++r) atbn[r] = T::add(vzero, atb[r]);
  const V btbn = T::add(vzero, btb);
  V a_full[36];
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c)
      a_full[r * 6 + c] =
          c >= r ? ata[simd::tri21(r, c)] : ata[simd::tri21(c, r)];
  V b_work[6];
  for (int r = 0; r < 6; ++r) b_work[r] = atbn[r];
  const auto singular =
      simd::batch_solve6<Tag>(a_full, b_work, out.theta, 1e-12);
  const V err = simd::batch_residual6<Tag>(ata, out.theta, atbn, btbn);

  out.singular_bits = T::mask_bits(singular);
  auto& counters = linalg::solve_counters();
  counters.solves6 += N;
  counters.singular += std::popcount(out.singular_bits);
  tally.batched_hypotheses += N;
  ++tally.batches;

  T::store(out.errs, err);
  out.min_err = out.errs[0];
  for (int l = 1; l < N; ++l) out.min_err = std::min(out.min_err, out.errs[l]);
}

// Makes hypothesis (hx, hy), with center-pixel flow vector (ux, uy), the
// pixel's incumbent.
inline void take_hypothesis(PixelBest& best, int hx, int hy, int ux, int uy,
                            double error, const MotionParams& params,
                            bool ok) {
  best.solved = ok;
  best.coverage = 1.0;
  best.hx = hx;
  best.hy = hy;
  best.ux = ux;
  best.uy = uy;
  best.error = error;
  best.params = params;
  best.any_ok = true;
}

// Winner fold: the horizontal min prefilter rejects a batch that cannot
// beat the incumbent; otherwise the lanes fold in lane order through the
// scalar tie-break.  Lane l is hypothesis (lane_hx[l], lane_hy[l]), and
// flow(hx, hy) gives its center-pixel flow vector.
template <class Tag, class Flow>
[[gnu::always_inline]] inline void fold_batch(const ScoredBatch<Tag>& s,
                                              const int* lane_hx,
                                              const int* lane_hy, Flow flow,
                                              PixelBest& best) {
  using T = simd::LaneTraits<Tag>;
  constexpr int N = T::kLanes;
  if (best.any_ok && !(s.min_err <= best.error)) return;
  double th[6][N];
  bool extracted = false;
  for (int l = 0; l < N; ++l) {
    const int hx = lane_hx[l], hy = lane_hy[l];
    if (!hypothesis_improves(best, s.errs[l], hx, hy)) continue;
    const bool ok = (s.singular_bits >> l & 1u) == 0;
    if (ok && !extracted) {
      for (int r = 0; r < 6; ++r) T::store(th[r], s.theta[r]);
      extracted = true;
    }
    const auto [ux, uy] = flow(hx, hy);
    take_hypothesis(best, hx, hy, ux, uy, s.errs[l],
                    ok ? MotionParams::from_vec({th[0][l], th[1][l], th[2][l],
                                                 th[3][l], th[4][l], th[5][l]})
                       : MotionParams{},
                    ok);
  }
}

// F_semi kernel (VectorKernelArgs::table set).  The semi-fluid remap
// makes every lane's correspondent an independent gather, so lanes need
// not be consecutive hx: the segment's hypotheses are flattened in raster
// order and batched kLanes at a time across hypothesis rows, which keeps
// the lanes full even when the search is narrower than a vector.  Each
// lane fills its after-frame normals through the table — the border
// batch's per-lane clamped gather with M_h(p) added — and from there on
// runs the F_cont batch's arithmetic: the same MACs in the same template
// order, the same normalize / eliminate / score, the same winner fold.
// Hypotheses left over after the last full batch go through the scalar
// evaluate_hypothesis_remapped.  Kept out of line so that scan_pixel_t,
// which dispatches here, compiles its F_cont path exactly as before.
template <class Tag, bool Fma>
[[gnu::noinline]] void scan_pixel_remapped_t(const VectorKernelArgs& g,
                                             PixelBest& best,
                                             VectorLaneTally& tally) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;

  const MatchPrecompute& pre = *g.pre;
  const SemiFluidTable& table = *g.table;
  const int w = pre.width();
  const int h = pre.height();
  const int x = g.x, y = g.y, rx = g.rx, ry = g.ry;

  const TemplatePlanes planes(pre);
  const float* const a_ni = g.after->ni.data();
  const float* const a_nj = g.after->nj.data();
  const float* const a_nk = g.after->nk.data();
  // Table entries are addressed as pixel offset + lane offset from the
  // segment's first entry.
  const std::uint8_t* const codes0 = table.codes(0, 0, table.hy_min());
  const auto flow = [&](int hx, int hy) { return table.offset(x, y, hx, hy); };

  const V vzero = T::zero();
  V ata[21];
  broadcast_ata<Tag>(g.win->ata, ata);

  // Deep-interior pixels: no template pixel and no correspondent
  // p + h + M_h(p) can leave the frame, so the gather needs no clamps and
  // a correspondent's flat index is pixel + hypothesis + window offsets.
  const int nss = table.nss();
  const bool interior =
      x - rx + std::min(g.hx_min - nss, 0) >= 0 &&
      x + rx + std::max(g.hx_max + nss, 0) < w &&
      y - ry + std::min(g.hy_min - nss, 0) >= 0 &&
      y + ry + std::max(g.hy_max + nss, 0) < h;
  std::ptrdiff_t code_step[256];
  for (int c = 0; c < (2 * nss + 1) * (2 * nss + 1); ++c)
    code_step[c] = static_cast<std::ptrdiff_t>(table.code_dy(
                       static_cast<std::uint8_t>(c))) * w +
                   table.code_dx(static_cast<std::uint8_t>(c));

  const int nhx = g.hx_max - g.hx_min + 1;
  const int count = nhx * (g.hy_max - g.hy_min + 1);
  int k0 = 0;
  for (; k0 + N <= count; k0 += N) {
    int lane_hx[N], lane_hy[N];
    std::ptrdiff_t lane_code[N], lane_step[N];
    for (int l = 0; l < N; ++l) {
      lane_hx[l] = g.hx_min + (k0 + l) % nhx;
      lane_hy[l] = g.hy_min + (k0 + l) / nhx;
      lane_code[l] = (table.codes(0, 0, lane_hy[l]) - codes0) + lane_hx[l] +
                     table.hx_radius();
      lane_step[l] = static_cast<std::ptrdiff_t>(lane_hy[l]) * w + lane_hx[l];
    }
    V atb[6] = {vzero, vzero, vzero, vzero, vzero, vzero};
    V btb = vzero;
    for (int v = -ry; v <= ry; ++v) {
      const int py = std::clamp(y + v, 0, h - 1);
      const std::size_t off = static_cast<std::size_t>(py) * w;
      for (int u = -rx; u <= rx; ++u) {
        const int px = std::clamp(x + u, 0, w - 1);
        const std::uint8_t* const pix_codes =
            table.codes(px, py, table.hy_min());
        float gi[N], gj[N], gk[N];
        if (interior) {
          const float* const ci = a_ni + off + px;
          const float* const cj = a_nj + off + px;
          const float* const ck = a_nk + off + px;
          for (int l = 0; l < N; ++l) {
            const std::ptrdiff_t q =
                lane_step[l] + code_step[pix_codes[lane_code[l]]];
            gi[l] = ci[q];
            gj[l] = cj[q];
            gk[l] = ck[q];
          }
        } else {
          for (int l = 0; l < N; ++l) {
            const std::uint8_t c = pix_codes[lane_code[l]];
            const int qx =
                std::clamp(px + lane_hx[l] + table.code_dx(c), 0, w - 1);
            const int qy =
                std::clamp(py + lane_hy[l] + table.code_dy(c), 0, h - 1);
            const std::size_t q = static_cast<std::size_t>(qy) * w + qx;
            gi[l] = a_ni[q];
            gj[l] = a_nj[q];
            gk[l] = a_nk[q];
          }
        }
        accumulate_template_pixel<Tag, Fma>(planes, off + px, T::load_f32(gi),
                                            T::load_f32(gj), T::load_f32(gk),
                                            atb, btb);
      }
    }

    ScoredBatch<Tag> scored;
    score_batch<Tag>(ata, atb, btb, scored, tally);
    fold_batch<Tag>(scored, lane_hx, lane_hy, flow, best);
  }

  for (; k0 < count; ++k0) {
    const int hx = g.hx_min + k0 % nhx;
    const int hy = g.hy_min + k0 / nhx;
    MotionParams params;
    bool ok = false;
    ++tally.tail_hypotheses;
    const double error = evaluate_hypothesis_remapped(
        pre, *g.after, *g.win, table, x, y, hx, hy, rx, ry, params, ok);
    if (hypothesis_improves(best, error, hx, hy)) {
      const auto [ux, uy] = flow(hx, hy);
      take_hypothesis(best, hx, hy, ux, uy, error, params, ok);
    }
  }
}

// Fma=false is the default bit-exact kernel (mul-then-add everywhere,
// matching the scalar path under -ffp-contract=off).  Fma=true is the
// tolerance-gated fast profile (SmaConfig::fast_math): the template
// window's A^T b / b^T b MACs go through LaneTraits::mul_add, which
// fuses where the ISA can.  Everything else — elimination, residual,
// winner fold — is shared, so the fast profile differs from the exact
// one only by the rounding of the fused accumulations.
template <class Tag, bool Fma = false>
void scan_pixel_t(const VectorKernelArgs& g, PixelBest& best,
                  VectorLaneTally& tally) {
  if (g.table != nullptr) {
    scan_pixel_remapped_t<Tag, Fma>(g, best, tally);
    return;
  }
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;

  const MatchPrecompute& pre = *g.pre;
  const surface::GeometricField& after = *g.after;
  const int w = pre.width();
  const int h = pre.height();
  const int x = g.x, y = g.y, rx = g.rx, ry = g.ry;

  const TemplatePlanes planes(pre);
  // F_cont's flow vector is the hypothesis itself.
  const auto flow = [](int hx, int hy) { return std::pair<int, int>{hx, hy}; };

  const V vzero = T::zero();
  V ata[21];
  broadcast_ata<Tag>(g.win->ata, ata);

  const bool x_interior = x - rx >= 0 && x + rx < w;

  // Pruned mode's prefix A^T A (hypothesis-invariant, so broadcast once
  // per pixel like the full window's), normalized the same way.
  const bool bound_on = g.win_prefix != nullptr;
  V pre_ata[21];
  for (int k = 0; k < 21; ++k) pre_ata[k] = vzero;
  if (bound_on) broadcast_ata<Tag>(g.win_prefix->ata, pre_ata);

  for (int hy = g.hy_min; hy <= g.hy_max; ++hy) {
    int hx0 = g.hx_min;
    for (; hx0 + N - 1 <= g.hx_max; hx0 += N) {
      // ---- Batched A^T b / b^T b over the template window: lane l is
      // hypothesis hx0 + l.  Same v-outer / u-inner order and the same
      // association order per MAC as the scalar evaluator.
      V atb[6] = {vzero, vzero, vzero, vzero, vzero, vzero};
      V btb = vzero;
      bool abandoned = false;
      bool checked = false;
      double batch_bound = 0.0;
      // Every lane's correspondent column stays unclamped across the
      // whole window iff the widest lane's does.
      const bool contiguous =
          x_interior && x - rx + hx0 >= 0 && x + rx + hx0 + N - 1 < w;
      for (int v = -ry; v <= ry; ++v) {
        if (bound_on && v == 0 && best.any_ok &&
            std::isfinite(best.error) && best.error > 0.0) {
          // Half-template checkpoint (match_prune.hpp): lower-bound each
          // lane's full residual by its minimized prefix residual and
          // abandon the WHOLE batch when even the best lane provably
          // cannot beat the incumbent.  The prefix moments go through
          // the same 0.0 + v normalization as the scalar bound path;
          // the running atb/btb accumulators are left untouched.
          V patb[6];
          for (int r = 0; r < 6; ++r) patb[r] = T::add(vzero, atb[r]);
          const V pbtb = T::add(vzero, btb);
          const V bound =
              simd::batch_bound6<Tag>(pre_ata, patb, pbtb, 1e-12);
          double bounds[N];
          T::store(bounds, bound);
          double min_bound = bounds[0];
          for (int l = 1; l < N; ++l)
            min_bound = std::min(min_bound, bounds[l]);
          tally.bound_checks += N;
          checked = true;
          batch_bound = min_bound;
          if (prune_bound_exceeds(min_bound, best.error)) {
            tally.bound_skipped += N;
            abandoned = true;
            break;
          }
        }
        const int py = std::clamp(y + v, 0, h - 1);
        const int qy = std::clamp(py + hy, 0, h - 1);
        const std::size_t off = static_cast<std::size_t>(py) * w;
        const float* const a_ni = after.ni.row(qy);
        const float* const a_nj = after.nj.row(qy);
        const float* const a_nk = after.nk.row(qy);
        for (int u = -rx; u <= rx; ++u) {
          const int px = std::clamp(x + u, 0, w - 1);
          V oi, oj, ok;
          if (contiguous) {
            const int qx0 = px + hx0;
            oi = T::load_f32(a_ni + qx0);
            oj = T::load_f32(a_nj + qx0);
            ok = T::load_f32(a_nk + qx0);
          } else {
            // Border batch: per-lane clamped gather into stack buffers,
            // reproducing the scalar path's qx clamp lane by lane.
            float gi[N], gj[N], gk[N];
            for (int l = 0; l < N; ++l) {
              const int qx = std::clamp(px + hx0 + l, 0, w - 1);
              gi[l] = a_ni[qx];
              gj[l] = a_nj[qx];
              gk[l] = a_nk[qx];
            }
            oi = T::load_f32(gi);
            oj = T::load_f32(gj);
            ok = T::load_f32(gk);
          }
          accumulate_template_pixel<Tag, Fma>(planes, off + px, oi, oj, ok,
                                              atb, btb);
        }
      }

      if (abandoned) continue;

      ScoredBatch<Tag> scored;
      score_batch<Tag>(ata, atb, btb, scored, tally);
      // Bound tightness over the completed batch, in hypothesis units:
      // ratio of the batch's best bound to its best realized error.
      if (checked && std::isfinite(scored.min_err) && scored.min_err > 0.0)
        tally.bound_tightness_sum +=
            static_cast<double>(N) *
            std::min(1.0, std::max(0.0, batch_bound) / scored.min_err);
      int lane_hx[N], lane_hy[N];
      for (int l = 0; l < N; ++l) {
        lane_hx[l] = hx0 + l;
        lane_hy[l] = hy;
      }
      fold_batch<Tag>(scored, lane_hx, lane_hy, flow, best);
    }

    // ---- Scalar tail: search widths that are not a lane multiple.  In
    // pruned mode it checkpoints through evaluate_hypothesis_bounded —
    // same gate as the batched path — so narrow windows (common once the
    // seed shrinks the search box below kLanes) still count bound_checks
    // / bound_skipped instead of silently bypassing the bound.
    for (; hx0 <= g.hx_max; ++hx0) {
      MotionParams params;
      bool ok = false;
      double error;
      ++tally.tail_hypotheses;
      if (bound_on && best.any_ok && std::isfinite(best.error) &&
          best.error > 0.0) {
        bool skipped = false;
        double bnd = 0.0;
        error = evaluate_hypothesis_bounded(
            pre, after, *g.win, *g.win_prefix, x, y, hx0, hy, rx, ry,
            best.error, /*has_incumbent=*/true, params, ok, skipped, &bnd);
        ++tally.bound_checks;
        if (skipped) {
          ++tally.bound_skipped;
          continue;
        }
        if (std::isfinite(error) && error > 0.0)
          tally.bound_tightness_sum +=
              std::min(1.0, std::max(0.0, bnd) / error);
      } else {
        error = evaluate_hypothesis_precomputed(
            pre, after, *g.win, x, y, hx0, hy, rx, ry, params, ok);
      }
      if (hypothesis_improves(best, error, hx0, hy))
        take_hypothesis(best, hx0, hy, hx0, hy, error, params, ok);
    }
  }
}

/// SoA adapter for the property tests: batches laid out as
/// element-major [k][lane] double arrays.
template <class Tag>
void batch_solve_soa(const double* a, const double* b, double* x,
                     unsigned char* singular, double eps) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;
  V av[36], bv[6], xv[6];
  for (int k = 0; k < 36; ++k) av[k] = T::load(a + k * N);
  for (int k = 0; k < 6; ++k) bv[k] = T::load(b + k * N);
  const auto mask = simd::batch_solve6<Tag>(av, bv, xv, eps);
  for (int k = 0; k < 6; ++k) T::store(x + k * N, xv[k]);
  const unsigned bits = T::mask_bits(mask);
  for (int l = 0; l < N; ++l) singular[l] = (bits >> l & 1u) != 0 ? 1 : 0;
}

}  // namespace sma::core::detail
