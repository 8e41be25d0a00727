// match_vector_impl.hpp — the lane-generic bodies of the vector matching
// kernels.  Included ONLY by the per-ISA translation units
// (match_vector_<isa>.cpp), each of which instantiates scan_tile_t /
// batch_factor_apply_soa for its lane tag under the matching target
// flags.
//
// scan_tile_t puts one center pixel in each lane.  It follows the
// bit-exactness contract of match_vector.hpp and DESIGN.md §13: every
// lane performs the scalar path's floating-point operations on the same
// values in the same order.  Three details make that exact rather than
// approximate:
//
//  * moments are "normalized" through add(0, v) before the solve,
//    because the scalar path accumulates them into a zero-initialized
//    NormalEquations6 (0.0 + v flushes -0.0 to +0.0);
//  * the batched elimination replicates solve6's `if (f == 0.0)
//    continue` and first-strict-max pivot per lane, and its factor /
//    apply split replays the same operations (simd/batch_solve.hpp);
//  * no FMA anywhere: mul-then-add only, matching -ffp-contract=off.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/match_precompute.hpp"
#include "core/match_vector.hpp"
#include "core/tracker.hpp"
#include "linalg/gaussian_elimination.hpp"
#include "simd/batch_solve.hpp"
#include "simd/lane.hpp"

namespace sma::core::detail {

// ---- Pieces of the tile kernel.  Force-inlined, so it compiles to the
// same instruction sequence as if they were written out in place.

// The before-frame planes a template pixel's A^T b / b^T b terms read.
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

// A template pixel's seven Eq. (3) terms against the lanes' after-frame
// normals (oi, oj, ok), with b = o - n(p):
//   t[r] = (wri·bi + wrj·bj) + wrk·bk   (r < 6, added into A^T b[r])
//   t[6] = (wi·(bi·bi) + wj·(bj·bj)) + bk·bk   (added into b^T b)
// — the exact expressions evaluate_hypothesis_precomputed adds.
// `load(plane)` yields the lanes' before-frame values of a precompute
// plane.
template <class Tag, class Load>
[[gnu::always_inline]] inline void template_terms(
    const TemplatePlanes& p, Load load, typename simd::LaneTraits<Tag>::Vec oi,
    typename simd::LaneTraits<Tag>::Vec oj,
    typename simd::LaneTraits<Tag>::Vec ok,
    typename simd::LaneTraits<Tag>::Vec (&t)[7]) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  const V bi = T::sub(oi, load(p.ni));
  const V bj = T::sub(oj, load(p.nj));
  const V bk = T::sub(ok, load(p.nk));
  for (int r = 0; r < 6; ++r)
    t[r] = T::add(T::add(T::mul(load(p.rows[r]), bi),
                         T::mul(load(p.rows[6 + r]), bj)),
                  T::mul(load(p.rows[12 + r]), bk));
  t[6] = T::add(T::add(T::mul(load(p.wi), T::mul(bi, bi)),
                       T::mul(load(p.wj), T::mul(bj, bj))),
                T::mul(bk, bk));
}

// kLanes doubles row[clamp(x + l, 0, w - 1)]: a border lane group's
// clamped gather.
template <class Tag>
[[gnu::always_inline]] inline typename simd::LaneTraits<Tag>::Vec
load_clamped(const double* row, int x, int w) {
  using T = simd::LaneTraits<Tag>;
  double g[T::kLanes];
  for (int l = 0; l < T::kLanes; ++l) g[l] = row[std::clamp(x + l, 0, w - 1)];
  return T::load(g);
}

// A solved batch: every lane's parameters, residual and singular flag.
template <class Tag>
struct ScoredBatch {
  double theta[6][simd::LaneTraits<Tag>::kLanes];
  double errs[simd::LaneTraits<Tag>::kLanes];
  unsigned singular_bits;

  // Lane l's motion parameters (zero for a singular lane).
  MotionParams params(int l) const {
    if ((singular_bits >> l & 1u) != 0) return MotionParams{};
    return MotionParams::from_vec({theta[0][l], theta[1][l], theta[2][l],
                                   theta[3][l], theta[4][l], theta[5][l]});
  }
};

// A batch of centers' hypothesis-invariant system: the normalized A^T A
// window sums the residual reads, and their factorization.
template <class Tag>
struct CenterSystems {
  typename simd::LaneTraits<Tag>::Vec ata[21];
  simd::Factor6<Tag> factor;
};

// The kernel's per-executor scratch, kept across tiles: a tile allocates
// only when it needs more than every earlier tile on its thread.  Plain
// arrays grown by a member of this per-Tag type, so the wide units emit
// no shared inline container code (DESIGN.md §13's comdat caveat).
template <class Tag>
struct TileScratch {
  template <class E>
  struct Buffer {
    std::unique_ptr<E[]> data;
    std::size_t size = 0;

    // At least n elements; a growth zeroes them.
    E* at_least(std::size_t n) {
      if (size < n) {
        data.reset(new E[n]());
        size = n;
      }
      return data.get();
    }
  };
  Buffer<double> terms;  // one term row: 7 planes x hw
  Buffer<double> rows;   // row subtotals: 7 planes x hh x cw
  Buffer<CenterSystems<Tag>> systems;  // th x cw / kLanes batches
};

// Normalize the moments m (A^T b in m[0..5], b^T b in m[6]) the way
// add_precomputed does (0.0 + v), apply the centers' factorization,
// score, and count the solves: one per hypothesis and live lane, as if
// each were its own solve6.  Only the first `active` lanes hold real
// systems: the solve counters count those, and a batch with idle lanes
// tallies as tail rather than batched work.
template <class Tag>
[[gnu::always_inline]] inline void score_batch(
    const CenterSystems<Tag>& sys,
    const typename simd::LaneTraits<Tag>::Vec (&m)[7], ScoredBatch<Tag>& out,
    VectorLaneTally& tally, int active) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;
  V mn[7];
  for (int k = 0; k < 7; ++k) mn[k] = T::add(T::zero(), m[k]);
  V b_work[6];
  for (int r = 0; r < 6; ++r) b_work[r] = mn[r];
  V theta[6];
  simd::batch_apply6<Tag>(sys.factor, b_work, theta);
  const V err = simd::batch_residual6<Tag>(sys.ata, theta, mn, mn[6]);
  for (int r = 0; r < 6; ++r) T::store(out.theta[r], theta[r]);

  out.singular_bits = T::mask_bits(sys.factor.singular);
  const unsigned live = (1u << active) - 1u;
  auto& counters = linalg::solve_counters();
  counters.solves6 += static_cast<std::uint64_t>(active);
  counters.singular += std::popcount(out.singular_bits & live);
  if (active == N)
    tally.batched_hypotheses += N;
  else
    tally.tail_hypotheses += static_cast<std::uint64_t>(active);
  ++tally.batches;

  T::store(out.errs, err);
}

// One sched tile's full search (VectorTileArgs).  Once per tile:
//  0. every center's A^T A in accumulate_window's two-level order — per
//     tile plane, each template row's subtotal over each center column,
//     then each center's 2ry+1 row subtotals — normalized and factored
//     (batch_factor6) per batch of kLanes centers.
// Then for each hypothesis, in the scalar hy-outer / hx-inner order:
//  1. build the seven terms of each template pixel of the tile plus its
//     halo, one row at a time — each template pixel's terms once, not
//     once per covering template — in lane groups of contiguous pixels,
//     gathering only where p or its correspondent q needs a clamp
//     (F_cont: q = clamp(p + h); F_semi: q = clamp(p + h + M_h(p))
//     through the correspondence table);
//  2. sum the row's terms over each center column's template row from
//     0.0, once for every center whose template covers that row;
//  3. put one center in each lane and add its 2ry+1 row subtotals from
//     0.0, the scalar two-level order;
//  4. apply the batch's factorization and score (score_batch);
//  5. fold each lane into its center's incumbent.
// A tile row's last batch may hold fewer than kLanes centers; its idle
// lanes carry the next (clamped) columns and are discarded.
template <class Tag>
void scan_tile_t(const VectorTileArgs& g, PixelBest* best,
                 VectorLaneTally& tally) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;

  const MatchPrecompute& pre = *g.pre;
  const SemiFluidTable* const table = g.table;
  const int w = pre.width();
  const int h = pre.height();
  const int rx = g.rx, ry = g.ry;
  const int tw = g.x1 - g.x0;
  const int th = g.y1 - g.y0;
  // Center columns rounded up to whole batches; a term row spans their
  // template halo, rounded up to whole lane groups for the build.  Term
  // row r is template pixel row clamp(y0 - ry + r).
  const int cw = (tw + N - 1) / N * N;
  const int hw = (cw + 2 * rx + N - 1) / N * N;
  const int hh = th + 2 * ry;
  const int groups = cw / N;
  const std::size_t row_plane = static_cast<std::size_t>(hh) * cw;

  thread_local TileScratch<Tag> scratch;
  double* const terms =
      scratch.terms.at_least(7 * static_cast<std::size_t>(hw));
  double* const rows = scratch.rows.at_least(7 * row_plane);
  CenterSystems<Tag>* const systems =
      scratch.systems.at_least(static_cast<std::size_t>(th) * groups);

  // 0. A^T A: one tile plane at a time through the first row-subtotal
  // plane, then one factorization per batch.
  for (int k = 0; k < 21; ++k) {
    const double* const t = pre.plane(MatchPrecompute::kTile0 + k);
    for (int r = 0; r < hh; ++r) {
      const double* const row =
          t + static_cast<std::size_t>(std::clamp(g.y0 - ry + r, 0, h - 1)) *
                  w;
      for (int c0 = 0; c0 < cw; c0 += N) {
        const int xa = g.x0 + c0;  // lane 0's center column
        V acc = T::zero();
        if (xa - rx >= 0 && xa + N - 1 + rx < w) {
          for (int u = -rx; u <= rx; ++u)
            acc = T::add(acc, T::load(row + xa + u));
        } else {
          for (int u = -rx; u <= rx; ++u)
            acc = T::add(acc, load_clamped<Tag>(row, xa + u, w));
        }
        T::store(rows + static_cast<std::size_t>(r) * cw + c0, acc);
      }
    }
    for (int cy = 0; cy < th; ++cy)
      for (int gi = 0; gi < groups; ++gi) {
        V acc = T::zero();
        for (int v = 0; v <= 2 * ry; ++v)
          acc = T::add(acc, T::load(rows + static_cast<std::size_t>(cy + v) *
                                               cw +
                                    gi * N));
        systems[cy * groups + gi].ata[k] = T::add(T::zero(), acc);
      }
  }
  for (int b = 0; b < th * groups; ++b) {
    CenterSystems<Tag>& sys = systems[b];
    V a[36];
    for (int r = 0; r < 6; ++r)
      for (int c = 0; c < 6; ++c)
        a[r * 6 + c] = c >= r ? sys.ata[simd::tri21(r, c)]
                              : sys.ata[simd::tri21(c, r)];
    simd::batch_factor6<Tag>(a, 1e-12, sys.factor);
  }

  const TemplatePlanes planes(pre);
  const float* const a_ni = g.after->ni.data();
  const float* const a_nj = g.after->nj.data();
  const float* const a_nk = g.after->nk.data();
  const int code_stride = table != nullptr ? 2 * table->hx_radius() + 1 : 0;

  for (int hy = g.hy_min; hy <= g.hy_max; ++hy) {
    for (int hx = g.hx_min; hx <= g.hx_max; ++hx) {
      for (int r = 0; r < hh; ++r) {
        // 1. Term row r; column j is template pixel x0 - rx + j.
        const int py = std::clamp(g.y0 - ry + r, 0, h - 1);
        const std::size_t off = static_cast<std::size_t>(py) * w;
        const std::size_t q_row =
            static_cast<std::size_t>(std::clamp(py + hy, 0, h - 1)) * w;
        const std::uint8_t* const codes =
            table != nullptr
                ? table->codes(0, py, hy) + hx + table->hx_radius()
                : nullptr;
        for (int c0 = 0; c0 < hw; c0 += N) {
          const int xa = g.x0 - rx + c0;  // lane 0's template pixel column
          const bool p_in = xa >= 0 && xa + N - 1 < w;
          V oi, oj, ok;
          if (table == nullptr && p_in && xa + hx >= 0 && xa + hx + N - 1 < w) {
            oi = T::load_f32(a_ni + q_row + xa + hx);
            oj = T::load_f32(a_nj + q_row + xa + hx);
            ok = T::load_f32(a_nk + q_row + xa + hx);
          } else {
            float gi[N], gj[N], gk[N];
            for (int l = 0; l < N; ++l) {
              const int px = std::clamp(xa + l, 0, w - 1);
              std::size_t q;
              if (table == nullptr) {
                q = q_row + std::clamp(px + hx, 0, w - 1);
              } else {
                const std::uint8_t c = codes[px * code_stride];
                q = static_cast<std::size_t>(
                        std::clamp(py + hy + table->code_dy(c), 0, h - 1)) *
                        w +
                    std::clamp(px + hx + table->code_dx(c), 0, w - 1);
              }
              gi[l] = a_ni[q];
              gj[l] = a_nj[q];
              gk[l] = a_nk[q];
            }
            oi = T::load_f32(gi);
            oj = T::load_f32(gj);
            ok = T::load_f32(gk);
          }
          V t[7];
          if (p_in) {
            template_terms<Tag>(
                planes,
                [&](const double* plane) { return T::load(plane + off + xa); },
                oi, oj, ok, t);
          } else {
            template_terms<Tag>(
                planes,
                [&](const double* plane) {
                  return load_clamped<Tag>(plane + off, xa, w);
                },
                oi, oj, ok, t);
          }
          for (int k = 0; k < 7; ++k) T::store(terms + k * hw + c0, t[k]);
        }
        // 2. Its subtotals: center column c's template row is term
        // columns c .. c + 2rx.
        double* const row_out = rows + static_cast<std::size_t>(r) * cw;
        for (int c0 = 0; c0 < cw; c0 += N) {
          V acc[7];
          for (int k = 0; k < 7; ++k) acc[k] = T::zero();
          for (int u = 0; u <= 2 * rx; ++u)
            for (int k = 0; k < 7; ++k)
              acc[k] = T::add(acc[k], T::load(terms + k * hw + c0 + u));
          for (int k = 0; k < 7; ++k)
            T::store(row_out + k * row_plane + c0, acc[k]);
        }
      }

      // 3-5. One batch per kLanes centers of a tile row.
      for (int cy = 0; cy < th; ++cy) {
        const int y = g.y0 + cy;
        PixelBest* const row_best = best + static_cast<std::size_t>(y) * w;
        for (int gi = 0; gi < groups; ++gi) {
          const int c0 = gi * N;
          V m[7];
          for (int k = 0; k < 7; ++k) m[k] = T::zero();
          for (int v = 0; v <= 2 * ry; ++v) {
            const double* const src =
                rows + static_cast<std::size_t>(cy + v) * cw + c0;
            for (int k = 0; k < 7; ++k)
              m[k] = T::add(m[k], T::load(src + k * row_plane));
          }

          const int active = std::min(N, tw - c0);
          ScoredBatch<Tag> scored;
          score_batch<Tag>(systems[cy * groups + gi], m, scored, tally,
                           active);

          for (int l = 0; l < active; ++l) {
            const int x = g.x0 + c0 + l;
            PixelBest& b = row_best[x];
            const double err = scored.errs[l];
            // hypothesis_improves' first rejection, inline.
            if (b.any_ok && err > b.error) continue;
            if (!hypothesis_improves(b, err, hx, hy)) continue;
            const auto [ux, uy] = table != nullptr
                                      ? table->offset(x, y, hx, hy)
                                      : std::pair<int, int>{hx, hy};
            b.take(hx, hy, ux, uy, err, scored.params(l),
                   (scored.singular_bits >> l & 1u) == 0);
          }
        }
      }
    }
  }
}

/// SoA adapter for the property tests: a batch laid out as element-major
/// [k][lane] double arrays, factored once and applied to `nrhs`
/// right-hand sides, each 6 x kLanes doubles in `b` and `x`.
template <class Tag>
void batch_factor_apply_soa(const double* a, const double* b, int nrhs,
                            double* x, unsigned char* singular, double eps) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;
  V av[36];
  for (int k = 0; k < 36; ++k) av[k] = T::load(a + k * N);
  simd::Factor6<Tag> fac;
  simd::batch_factor6<Tag>(av, eps, fac);
  for (int i = 0; i < nrhs; ++i) {
    V bv[6], xv[6];
    for (int k = 0; k < 6; ++k) bv[k] = T::load(b + (i * 6 + k) * N);
    simd::batch_apply6<Tag>(fac, bv, xv);
    for (int k = 0; k < 6; ++k) T::store(x + (i * 6 + k) * N, xv[k]);
  }
  const unsigned bits = T::mask_bits(fac.singular);
  for (int l = 0; l < N; ++l) singular[l] = (bits >> l & 1u) != 0 ? 1 : 0;
}

}  // namespace sma::core::detail
