// match_vector_impl.hpp — the lane-generic bodies of the vector matching
// kernels.  Included ONLY by the per-ISA translation units
// (match_vector_<isa>.cpp), each of which instantiates the kernels for
// its lane tag under the matching target flags (lane_kernels_of).
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
#include <limits>
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

// A batch of centers' hypothesis-invariant system: the normalized A^T A
// window sums the residual reads, and their factorization.
template <class Tag>
struct CenterSystems {
  typename simd::LaneTraits<Tag>::Vec ata[21];
  simd::Factor6<Tag> factor;
};

// Factors a batch's normalized A^T A window sums (sys.ata, the upper
// triangle) into sys.factor, as NormalEquations6::solve hands the full
// symmetric matrix to solve6.
template <class Tag>
[[gnu::always_inline]] inline void factor_system(CenterSystems<Tag>& sys) {
  typename simd::LaneTraits<Tag>::Vec a[36];
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c)
      a[r * 6 + c] =
          c >= r ? sys.ata[simd::tri21(r, c)] : sys.ata[simd::tri21(c, r)];
  simd::batch_factor6<Tag>(a, 1e-12, sys.factor);
}

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
  Buffer<double> incumbents;           // th x cw incumbent errors
  // Sub-pixel probes only: the last nhx + 1 hypotheses' residuals
  // ((nhx + 1) x th x cw), th x cw incumbent hypotheses as numbers, and
  // th x cw records of the incumbents' neighbours scored so far.
  Buffer<double> residuals;
  Buffer<double> incumbent_at;
  Buffer<SubpixelProbes> near;
};

// A hypothesis as one exact double: its axis neighbours lie 1 and
// kHypothesisRow away.
constexpr double kHypothesisRow = 1 << 20;
[[gnu::always_inline]] inline double hypothesis_at(int hx, int hy) {
  return hx * kHypothesisRow + hy;
}

// Keeps residual `e` of hypothesis (hx, hy) in `near` when it is an axis
// neighbour of the incumbent b.
[[gnu::always_inline]] inline void keep_neighbour(SubpixelProbes& near,
                                                  const PixelBest& b, int hx,
                                                  int hy, double e) {
  for (int k = 0; k < 4; ++k)
    if (b.hx + SubpixelProbes::kDx[k] == hx &&
        b.hy + SubpixelProbes::kDy[k] == hy) {
      near.err[k] = e;
      near.known |= 1u << k;
    }
}

// One pass's scoring: normalize K batches' moments m[k] (A^T b in
// m[k][0..5], b^T b in m[k][6]) the way add_precomputed does (0.0 + v),
// apply each batch's factorization and score it — batch k's lanes get
// theta[k] and err[k], the bits one batch_apply6 and batch_residual6
// call would give them.
template <class Tag, int K>
[[gnu::always_inline]] inline void score_pass(
    const CenterSystems<Tag>* const (&sys)[K],
    const typename simd::LaneTraits<Tag>::Vec (&m)[K][7],
    typename simd::LaneTraits<Tag>::Vec (&theta)[K][6],
    typename simd::LaneTraits<Tag>::Vec (&err)[K]) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  V atb[K][6], b_work[K][6], btb[K];
  const simd::Factor6<Tag>* fac[K];
  const V* ata[K];
  for (int k = 0; k < K; ++k) {
    for (int r = 0; r < 6; ++r)
      b_work[k][r] = atb[k][r] = T::add(T::zero(), m[k][r]);
    btb[k] = T::add(T::zero(), m[k][6]);
    fac[k] = &sys[k]->factor;
    ata[k] = sys[k]->ata;
  }
  simd::batch_apply6_k<Tag, K>(fac, b_work, theta);
  simd::batch_residual6_k<Tag, K>(ata, theta, atb, btb, err);
}

// One sched tile's search (VectorTileArgs).  Once per tile:
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
//     0.0, the scalar two-level order, gathering kBatchesPerPass live
//     batches in (tile row, batch) order;
//  4. apply each gathered batch's factorization and score it, the
//     batches' dependency chains interleaved (score_pass);
//  5. fold each batch, in gathering order, into its centers'
//     incumbents: one vector compare against the tile's incumbent
//     errors keeps the lanes that can win or tie, and only those go
//     through hypothesis_improves and PixelBest::take.
// With a probe store (VectorTileArgs::probes) step 5 also keeps the
// residuals of each center's incumbent's axis neighbours as the sweep
// scores them: a neighbour scored after the incumbent when it is scored,
// one scored before (hx - 1 or hy - 1) from a ring of the last nhx + 1
// hypotheses' residuals when the incumbent changes.  After the sweep
// each center's probe slot takes them (6.).
// A tile row's last batch may hold fewer than kLanes centers; its idle
// lanes carry the next (clamped) columns and are discarded.  Under
// pruned search a lane whose window does not admit the hypothesis is
// discarded the same way, and a batch with no admitting lane is
// skipped.  A hypothesis's last pass may gather fewer than
// kBatchesPerPass batches; its empty slots re-score the first one and
// are discarded before the fold and the counters.
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
  // Sub-pixel probes: residual (hx, hy) of center (cy, c) sits at
  // resid[(hi % ring * th + cy) * cw + c] while it is among the last
  // `ring` scored, hi = (hy - hy_min) * nhx + hx - hx_min; the center's
  // incumbent is incumbent_at[cy * cw + c] (hypothesis_at, NaN until it
  // has one) and its neighbours scored so far near[cy * cw + c].
  const int nhx = g.hx_max - g.hx_min + 1;
  const int ring = nhx + 1;
  const std::size_t resid_plane = static_cast<std::size_t>(th) * cw;
  double* resid = nullptr;
  double* incumbent_at = nullptr;
  SubpixelProbes* near = nullptr;
  if (g.probes != nullptr) {
    resid = scratch.residuals.at_least(ring * resid_plane);
    incumbent_at = scratch.incumbent_at.at_least(resid_plane);
    near = scratch.near.at_least(resid_plane);
  }
  // The fold's pre-filter: center (cy, c)'s incumbent error at
  // incumbent[cy * cw + c], +inf until it has one (and on idle columns).
  double* const incumbent = scratch.incumbents.at_least(resid_plane);
  for (int cy = 0; cy < th; ++cy)
    for (int c = 0; c < cw; ++c) {
      const std::size_t at = static_cast<std::size_t>(cy) * cw + c;
      const PixelBest* const b =
          c < tw ? &best[static_cast<std::size_t>(g.y0 + cy) * w + g.x0 + c]
                 : nullptr;
      const bool any = b != nullptr && b->any_ok;
      incumbent[at] = any ? b->error : std::numeric_limits<double>::infinity();
      if (near == nullptr) continue;
      incumbent_at[at] = any ? hypothesis_at(b->hx, b->hy)
                             : std::numeric_limits<double>::quiet_NaN();
      near[at].known = 0;
    }

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
  for (int b = 0; b < th * groups; ++b) factor_system<Tag>(systems[b]);

  const TemplatePlanes planes(pre);
  const float* const a_ni = g.after->ni.data();
  const float* const a_nj = g.after->nj.data();
  const float* const a_nk = g.after->nk.data();
  const int code_stride = table != nullptr ? 2 * table->hx_radius() + 1 : 0;
  constexpr int K = T::kBatchesPerPass;
  std::uint64_t solves = 0, singulars = 0;  // into solve_counters() at the end

  for (int hy = g.hy_min; hy <= g.hy_max; ++hy) {
    for (int hx = g.hx_min; hx <= g.hx_max; ++hx) {
      // This hypothesis's plane of the residual ring, if there is one.
      const int hi = (hy - g.hy_min) * nhx + hx - g.hx_min;
      double* const resid_h =
          resid != nullptr
              ? resid + static_cast<std::size_t>(hi % ring) * resid_plane
              : nullptr;
      const V here = T::broadcast(hypothesis_at(hx, hy));
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

      // 3-5. One batch per kLanes centers of a tile row, K live batches
      // per pass.  Batch bi holds tile row bi / groups, columns
      // bi % groups * N onward: its centers sit at bi * N in the
      // tile-local [cy][c] arrays.
      for (int bi = 0; bi < th * groups;) {
        int batch[K];
        unsigned lives[K];
        V m[K][7];
        int n = 0;
        for (; n < K && bi < th * groups; ++bi) {
          const int cy = bi / groups;
          const int c0 = bi % groups * N;
          const int active = std::min(N, tw - c0);
          unsigned live = (1u << active) - 1u;
          if (g.windows != nullptr) {
            const PruneWindow* const pw_row =
                g.windows + static_cast<std::size_t>(g.y0 + cy) * w + g.x0 +
                c0;
            for (int l = 0; l < active; ++l) {
              const PruneWindow& pw = pw_row[l];
              if (hx < pw.hx_min || hx > pw.hx_max || hy < pw.hy_min ||
                  hy > pw.hy_max)
                live &= ~(1u << l);
            }
            if (live == 0) continue;
          }
          for (int k = 0; k < 7; ++k) m[n][k] = T::zero();
          for (int v = 0; v <= 2 * ry; ++v) {
            const double* const src =
                rows + static_cast<std::size_t>(cy + v) * cw + c0;
            for (int k = 0; k < 7; ++k)
              m[n][k] = T::add(m[n][k], T::load(src + k * row_plane));
          }
          batch[n] = bi;
          lives[n] = live;
          ++n;
        }
        if (n == 0) break;

        // A short pass re-scores its first batch in the empty slots.
        const CenterSystems<Tag>* sys[K];
        for (int k = 0; k < K; ++k) {
          if (k >= n)
            for (int j = 0; j < 7; ++j) m[k][j] = m[0][j];
          sys[k] = &systems[batch[k < n ? k : 0]];
        }
        V theta[K][6], err[K];
        score_pass<Tag, K>(sys, m, theta, err);

        for (int k = 0; k < n; ++k) {
          const unsigned live = lives[k];
          const unsigned singular = T::mask_bits(sys[k]->factor.singular);
          const int folded = std::popcount(live);
          solves += static_cast<std::uint64_t>(folded);
          singulars += static_cast<std::uint64_t>(std::popcount(singular & live));
          if (folded == N)
            tally.batched_hypotheses += N;
          else
            tally.tail_hypotheses += static_cast<std::uint64_t>(folded);
          ++tally.batches;

          const std::size_t at = static_cast<std::size_t>(batch[k]) * N;
          const int y = g.y0 + batch[k] / groups;
          const int x0 = g.x0 + batch[k] % groups * N;
          if (resid_h != nullptr) {
            T::store(resid_h + at, err[k]);
            // The lanes whose incumbent this hypothesis neighbours.
            const V d = T::abs(T::sub(T::load(incumbent_at + at), here));
            unsigned adj =
                live & T::mask_bits(T::mask_or(
                           T::cmp_eq(d, T::broadcast(1.0)),
                           T::cmp_eq(d, T::broadcast(kHypothesisRow))));
            for (; adj != 0; adj &= adj - 1) {
              const int l = std::countr_zero(adj);
              keep_neighbour(near[at + l],
                             best[static_cast<std::size_t>(y) * w + x0 + l],
                             hx, hy, resid_h[at + l]);
            }
          }
          // The lanes that can win or tie: err > incumbent rejects, as
          // hypothesis_improves would.
          unsigned cand =
              live & ~T::mask_bits(T::cmp_gt(err[k], T::load(incumbent + at)));
          if (cand == 0) continue;
          double e[N], par[6][N];
          T::store(e, err[k]);
          for (int r = 0; r < 6; ++r) T::store(par[r], theta[k][r]);
          for (; cand != 0; cand &= cand - 1) {
            const int l = std::countr_zero(cand);
            const int x = x0 + l;
            PixelBest& b = best[static_cast<std::size_t>(y) * w + x];
            if (!hypothesis_improves(b, e[l], hx, hy)) continue;
            const auto [ux, uy] = table != nullptr
                                      ? table->offset(x, y, hx, hy)
                                      : std::pair<int, int>{hx, hy};
            const bool ok = (singular >> l & 1u) == 0;
            b.take(hx, hy, ux, uy, e[l],
                   ok ? MotionParams::from_vec({par[0][l], par[1][l],
                                                par[2][l], par[3][l],
                                                par[4][l], par[5][l]})
                      : MotionParams{},
                   ok);
            incumbent[at + l] = e[l];
            if (near == nullptr) continue;
            // A new incumbent: its (hx - 1, hy) and (hx, hy - 1)
            // neighbours were scored 1 and nhx hypotheses ago if they lie
            // inside the box and, under pruned search, the window.
            incumbent_at[at + l] = hypothesis_at(hx, hy);
            SubpixelProbes& s = near[at + l];
            s.known = 0;
            const PruneWindow* const pw =
                g.windows != nullptr
                    ? &g.windows[static_cast<std::size_t>(y) * w + x]
                    : nullptr;
            for (const int k : {0, 2}) {
              const int nx = hx + SubpixelProbes::kDx[k];
              const int ny = hy + SubpixelProbes::kDy[k];
              if (nx < g.hx_min || ny < g.hy_min) continue;
              if (pw != nullptr && (nx < pw->hx_min || ny < pw->hy_min))
                continue;
              const int back = k == 0 ? 1 : nhx;
              s.err[k] = resid[static_cast<std::size_t>((hi - back) % ring) *
                                   resid_plane +
                               at + l];
              s.known |= 1u << k;
            }
          }
        }
      }
    }
  }
  auto& counters = linalg::solve_counters();
  counters.solves6 += solves;
  counters.singular += singulars;

  // 6. The incumbents' neighbours this sweep scored — inside the box
  // and, under pruned search, inside the center's window — go to the
  // probe store; a slot whose incumbent changed starts over.
  if (near == nullptr) return;
  for (int cy = 0; cy < th; ++cy)
    for (int c = 0; c < tw; ++c) {
      const std::size_t i = static_cast<std::size_t>(g.y0 + cy) * w + g.x0 + c;
      const PixelBest& b = best[i];
      if (!b.any_ok) continue;
      SubpixelProbes& s = g.probes[i];
      if (s.hx != b.hx || s.hy != b.hy) {
        s.hx = b.hx;
        s.hy = b.hy;
        s.known = 0;
      }
      const SubpixelProbes& found = near[static_cast<std::size_t>(cy) * cw + c];
      for (int k = 0; k < 4; ++k)
        if ((found.known >> k & 1u) != 0) s.err[k] = found.err[k];
      s.known |= found.known;
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

/// SoA adapter for the property tests: the tile kernel's scoring of
/// `nbatch` batches (LaneKernels::score).  Batch i's A^T A upper
/// triangle sits at ata[(i * 21 + e) * kLanes + l] and its moments at
/// m[(i * 7 + k) * kLanes + l]; both are normalized (0.0 + v), the
/// window sums factored (factor_system) and each batch scored — in the
/// kernel's passes (score_pass, the last one padded as the kernel pads
/// it) when `passes`, else through one batch_apply6 and batch_residual6
/// call per batch — into theta[(i * 6 + r) * kLanes + l],
/// err[i * kLanes + l] and singular[i * kLanes + l].
template <class Tag>
void batch_score_soa(const double* ata, const double* m, int nbatch,
                     bool passes, double* theta, double* err,
                     unsigned char* singular) {
  using T = simd::LaneTraits<Tag>;
  using V = typename T::Vec;
  constexpr int N = T::kLanes;
  constexpr int K = T::kBatchesPerPass;
  std::unique_ptr<CenterSystems<Tag>[]> sys(new CenterSystems<Tag>[nbatch]);
  for (int i = 0; i < nbatch; ++i) {
    for (int e = 0; e < 21; ++e)
      sys[i].ata[e] = T::add(T::zero(), T::load(ata + (i * 21 + e) * N));
    factor_system<Tag>(sys[i]);
  }
  const auto put = [&](int i, const V (&x)[6], V e) {
    for (int r = 0; r < 6; ++r) T::store(theta + (i * 6 + r) * N, x[r]);
    T::store(err + i * N, e);
    const unsigned bits = T::mask_bits(sys[i].factor.singular);
    for (int l = 0; l < N; ++l) singular[i * N + l] = (bits >> l & 1u) != 0;
  };
  for (int i = 0; i < nbatch; i += passes ? K : 1) {
    if (passes) {
      const CenterSystems<Tag>* s[K];
      V mv[K][7], x[K][6], e[K];
      for (int k = 0; k < K; ++k) {
        const int j = i + k < nbatch ? i + k : i;
        s[k] = &sys[j];
        for (int c = 0; c < 7; ++c) mv[k][c] = T::load(m + (j * 7 + c) * N);
      }
      score_pass<Tag, K>(s, mv, x, e);
      for (int k = 0; k < K && i + k < nbatch; ++k) put(i + k, x[k], e[k]);
    } else {
      V mn[7], b_work[6], x[6];
      for (int c = 0; c < 7; ++c)
        mn[c] = T::add(T::zero(), T::load(m + (i * 7 + c) * N));
      for (int r = 0; r < 6; ++r) b_work[r] = mn[r];
      simd::batch_apply6<Tag>(sys[i].factor, b_work, x);
      put(i, x, simd::batch_residual6<Tag>(sys[i].ata, x, mn, mn[6]));
    }
  }
}

/// One lane implementation's kernels: the table a per-ISA unit's
/// lane_kernels_<isa>() returns.
template <class Tag>
LaneKernels lane_kernels_of() {
  using T = simd::LaneTraits<Tag>;
  return {T::kLanes, T::kBatchesPerPass, &scan_tile_t<Tag>,
          &batch_factor_apply_soa<Tag>, &batch_score_soa<Tag>};
}

}  // namespace sma::core::detail
