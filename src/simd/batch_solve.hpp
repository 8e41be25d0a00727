// batch_solve.hpp — lane-batched 6x6 Gaussian elimination.
//
// Solves kLanes independent 6x6 systems at once, structure-of-arrays
// across the lanes: element (r, c) of every system sits in one Vec, so
// the elimination's row operations become plain lane arithmetic.  The
// algorithm is linalg::solve6 transcribed per lane:
//
//  * partial pivoting picks, per lane, the FIRST row of strictly
//    maximal |entry| (the same `mag > best` scan order as solve6) via
//    cmp/select chains; the conditional row swap is a blend on a
//    pivot-row-equality mask;
//  * the scalar `if (f == 0.0) continue` guard is replicated as a
//    per-lane blend that keeps the untouched row, because `x - 0*y` is
//    not always bit-identical to `x` (it normalizes -0.0);
//  * a lane whose pivot magnitude falls below eps is marked singular —
//    solve6's kSingular return.  Its pivot is blended to 1.0 so the
//    elimination stays finite for the neighbors, and its solution is
//    zeroed at the end, which maps onto the caller convention that a
//    singular hypothesis scores residual(theta = 0) — the existing
//    "infinite error / no information" convention of the tracker.
//
// Pivots, multipliers, skips and the singular mask depend on the matrix
// only, so the solve comes in two halves: batch_factor6 records them,
// and batch_apply6_k replays the row operations on a right-hand side of
// each of K batches (batch_apply6 is its K = 1 call).
// The b-side operations read only b and the recorded values, so
// factor-then-apply is the same sequence on b as solve6's interleaved
// pass, and one factorization serves any number of right-hand sides.
//
// Because every lane executes the exact instruction sequence of
// solve6 on the same values, a lane's solution is bit-identical to
// calling solve6 on that lane's system alone — the property
// tests/test_simd_lanes.cpp checks, including mixed singular and
// non-singular lanes in one batch and several right-hand sides per
// factorization.
#pragma once

#include <algorithm>

#include "simd/lane.hpp"

namespace sma::simd {

/// Index of upper-triangle element (r, c), r <= c, in the row-major
/// 21-entry layout shared with WindowInvariants::ata.
constexpr int tri21(int r, int c) {
  return r * (13 - r) / 2 + (c - r);
}

/// What the elimination decides from the matrix alone: per column the
/// lanes' pivot rows and the multipliers below the diagonal (f == 0
/// lanes skip their row update), the eliminated upper triangle U, and
/// the singular-lane mask.  Every right-hand side of one A^T A replays
/// the same row operations, so a tracker centre factors once and applies
/// the factorization to each of its hypotheses' A^T b.
template <class Tag>
struct Factor6 {
  typename LaneTraits<Tag>::Vec pivot[5];  ///< column c's pivot row, as a double
  typename LaneTraits<Tag>::Vec f[15];     ///< multipliers, column by column
  typename LaneTraits<Tag>::Vec u[21];     ///< U, tri21 layout
  typename LaneTraits<Tag>::Mask singular;
};

/// The matrix half of the solve: eliminates the kLanes systems held SoA
/// in `a` (row-major 6x6, one Vec per element; destroyed, as in solve6,
/// which takes it by value).
template <class Tag>
void batch_factor6(typename LaneTraits<Tag>::Vec a[36], double eps,
                   Factor6<Tag>& out) {
  using T = LaneTraits<Tag>;
  using V = typename T::Vec;
  using M = typename T::Mask;

  const V veps = T::broadcast(eps);
  const V vone = T::broadcast(1.0);

  M singular = T::cmp_lt(vone, T::zero());  // all-false
  int k = 0;
  for (int col = 0; col < 6; ++col) {
    // Per-lane partial pivot: first row of strictly maximal magnitude,
    // tracked as a lane-wise row index held in a double Vec.
    V best = T::abs(a[col * 6 + col]);
    V pivot = T::broadcast(static_cast<double>(col));
    for (int r = col + 1; r < 6; ++r) {
      const V mag = T::abs(a[r * 6 + col]);
      const M better = T::cmp_gt(mag, best);
      best = T::select(better, mag, best);
      pivot = T::select(better, T::broadcast(static_cast<double>(r)), pivot);
    }
    singular = T::mask_or(singular, T::cmp_lt(best, veps));
    if (col == 5) break;
    out.pivot[col] = pivot;

    // Conditional row swap: for each candidate row, lanes whose pivot
    // landed there exchange it with row `col`.  Values only move — no
    // arithmetic — so the blend is exact.
    for (int r = col + 1; r < 6; ++r) {
      const M here = T::cmp_eq(pivot, T::broadcast(static_cast<double>(r)));
      if (!T::mask_any(here)) continue;
      for (int c = col; c < 6; ++c) {
        const V top = a[col * 6 + c];
        const V row = a[r * 6 + c];
        a[col * 6 + c] = T::select(here, row, top);
        a[r * 6 + c] = T::select(here, top, row);
      }
    }

    // Keep singular lanes finite: their pivot becomes 1.0 (their x is
    // discarded by batch_apply6), everyone else divides by the true
    // pivot.
    const V piv = T::select(singular, vone, a[col * 6 + col]);
    const V inv = T::div(vone, piv);
    for (int r = col + 1; r < 6; ++r) {
      const V f = T::mul(a[r * 6 + col], inv);
      const M skip = T::cmp_eq(f, T::zero());  // solve6's `if (f == 0.0)`
      for (int c = col; c < 6; ++c) {
        const V updated = T::sub(a[r * 6 + c], T::mul(f, a[col * 6 + c]));
        a[r * 6 + c] = T::select(skip, a[r * 6 + c], updated);
      }
      out.f[k++] = f;
    }
  }
  for (int r = 0; r < 6; ++r)
    for (int c = r; c < 6; ++c) out.u[tri21(r, c)] = a[r * 6 + c];
  out.singular = singular;
}

// ---- The right-hand-side half and the residual, K batches at once.
// One batch's apply and residual is a single dependency chain (six
// dependent divisions, then 36 serial adds); K independent batches
// interleaved keep the divider and adders busy.  Batch k runs exactly
// the operations of a K = 1 call on its own values — only the order
// across batches differs — so every lane keeps its bits.

/// The right-hand-side half of the solve for K batches: batch k replays
/// fac[k]'s swaps and row operations on b[k] (destroyed),
/// back-substitutes through U into x[k], and gives singular lanes x = 0.
template <class Tag, int K>
[[gnu::always_inline]] inline void batch_apply6_k(
    const Factor6<Tag>* const (&fac)[K],
    typename LaneTraits<Tag>::Vec (&b)[K][6],
    typename LaneTraits<Tag>::Vec (&x)[K][6]) {
  using T = LaneTraits<Tag>;
  using V = typename T::Vec;
  using M = typename T::Mask;

  int i = 0;
  for (int col = 0; col < 5; ++col) {
    for (int r = col + 1; r < 6; ++r) {
      const V row = T::broadcast(static_cast<double>(r));
      for (int k = 0; k < K; ++k) {
        const M here = T::cmp_eq(fac[k]->pivot[col], row);
        if (!T::mask_any(here)) continue;
        const V tb = b[k][col];
        b[k][col] = T::select(here, b[k][r], tb);
        b[k][r] = T::select(here, tb, b[k][r]);
      }
    }
    for (int r = col + 1; r < 6; ++r, ++i)
      for (int k = 0; k < K; ++k) {
        const V f = fac[k]->f[i];
        const M skip = T::cmp_eq(f, T::zero());
        b[k][r] = T::select(skip, b[k][r],
                            T::sub(b[k][r], T::mul(f, b[k][col])));
      }
  }

  // Back substitution; singular lanes may divide by junk — their x is
  // overwritten with the theta = 0 convention immediately after.
  for (int ri = 5; ri >= 0; --ri)
    for (int k = 0; k < K; ++k) {
      V s = b[k][ri];
      for (int c = ri + 1; c < 6; ++c)
        s = T::sub(s, T::mul(fac[k]->u[tri21(ri, c)], x[k][c]));
      x[k][ri] = T::div(s, fac[k]->u[tri21(ri, ri)]);
    }
  for (int k = 0; k < K; ++k)
    for (int r = 0; r < 6; ++r)
      x[k][r] = T::select(fac[k]->singular, T::zero(), x[k][r]);
}

/// Residual r = x^T (A^T A) x - 2 x^T (A^T b) + b^T b, clamped at zero,
/// for K batches: out[k] scores x[k] against ata21[k] (the upper
/// triangle), atb[k] and btb[k] — NormalEquations6::residual per lane,
/// in its exact association order (r-outer/c-inner full 6x6 quad sweep,
/// ascending dot product).
template <class Tag, int K>
[[gnu::always_inline]] inline void batch_residual6_k(
    const typename LaneTraits<Tag>::Vec* const (&ata21)[K],
    const typename LaneTraits<Tag>::Vec (&x)[K][6],
    const typename LaneTraits<Tag>::Vec (&atb)[K][6],
    const typename LaneTraits<Tag>::Vec (&btb)[K],
    typename LaneTraits<Tag>::Vec (&out)[K]) {
  using T = LaneTraits<Tag>;
  using V = typename T::Vec;

  V quad[K], lin[K];
  for (int k = 0; k < K; ++k) quad[k] = lin[k] = T::zero();
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c) {
      const int e = c >= r ? tri21(r, c) : tri21(c, r);
      for (int k = 0; k < K; ++k)
        quad[k] = T::add(quad[k],
                         T::mul(T::mul(x[k][r], ata21[k][e]), x[k][c]));
    }
  for (int i = 0; i < 6; ++i)
    for (int k = 0; k < K; ++k)
      lin[k] = T::add(lin[k], T::mul(x[k][i], atb[k][i]));
  const V two = T::broadcast(2.0);
  for (int k = 0; k < K; ++k) {
    const V res = T::add(T::sub(quad[k], T::mul(two, lin[k])), btb[k]);
    out[k] = T::select(T::cmp_gt(res, T::zero()), res, T::zero());
  }
}

/// One batch's batch_apply6_k: `fac` replayed on b into x.
template <class Tag>
void batch_apply6(const Factor6<Tag>& fac, typename LaneTraits<Tag>::Vec b[6],
                  typename LaneTraits<Tag>::Vec x[6]) {
  const Factor6<Tag>* const f[1] = {&fac};
  typename LaneTraits<Tag>::Vec bk[1][6], xk[1][6];
  std::copy_n(b, 6, bk[0]);
  batch_apply6_k<Tag, 1>(f, bk, xk);
  std::copy_n(xk[0], 6, x);
}

/// One batch's batch_residual6_k.
template <class Tag>
typename LaneTraits<Tag>::Vec batch_residual6(
    const typename LaneTraits<Tag>::Vec ata21[21],
    const typename LaneTraits<Tag>::Vec x[6],
    const typename LaneTraits<Tag>::Vec atb[6],
    typename LaneTraits<Tag>::Vec btb) {
  using V = typename LaneTraits<Tag>::Vec;
  const V* const a[1] = {ata21};
  V xk[1][6], bk[1][6], out[1];
  const V tk[1] = {btb};
  std::copy_n(x, 6, xk[0]);
  std::copy_n(atb, 6, bk[0]);
  batch_residual6_k<Tag, 1>(a, xk, bk, tk, out);
  return out[0];
}

}  // namespace sma::simd
