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
// and batch_apply6 replays the row operations on one right-hand side.
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

/// The right-hand-side half of the solve: replays the factorization's
/// swaps and row operations on `b` (destroyed), back-substitutes through
/// U into `x`, and gives singular lanes x = 0.
template <class Tag>
void batch_apply6(const Factor6<Tag>& fac, typename LaneTraits<Tag>::Vec b[6],
                  typename LaneTraits<Tag>::Vec x[6]) {
  using T = LaneTraits<Tag>;
  using V = typename T::Vec;
  using M = typename T::Mask;

  int k = 0;
  for (int col = 0; col < 5; ++col) {
    for (int r = col + 1; r < 6; ++r) {
      const M here =
          T::cmp_eq(fac.pivot[col], T::broadcast(static_cast<double>(r)));
      if (!T::mask_any(here)) continue;
      const V tb = b[col];
      b[col] = T::select(here, b[r], tb);
      b[r] = T::select(here, tb, b[r]);
    }
    for (int r = col + 1; r < 6; ++r) {
      const V f = fac.f[k++];
      const M skip = T::cmp_eq(f, T::zero());
      b[r] = T::select(skip, b[r], T::sub(b[r], T::mul(f, b[col])));
    }
  }

  // Back substitution; singular lanes may divide by junk — their x is
  // overwritten with the theta = 0 convention immediately after.
  for (int ri = 5; ri >= 0; --ri) {
    V s = b[ri];
    for (int c = ri + 1; c < 6; ++c)
      s = T::sub(s, T::mul(fac.u[tri21(ri, c)], x[c]));
    x[ri] = T::div(s, fac.u[tri21(ri, ri)]);
  }
  for (int r = 0; r < 6; ++r) x[r] = T::select(fac.singular, T::zero(), x[r]);
}

/// Residual r = x^T (A^T A) x - 2 x^T (A^T b) + b^T b, clamped at zero,
/// batched across lanes — NormalEquations6::residual per lane, in its
/// exact association order (r-outer/c-inner full 6x6 quad sweep,
/// ascending dot product).  `ata21` is the upper triangle.
template <class Tag>
typename LaneTraits<Tag>::Vec batch_residual6(
    const typename LaneTraits<Tag>::Vec ata21[21],
    const typename LaneTraits<Tag>::Vec x[6],
    const typename LaneTraits<Tag>::Vec atb[6],
    typename LaneTraits<Tag>::Vec btb) {
  using T = LaneTraits<Tag>;
  using V = typename T::Vec;

  V quad = T::zero();
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c) {
      const V a = c >= r ? ata21[tri21(r, c)] : ata21[tri21(c, r)];
      quad = T::add(quad, T::mul(T::mul(x[r], a), x[c]));
    }
  V lin = T::zero();
  for (int i = 0; i < 6; ++i) lin = T::add(lin, T::mul(x[i], atb[i]));
  const V res =
      T::add(T::sub(quad, T::mul(T::broadcast(2.0), lin)), btb);
  return T::select(T::cmp_gt(res, T::zero()), res, T::zero());
}

}  // namespace sma::simd
