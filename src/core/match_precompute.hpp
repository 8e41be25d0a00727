// match_precompute.hpp — hypothesis-invariant precompute for the 6x6
// normal-equation matching kernel.
//
// Every quantity in the linearized normal-consistency system of Eq. (3)
// except the right-hand-side target depends only on the BEFORE-frame
// pixel: the three weighted design rows (P M)/|m| with the 1/E, 1/G and
// 1/|m| factors folded in, their rank-one outer product contribution to
// A^T A, and the row·n terms that appear when the target b = n_obs - n
// is split.  The paper makes exactly this move for the MP-2 — "the
// geometric variables are precomputed" (Sec. 3) — so that the
// (2N_zs+1)^2 search hypotheses pay only the part of the arithmetic that
// actually looks at the after frame.
//
// MatchPrecompute materializes those invariants once per before frame
// into contiguous structure-of-arrays double planes (plane-major, one
// value per pixel per plane) so the per-hypothesis inner loop reduces to
//
//   A^T A : summing precomputed 21-entry upper-triangle tiles over the
//           template window (shared across ALL hypotheses of a pixel),
//   A^T b : an 18-MAC accumulation of the weighted rows against the
//           after-frame unit-normal planes,
//   b^T b : a 3-MAC weighted sum of squares,
//
// with branch-free contiguous interior loops the compiler can
// auto-vectorize.  DESIGN.md §11 derives the split and proves the fast
// path is BIT-IDENTICAL to the naive oracle: both paths compute the
// identical floating-point expressions in the identical association
// order (per-pixel tiles, the two-level window order — each template row
// summed from 0.0 in u order, then the row subtotals in v order —
// unsplit target in A^T b), so `NormalEquations6::solve` receives the
// same bits.
//
// The pair decides: SmaPipeline::track_pair builds the planes exactly
// when no validity mask is attached — a mask drops template pixels, so
// the window is no longer a fixed box over the before frame and the
// shared window sums are invalid — and run_matching_stage rejects a
// caller that attaches both.  A null MatchInput::precompute selects the
// naive evaluator on every backend.  The semi-fluid model rides the
// planes: its per-pixel remap moves only the AFTER-frame correspondent
// q = p + M_h(p), so A^T A (before frame only) is still the shared
// window sum and just the A^T b / b^T b sweep gathers through the
// correspondence table.  One evaluator serves every precomputed
// consumer — F_cont and F_semi through its table — and the naive path
// remains the equivalence oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/continuous_model.hpp"
#include "core/semifluid.hpp"
#include "surface/geometry.hpp"

namespace sma::core {

/// The per-pixel hypothesis-invariant quantities, in the exact
/// floating-point form shared by the naive oracle (add_normal_rows) and
/// the precomputed planes.  `tile` is the pixel's weighted A^T A
/// contribution, upper triangle in row-major (r <= c) order.
struct PixelInvariants {
  double ri[6], rj[6], rk[6];     ///< projected rows (P M)/|m|
  double wri[6], wrj[6], wrk[6];  ///< weighted rows: rows x {1/E, 1/G, 1}
  double tile[21];                ///< sum of the three weighted outer products
  double ni, nj, nk;              ///< unit normal before motion
  double wi, wj;                  ///< 1/E, 1/G (the k-row weight is 1)
};

/// Computes the invariants of before-frame pixel (px, py).  This is THE
/// canonical arithmetic: add_normal_rows and the MatchPrecompute builder
/// both call it, which is what makes the two paths bit-identical.
void compute_pixel_invariants(const surface::GeometricField& before, int px,
                              int py, PixelInvariants& out);

/// Template-window sums of the invariant planes for one (x, y):
/// everything a hypothesis evaluation needs besides the after frame.
/// The target stays unsplit (A^T b is summed per hypothesis), so the
/// window only carries the A^T A tiles.
struct WindowInvariants {
  double ata[21];       ///< window sum of the A^T A tiles
  std::uint64_t rows = 0;  ///< design rows represented (3 per pixel)
};

/// Precomputed SoA planes for one before frame: 44 double planes
/// (352 B/pixel); plane-major so each inner loop walks contiguous
/// memory.
class MatchPrecompute {
 public:
  // Plane indices.  kTile0..+20: A^T A upper triangle; kWri0/kWrj0/kWrk0
  // +r: weighted row coefficients for parameter r; kNi/kNj/kNk: before
  // unit normal; kWi/kWj: 1/E, 1/G.
  static constexpr int kTile0 = 0;
  static constexpr int kWri0 = 21;
  static constexpr int kWrj0 = 27;
  static constexpr int kWrk0 = 33;
  static constexpr int kNi = 39;
  static constexpr int kNj = 40;
  static constexpr int kNk = 41;
  static constexpr int kWi = 42;
  static constexpr int kWj = 43;
  static constexpr int kPlanes = 44;

  /// Builds the planes from the before-frame geometry.  `parallel`
  /// runs the (independent, deterministic) rows on the sched pool.
  explicit MatchPrecompute(const surface::GeometricField& before,
                           bool parallel = false);

  int width() const { return width_; }
  int height() const { return height_; }
  std::size_t bytes() const { return data_.size() * sizeof(double); }

  const double* plane(int p) const {
    return data_.data() + static_cast<std::size_t>(p) * npix_;
  }

  /// Direct window accumulation of the A^T A tiles for the template box
  /// centered at (x, y) with half-widths (rx, ry), clamped borders —
  /// the same pixel multiset, in the same two-level order, as the naive
  /// template loop.
  void accumulate_window(int x, int y, int rx, int ry,
                         WindowInvariants& out) const;

 private:
  int width_ = 0;
  int height_ = 0;
  std::size_t npix_ = 0;
  std::vector<double> data_;  // plane-major: [plane][y][x]
};

/// THE precomputed Eq. (3) evaluator: hypothesis (hx, hy) at pixel
/// (x, y), A^T A from `win`, A^T b / b^T b from the 18-MAC sweep of the
/// weighted-row planes against the after-frame normals.  Template pixel
/// p's correspondent is clamp(p + h) for F_cont (`table` null) and
/// p + M_h(p) from the segment's correspondence table for F_semi (`hy`
/// inside the table's segment, |hx| within its hx_radius), read with the
/// naive path's clamp.  Bit-identical to the naive
/// evaluate_pixel_hypothesis (no masks) driven by the same table.
/// Returns the Eq. (3) residual.
double evaluate_hypothesis_precomputed(const MatchPrecompute& pre,
                                       const surface::GeometricField& after,
                                       const WindowInvariants& win,
                                       const SemiFluidTable* table, int x,
                                       int y, int hx, int hy, int rx, int ry,
                                       MotionParams& params_out,
                                       bool& ok_out);

}  // namespace sma::core
