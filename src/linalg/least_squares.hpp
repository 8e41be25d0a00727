// least_squares.hpp — normal-equation accumulation for small LSQ problems.
//
// Both stages of the SMA algorithm are linear least squares with six
// unknowns: the quadratic surface-patch fit (Sec. 2.2, Step 2 of the
// paper) and the motion-parameter estimate obtained by "differentiating
// with respect to the six unknown motion parameters and setting the six
// first partial derivatives to zero".  NormalEquations6 accumulates the
// rank-one updates A^T A and A^T b row by row so callers never materialize
// the (possibly 14641-row) design matrix.
#pragma once

#include <cstdint>

#include "linalg/gaussian_elimination.hpp"
#include "linalg/matrix.hpp"

namespace sma::linalg {

/// Accumulator for a 6-unknown least-squares problem min ||A x - b||^2.
/// Rows are streamed in via `add_row`; `solve` performs the 6x6 Gaussian
/// elimination on the normal equations.
class NormalEquations6 {
 public:
  NormalEquations6() = default;

  /// Adds one observation row `a` with target `b` and weight `w >= 0`.
  /// Weighting implements the paper's E,G first-fundamental-form scaling.
  void add_row(const Vec6& a, double b, double w = 1.0) {
    for (std::size_t r = 0; r < 6; ++r) {
      const double war = w * a[r];
      if (war == 0.0) continue;
      for (std::size_t c = r; c < 6; ++c) ata_(r, c) += war * a[c];
      atb_[r] += war * b;
    }
    btb_ += w * b * b;
    ++rows_;
  }

  /// Adds a batch of rows whose moments were already reduced by the
  /// caller: `ata_upper21` holds the 21 upper-triangle entries of the
  /// batch's weighted A^T A in row-major (r <= c) order, `atb` / `btb`
  /// the matching weighted moments, `rows` the number of design rows the
  /// batch represents.  This is the entry point for the hypothesis-
  /// invariant match precompute (core/match_precompute.hpp), where the
  /// A^T A contribution of a whole template window is summed from
  /// per-pixel tiles outside the search loop.
  void add_precomputed(const double* ata_upper21, const Vec6& atb, double btb,
                       std::uint64_t rows) {
    std::size_t k = 0;
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = r; c < 6; ++c) ata_(r, c) += ata_upper21[k++];
    atb_ += atb;
    btb_ += btb;
    rows_ += rows;
  }

  /// Adds another accumulator's moments and row count: a template row's
  /// subtotal going into the template total (the two-level window order,
  /// DESIGN.md §11).
  void add(const NormalEquations6& other) {
    ata_ += other.ata_;
    atb_ += other.atb_;
    btb_ += other.btb_;
    rows_ += other.rows_;
  }

  /// Number of rows accumulated so far.
  std::uint64_t rows() const { return rows_; }

  /// Solves the normal equations; on kSingular `x` is untouched.
  SolveStatus solve(Vec6& x, double eps = 1e-12) const {
    Mat6 full;
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 6; ++c)
        full(r, c) = (c >= r) ? ata_(r, c) : ata_(c, r);
    return solve6(full, atb_, x, eps);
  }

  /// Residual sum of squares ||A x - b||^2 for a candidate solution,
  /// computed from the accumulated moments (no second pass over rows):
  /// r = x^T (A^T A) x - 2 x^T (A^T b) + b^T b.
  double residual(const Vec6& x) const {
    double quad = 0.0;
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t c = 0; c < 6; ++c) {
        const double a = (c >= r) ? ata_(r, c) : ata_(c, r);
        quad += x[r] * a * x[c];
      }
    const double lin = dot(x, atb_);
    // Clamp tiny negative values caused by cancellation.
    const double res = quad - 2.0 * lin + btb_;
    return res > 0.0 ? res : 0.0;
  }

  void reset() {
    ata_ = Mat6{};
    atb_ = Vec6{};
    btb_ = 0.0;
    rows_ = 0;
  }

 private:
  Mat6 ata_;          // upper triangle used
  Vec6 atb_;
  double btb_ = 0.0;  // Σ w b², for closed-form residuals
  std::uint64_t rows_ = 0;
};

}  // namespace sma::linalg
