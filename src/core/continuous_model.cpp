#include "core/continuous_model.hpp"

#include "core/match_precompute.hpp"

namespace sma::core {

void add_normal_rows(const surface::GeometricField& before,
                     const surface::GeometricField& after, int px, int py,
                     int qx, int qy, linalg::NormalEquations6& ne) {
  // Everything except the A^T b / b^T b targets is hypothesis-invariant:
  // the weighted rows of (P M)/|m| (P = I - n n^T, weights 1/E, 1/G, 1)
  // and their A^T A tile come from the canonical per-pixel arithmetic
  // shared with the MatchPrecompute planes — the two paths stay
  // bit-identical because they execute the SAME expressions in the SAME
  // order (DESIGN.md §11).
  PixelInvariants p;
  compute_pixel_invariants(before, px, py, p);

  // Observed unit normal after motion; targets b = n_obs - n, kept
  // unsplit so no association order changes against the fast path.
  const double bi = static_cast<double>(after.ni.at_clamped(qx, qy)) - p.ni;
  const double bj = static_cast<double>(after.nj.at_clamped(qx, qy)) - p.nj;
  const double bk = static_cast<double>(after.nk.at_clamped(qx, qy)) - p.nk;

  linalg::Vec6 atb;
  for (int r = 0; r < 6; ++r)
    atb[r] = p.wri[r] * bi + p.wrj[r] * bj + p.wrk[r] * bk;
  const double btb = p.wi * (bi * bi) + p.wj * (bj * bj) + bk * bk;
  ne.add_precomputed(p.tile, atb, btb, 3);
}

}  // namespace sma::core
