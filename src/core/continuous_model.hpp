// continuous_model.hpp — F_cont: locally affine continuous deformation.
//
// Paper, Sec. 2.2.  A small surface patch around z(x, y, t_m) is assumed
// to undergo the local affine (first order) transformation of Eq. (6):
//
//   x' = x + (a_i x + b_i y + x_0)
//   y' = y + (a_j x + b_j y + y_0)
//   z' = z + (a_k x + b_k y + z_0)
//
// with (x_0, y_0, z_0) the rigid translation component.  The error of a
// candidate correspondence hypothesis (x_hat, y_hat) is "the difference
// between the observed and expected behavior of the surface normals"
// (Eq. 3), minimized over the six parameters {a_i,b_i,a_j,b_j,a_k,b_k}
// by a 6x6 Gaussian elimination.
//
// RECONSTRUCTION NOTE (see DESIGN.md Sec. 2): Eqs. (4)-(5) are corrupted
// in all available scans of the paper, so the normal-prediction equations
// are rederived here from the same small-deformation model.  Take patch-
// centered offsets (u, v); the displacement field is
//   (du, dv, dw) = (a_i u + b_i v + x0,  a_j u + b_j v + y0,
//                   a_k u + b_k v + z0).
// Tangents before motion:  r_u = (1, 0, z_x),  r_v = (0, 1, z_y).
// Tangents after motion:   r_u' = (1 + a_i, a_j, z_x + a_k),
//                          r_v' = (b_i, 1 + b_j, z_y + b_k).
// The (unnormalized) normal  m' = r_u' x r_v'  expands, to first order in
// the six parameters, as  m' = m + dm  with  m = (-z_x, -z_y, 1)  and
//
//   dm_i = -a_k - b_j z_x + a_j z_y
//   dm_j = -b_k - a_i z_y + b_i z_x          (linear in the parameters)
//   dm_k =  a_i + b_j
//
// Only the *direction* of the normal is observable at the corresponding
// pixel, so the predicted unit normal is linearized on the sphere:
//   n_pred = n + (P dm) / |m|,  P = I - n n^T  (tangent projector),
// and each template pixel contributes three linear equations
//   (P dm)/|m| = n_obs - n
// weighted 1/E, 1/G, 1 on the i, j, k rows — the first-fundamental-form
// weighting visible in the paper's Eqs. (4)-(5) (every a_i, b_i term is
// divided by E or G).  epsilon_1/epsilon_2 of Eq. (3) correspond to the
// weighted i/j residuals.  The resulting normal equations are 6x6 and are
// solved by Gaussian elimination, matching the paper's own op counts (169
// eliminations per tracked pixel for a 13x13 search area).
#pragma once

#include "core/config.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "surface/geometry.hpp"

namespace sma::core {

/// The six first-order motion parameters of Eq. (6).  The rigid
/// translation (x0, y0) is carried by the integer hypothesis offset and
/// z0 by the surface difference, so they are not part of the solve.
struct MotionParams {
  double ai = 0.0, bi = 0.0;
  double aj = 0.0, bj = 0.0;
  double ak = 0.0, bk = 0.0;

  linalg::Vec6 as_vec() const { return {ai, bi, aj, bj, ak, bk}; }
  static MotionParams from_vec(const linalg::Vec6& v) {
    return MotionParams{v[0], v[1], v[2], v[3], v[4], v[5]};
  }
};

/// Adds the three linearized normal-consistency rows for one template
/// pixel: geometry before motion from `before` at (px, py), observed
/// normal after motion from `after` at (qx, qy).  The naive oracle
/// evaluate_pixel_hypothesis (core/tracker.hpp) accumulates its template
/// through it, solves the 6x6 system and scores the residual — Step 1 +
/// Step 2 of Sec. 2.2.
void add_normal_rows(const surface::GeometricField& before,
                     const surface::GeometricField& after, int px, int py,
                     int qx, int qy, linalg::NormalEquations6& ne);

}  // namespace sma::core
