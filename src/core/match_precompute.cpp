#include "core/match_precompute.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/least_squares.hpp"
#include "sched/scheduler.hpp"

// Hot loops read disjoint const planes and write local accumulators;
// restrict-qualifying the plane pointers lets the compiler keep the
// 18-MAC sweep vectorized without alias re-checks.
#if defined(__GNUC__) || defined(__clang__)
#define SMA_RESTRICT __restrict__
#else
#define SMA_RESTRICT
#endif

namespace sma::core {

void compute_pixel_invariants(const surface::GeometricField& before, int px,
                              int py, PixelInvariants& out) {
  const double zx = before.zx.at_clamped(px, py);
  const double zy = before.zy.at_clamped(px, py);
  const double ee = before.ee.at_clamped(px, py);
  const double gg = before.gg.at_clamped(px, py);
  const double ni = before.ni.at_clamped(px, py);
  const double nj = before.nj.at_clamped(px, py);
  const double nk = before.nk.at_clamped(px, py);
  const double mnorm = std::sqrt(1.0 + zx * zx + zy * zy);

  // dm = M theta, theta = (a_i, b_i, a_j, b_j, a_k, b_k) — see
  // continuous_model.hpp for the derivation.
  const double mi[6] = {0.0, 0.0, zy, -zx, -1.0, 0.0};
  const double mj[6] = {-zy, zx, 0.0, 0.0, 0.0, -1.0};
  const double mk[6] = {1.0, 0.0, 0.0, 1.0, 0.0, 0.0};

  const double inv = 1.0 / mnorm;
  const double wi = 1.0 / ee;
  const double wj = 1.0 / gg;
  for (int c = 0; c < 6; ++c) {
    const double proj = ni * mi[c] + nj * mj[c] + nk * mk[c];
    out.ri[c] = (mi[c] - ni * proj) * inv;
    out.rj[c] = (mj[c] - nj * proj) * inv;
    out.rk[c] = (mk[c] - nk * proj) * inv;
    out.wri[c] = wi * out.ri[c];
    out.wrj[c] = wj * out.rj[c];
    out.wrk[c] = out.rk[c];
  }
  int k = 0;
  for (int r = 0; r < 6; ++r)
    for (int c = r; c < 6; ++c)
      out.tile[k++] = out.wri[r] * out.ri[c] + out.wrj[r] * out.rj[c] +
                      out.wrk[r] * out.rk[c];
  out.ni = ni;
  out.nj = nj;
  out.nk = nk;
  out.wi = wi;
  out.wj = wj;
}

MatchPrecompute::MatchPrecompute(const surface::GeometricField& before,
                                 bool parallel)
    : width_(before.width()),
      height_(before.height()),
      npix_(static_cast<std::size_t>(width_) * height_),
      data_(static_cast<std::size_t>(kPlanes) * npix_) {
  double* const d = data_.data();
  const std::size_t n = npix_;
  sched::for_each_row(height_, width_, parallel, [&](int y) {
    PixelInvariants p;
    for (int x = 0; x < width_; ++x) {
      compute_pixel_invariants(before, x, y, p);
      const std::size_t i = static_cast<std::size_t>(y) * width_ + x;
      for (int k = 0; k < 21; ++k)
        d[static_cast<std::size_t>(kTile0 + k) * n + i] = p.tile[k];
      for (int r = 0; r < 6; ++r) {
        d[static_cast<std::size_t>(kWri0 + r) * n + i] = p.wri[r];
        d[static_cast<std::size_t>(kWrj0 + r) * n + i] = p.wrj[r];
        d[static_cast<std::size_t>(kWrk0 + r) * n + i] = p.wrk[r];
      }
      d[static_cast<std::size_t>(kNi) * n + i] = p.ni;
      d[static_cast<std::size_t>(kNj) * n + i] = p.nj;
      d[static_cast<std::size_t>(kNk) * n + i] = p.nk;
      d[static_cast<std::size_t>(kWi) * n + i] = p.wi;
      d[static_cast<std::size_t>(kWj) * n + i] = p.wj;
    }
  });
}

void MatchPrecompute::accumulate_window(int x, int y, int rx, int ry,
                                        WindowInvariants& out) const {
  const int w = width_;
  const int h = height_;
  const bool interior =
      x - rx >= 0 && x + rx < w && y - ry >= 0 && y + ry < h;
  // Plane-at-a-time in the two-level order: each template row sums from
  // 0.0 in u order, then the row subtotals add in v order.  Each slot's
  // sum is independent of the others, so one contiguous plane at a time
  // keeps every slot's order and stays cache-friendly.
  for (int k = 0; k < 21; ++k) {
    const double* SMA_RESTRICT const t = plane(kTile0 + k);
    double acc = 0.0;
    for (int v = -ry; v <= ry; ++v) {
      const std::size_t off =
          static_cast<std::size_t>(std::clamp(y + v, 0, h - 1)) * w;
      double row = 0.0;
      if (interior) {
        for (int px = x - rx; px <= x + rx; ++px) row += t[off + px];
      } else {
        for (int u = -rx; u <= rx; ++u)
          row += t[off + std::clamp(x + u, 0, w - 1)];
      }
      acc += row;
    }
    out.ata[k] = acc;
  }
  out.rows = 3ull * (2 * rx + 1) * static_cast<std::uint64_t>(2 * ry + 1);
}

double evaluate_hypothesis_precomputed(const MatchPrecompute& pre,
                                       const surface::GeometricField& after,
                                       const WindowInvariants& win,
                                       const SemiFluidTable* table, int x,
                                       int y, int hx, int hy, int rx, int ry,
                                       MotionParams& params_out,
                                       bool& ok_out) {
  const int w = pre.width();
  const int h = pre.height();
  const double* SMA_RESTRICT const ni_p = pre.plane(MatchPrecompute::kNi);
  const double* SMA_RESTRICT const nj_p = pre.plane(MatchPrecompute::kNj);
  const double* SMA_RESTRICT const nk_p = pre.plane(MatchPrecompute::kNk);
  const double* SMA_RESTRICT const wi_p = pre.plane(MatchPrecompute::kWi);
  const double* SMA_RESTRICT const wj_p = pre.plane(MatchPrecompute::kWj);
  const double* rows_p[18];
  for (int t = 0; t < 18; ++t)
    rows_p[t] = pre.plane(MatchPrecompute::kWri0 + t);

  // The two-level order: each template row sums into row_atb / row_btb
  // from 0.0 in u order, then the row subtotals add into atb / btb in v
  // order.
  linalg::Vec6 atb;
  double btb = 0.0;
  linalg::Vec6 row_atb;
  double row_btb = 0.0;
  // The one A^T b / b^T b accumulation: template pixel i (before-frame
  // index) against its correspondent's after-frame normal (oi, oj, ok).
  const auto add = [&](std::size_t i, float oi, float oj, float ok) {
    const double bi = static_cast<double>(oi) - ni_p[i];
    const double bj = static_cast<double>(oj) - nj_p[i];
    const double bk = static_cast<double>(ok) - nk_p[i];
    for (int r = 0; r < 6; ++r)
      row_atb[r] += rows_p[r][i] * bi + rows_p[6 + r][i] * bj +
                    rows_p[12 + r][i] * bk;
    row_btb += wi_p[i] * (bi * bi) + wj_p[i] * (bj * bj) + bk * bk;
  };

  const bool interior = table == nullptr && x - rx >= 0 && x + rx < w &&
                        y - ry >= 0 && y + ry < h && x - rx + hx >= 0 &&
                        x + rx + hx < w && y - ry + hy >= 0 &&
                        y + ry + hy < h;
  const int col = table != nullptr ? hx + table->hx_radius() : 0;
  for (int v = -ry; v <= ry; ++v) {
    const int py = std::clamp(y + v, 0, h - 1);
    const std::size_t off = static_cast<std::size_t>(py) * w;
    row_atb = linalg::Vec6{};
    row_btb = 0.0;
    if (table != nullptr) {
      // F_semi: template pixel p's correspondent is p + M_h(p), read
      // with the naive path's clamp.
      for (int u = -rx; u <= rx; ++u) {
        const int px = std::clamp(x + u, 0, w - 1);
        const std::uint8_t c = table->codes(px, py, hy)[col];
        const int qx = std::clamp(px + hx + table->code_dx(c), 0, w - 1);
        const int qy = std::clamp(py + hy + table->code_dy(c), 0, h - 1);
        add(off + px, after.ni.row(qy)[qx], after.nj.row(qy)[qx],
            after.nk.row(qy)[qx]);
      }
    } else {
      const int qy = std::clamp(py + hy, 0, h - 1);
      const float* SMA_RESTRICT const a_ni = after.ni.row(qy);
      const float* SMA_RESTRICT const a_nj = after.nj.row(qy);
      const float* SMA_RESTRICT const a_nk = after.nk.row(qy);
      if (interior) {
        // Branch-free contiguous sweep: px walks [x-rx, x+rx] and the
        // correspondent column is px + hx.
        for (int px = x - rx; px <= x + rx; ++px)
          add(off + px, a_ni[px + hx], a_nj[px + hx], a_nk[px + hx]);
      } else {
        for (int u = -rx; u <= rx; ++u) {
          const int px = std::clamp(x + u, 0, w - 1);
          const int qx = std::clamp(px + hx, 0, w - 1);
          add(off + px, a_ni[qx], a_nj[qx], a_nk[qx]);
        }
      }
    }
    atb += row_atb;
    btb += row_btb;
  }
  // The moments go into a zero-initialized NormalEquations6 exactly as
  // the naive evaluate_pixel_hypothesis builds them, so the solve and the
  // Eq. (3) residual (theta = 0 when singular) see the same bits.
  linalg::NormalEquations6 ne;
  ne.add_precomputed(win.ata, atb, btb, win.rows);
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

}  // namespace sma::core
