#include "stereo/asa.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "imaging/pyramid.hpp"
#include "imaging/warp.hpp"
#include "sched/scheduler.hpp"

namespace sma::stereo {

double ncc(const imaging::ImageF& left, const imaging::ImageF& right, int xl,
           int y, double d, int radius) {
  double sl = 0.0, sr = 0.0;
  const int n = (2 * radius + 1) * (2 * radius + 1);
  // First pass: means.
  for (int v = -radius; v <= radius; ++v)
    for (int u = -radius; u <= radius; ++u) {
      sl += left.at_clamped(xl + u, y + v);
      sr += imaging::bilinear(right, xl + d + u, y + v);
    }
  const double ml = sl / n;
  const double mr = sr / n;
  double num = 0.0, dl = 0.0, dr = 0.0;
  for (int v = -radius; v <= radius; ++v)
    for (int u = -radius; u <= radius; ++u) {
      const double a = left.at_clamped(xl + u, y + v) - ml;
      const double b = imaging::bilinear(right, xl + d + u, y + v) - mr;
      num += a * b;
      dl += a * a;
      dr += b * b;
    }
  const double den = std::sqrt(dl * dr);
  if (den < 1e-9) return 0.0;  // textureless: no information
  return num / den;
}

DisparityMap match_level(const imaging::ImageF& left,
                         const imaging::ImageF& right,
                         const imaging::ImageF& prior, int range,
                         const AsaOptions& opts) {
  const int w = left.width();
  const int h = left.height();
  DisparityMap out;
  out.disparity = imaging::ImageF(w, h, 0.0f);
  out.correlation = imaging::ImageF(w, h, 0.0f);
  out.valid = imaging::Image<unsigned char>(w, h, 0);

  // Rows run as bands on the shared sched pool; each row writes only its
  // own output pixels, so the maps are identical at any thread count.
  sched::for_each_row(h, w, /*parallel=*/true, [&](int y) {
    for (int x = 0; x < w; ++x) {
      const double d0 = prior.at(x, y);
      double best_c = -std::numeric_limits<double>::infinity();
      int best_k = 0;
      // Integer search around the prior; correlations cached for the
      // parabolic refinement below.
      std::vector<double> corr(static_cast<std::size_t>(2 * range + 1));
      for (int k = -range; k <= range; ++k) {
        const double c = ncc(left, right, x, y, d0 + k, opts.template_radius);
        corr[static_cast<std::size_t>(k + range)] = c;
        if (c > best_c) {
          best_c = c;
          best_k = k;
        }
      }
      double d = d0 + best_k;
      if (opts.subpixel && best_k > -range && best_k < range) {
        const double cm = corr[static_cast<std::size_t>(best_k - 1 + range)];
        const double cc = corr[static_cast<std::size_t>(best_k + range)];
        const double cp = corr[static_cast<std::size_t>(best_k + 1 + range)];
        const double denom = cm - 2.0 * cc + cp;
        if (std::abs(denom) > 1e-12) {
          double delta = 0.5 * (cm - cp) / denom;
          delta = std::clamp(delta, -0.5, 0.5);
          d += delta;
        }
      }
      out.disparity.at(x, y) = static_cast<float>(d);
      out.correlation.at(x, y) = static_cast<float>(best_c);
      out.valid.at(x, y) = best_c >= opts.min_correlation ? 1 : 0;
    }
  });
  return out;
}

DisparityMap asa_disparity(const imaging::ImageF& left,
                           const imaging::ImageF& right,
                           const AsaOptions& opts) {
  const imaging::Pyramid pl(left, opts.levels);
  const imaging::Pyramid pr(right, opts.levels);
  const int top = pl.levels() - 1;

  // Coarsest level: full-range search from a zero prior.
  imaging::ImageF prior(pl.level(top).width(), pl.level(top).height(), 0.0f);
  DisparityMap cur =
      match_level(pl.level(top), pr.level(top), prior, opts.max_disparity, opts);

  // Coarse-to-fine: upsample (disparity doubles with resolution) and
  // search a small residual range around the propagated estimate.
  for (int lev = top - 1; lev >= 0; --lev) {
    const imaging::ImageF& l = pl.level(lev);
    const imaging::ImageF& r = pr.level(lev);
    prior = imaging::upsample_to(cur.disparity, l.width(), l.height(), 2.0);
    cur = match_level(l, r, prior, opts.refine_range, opts);
  }

  if (opts.lr_consistency) {
    // Match the other direction at full resolution and cross-check.
    imaging::ImageF zero(left.width(), left.height(), 0.0f);
    AsaOptions ropts = opts;
    ropts.lr_consistency = false;
    // Right-to-left disparity: swap roles; search range must cover the
    // full plausible disparity at level 0.
    const int full_range = opts.max_disparity * (1 << (pl.levels() - 1));
    DisparityMap rl = match_level(right, left, zero, full_range, ropts);
    for (int y = 0; y < left.height(); ++y)
      for (int x = 0; x < left.width(); ++x) {
        if (!cur.valid.at(x, y)) continue;
        const double dl = cur.disparity.at(x, y);
        const int xr = static_cast<int>(std::lround(x + dl));
        if (!rl.disparity.contains(xr, y)) {
          cur.valid.at(x, y) = 0;
          continue;
        }
        const double dr = rl.disparity.at(xr, y);
        if (std::abs(dl + dr) > opts.lr_threshold) cur.valid.at(x, y) = 0;
      }
  }
  return cur;
}

}  // namespace sma::stereo
