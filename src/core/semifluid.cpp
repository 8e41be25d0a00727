#include "core/semifluid.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sched/scheduler.hpp"

namespace sma::core {

namespace {

// Border semantics shared by the direct and precomputed paths: the
// template coordinate t = p + s clamps into the image first, then the
// offset candidate reads D'(t + o) with its own clamp.  This composition
// makes the box-filtered layers bit-identical to the direct sum.
inline std::pair<int, int> clamp_coord(const imaging::ImageF& img, int x,
                                       int y) {
  return {std::clamp(x, 0, img.width() - 1),
          std::clamp(y, 0, img.height() - 1)};
}

inline double sq_diff(const imaging::ImageF& disc_before,
                      const imaging::ImageF& disc_after, int tx, int ty,
                      int ox, int oy) {
  const double d = disc_after.at_clamped(tx + ox, ty + oy) -
                   disc_before.at(tx, ty);
  return d * d;
}

// Returns true when candidate (dx2, dy2) should replace (dx1, dy1) on an
// equal-cost tie: prefer the smaller displacement from the window center,
// then raster order.
inline bool tie_prefers(int dx1, int dy1, int dx2, int dy2) {
  const int m1 = std::abs(dx1) + std::abs(dy1);
  const int m2 = std::abs(dx2) + std::abs(dy2);
  if (m2 != m1) return m2 < m1;
  if (dy2 != dy1) return dy2 < dy1;
  return dx2 < dx1;
}

}  // namespace

double semifluid_cost(const imaging::ImageF& disc_before,
                      const imaging::ImageF& disc_after, int px, int py,
                      int qx, int qy, int nst) {
  const int ox = qx - px;
  const int oy = qy - py;
  // Row-grouped accumulation: identical floating-point ordering to the
  // separable box sums in SemiFluidCostField, so the precomputed and
  // direct paths agree bit for bit.
  double sum = 0.0;
  for (int sy = -nst; sy <= nst; ++sy) {
    const auto [unused_x, ty] = clamp_coord(disc_before, px, py + sy);
    (void)unused_x;
    double rowsum = 0.0;
    for (int sx = -nst; sx <= nst; ++sx) {
      const auto [tx, unused_y] = clamp_coord(disc_before, px + sx, py);
      (void)unused_y;
      rowsum += sq_diff(disc_before, disc_after, tx, ty, ox, oy);
    }
    sum += rowsum;
  }
  const int n = (2 * nst + 1) * (2 * nst + 1);
  return sum / n;
}

std::pair<int, int> semifluid_match(const imaging::ImageF& disc_before,
                                    const imaging::ImageF& disc_after,
                                    int px, int py, int cx, int cy, int nss,
                                    int nst) {
  double best = std::numeric_limits<double>::infinity();
  int bx = cx, by = cy;
  for (int dy = -nss; dy <= nss; ++dy)
    for (int dx = -nss; dx <= nss; ++dx) {
      const double c =
          semifluid_cost(disc_before, disc_after, px, py, cx + dx, cy + dy, nst);
      const int cur_dx = bx - cx, cur_dy = by - cy;
      if (c < best ||
          (c == best && tie_prefers(cur_dx, cur_dy, dx, dy))) {
        best = c;
        bx = cx + dx;
        by = cy + dy;
      }
    }
  return {bx, by};
}

SemiFluidCostField::SemiFluidCostField(const imaging::ImageF& disc_before,
                                       const imaging::ImageF& disc_after,
                                       int ox_radius, int oy_min, int oy_max,
                                       int nst, int row_min, int row_max)
    : ox_radius_(ox_radius), oy_min_(oy_min), oy_max_(oy_max) {
  const int w = disc_before.width();
  const int h = disc_before.height();
  if (row_max < 0) row_max = h - 1;
  assert(oy_min <= oy_max);
  assert(row_min >= 0 && row_min <= row_max && row_max < h);
  const int n = (2 * nst + 1) * (2 * nst + 1);
  const std::size_t layer_count =
      static_cast<std::size_t>(2 * ox_radius + 1) *
      static_cast<std::size_t>(oy_max - oy_min + 1);
  layers_.reserve(layer_count);

  // Separable box sum with clamped template coordinates: the horizontal
  // pass accumulates sq at clamped x+sx, the vertical pass at clamped
  // y+sy — the same composition and double-precision grouping as the
  // direct sum in semifluid_cost.  The horizontal pass covers only the
  // rows [r0, r1] the vertical pass reads for [row_min, row_max].
  const int r0 = std::max(0, row_min - nst);
  const int r1 = std::min(h - 1, row_max + nst);
  // One row of squared discriminant changes, padded by its clamped edge
  // values so that padded[x + sx] is sq at clamp(x + sx).
  std::vector<double> sq(static_cast<std::size_t>(w + 2 * nst));
  double* const padded = sq.data() + nst;
  imaging::ImageD rowsum(w, r1 - r0 + 1);
  // Both passes run tap-outer / x-inner: every output still sums its taps
  // in ascending order from 0.0, while the x loops vectorize.
  for (int oy = oy_min; oy <= oy_max; ++oy) {
    for (int ox = -ox_radius; ox <= ox_radius; ++ox) {
      for (int y = r0; y <= r1; ++y) {
        // sq_diff with the row lookups hoisted out of the x loop.  Only
        // x + ox outside [0, w) clamps, so the interior [lo, hi) reads
        // after_row unclamped and vectorizes.
        const float* const before_row = disc_before.row(y);
        const float* const after_row =
            disc_after.row(std::clamp(y + oy, 0, h - 1));
        const int lo = std::clamp(-ox, 0, w);
        const int hi = std::clamp(w - ox, lo, w);
        const auto sq_at = [&](int x, float after) {
          const double d = after - before_row[x];
          padded[x] = d * d;
        };
        for (int x = 0; x < lo; ++x) sq_at(x, after_row[0]);
        for (int x = lo; x < hi; ++x) sq_at(x, after_row[x + ox]);
        for (int x = hi; x < w; ++x) sq_at(x, after_row[w - 1]);
        for (int e = 1; e <= nst; ++e) {
          padded[-e] = padded[0];
          padded[w - 1 + e] = padded[w - 1];
        }
        double* const out = rowsum.row(y - r0);
        std::fill(out, out + w, 0.0);
        for (int sx = -nst; sx <= nst; ++sx)
          for (int x = 0; x < w; ++x) out[x] += padded[x + sx];
      }
      imaging::ImageD layer(w, row_max - row_min + 1);
      for (int y = row_min; y <= row_max; ++y) {
        double* const out = layer.row(y - row_min);
        std::fill(out, out + w, 0.0);
        for (int sy = -nst; sy <= nst; ++sy) {
          const double* const tap =
              rowsum.row(std::clamp(y + sy, 0, h - 1) - r0);
          for (int x = 0; x < w; ++x) out[x] += tap[x];
        }
        for (int x = 0; x < w; ++x) out[x] /= n;
      }
      layers_.push_back(std::move(layer));
    }
  }
}

std::size_t SemiFluidCostField::layer_index(int ox, int oy) const {
  assert(oy >= oy_min_ && oy <= oy_max_);
  assert(ox >= -ox_radius_ && ox <= ox_radius_);
  return static_cast<std::size_t>(oy - oy_min_) *
             static_cast<std::size_t>(2 * ox_radius_ + 1) +
         static_cast<std::size_t>(ox + ox_radius_);
}

std::size_t SemiFluidCostField::bytes() const {
  std::size_t b = 0;
  for (const auto& l : layers_) b += l.size() * sizeof(double);
  return b;
}

SemiFluidTable::SemiFluidTable(const imaging::ImageF& disc_before,
                               const imaging::ImageF& disc_after,
                               int hx_radius, int hy_min, int hy_max, int nss,
                               int nst, bool parallel)
    : width_(disc_before.width()),
      height_(disc_before.height()),
      hx_radius_(hx_radius),
      hy_min_(hy_min),
      hy_max_(hy_max),
      nss_(nss) {
  if (nss < 0 || nss > kMaxNss)
    throw std::invalid_argument("SemiFluidTable: N_ss out of range");
  assert(hx_radius >= 0 && hy_min <= hy_max);
  const int k = 2 * nss + 1;
  for (int c = 0; c < k * k; ++c) {
    dx_[c] = static_cast<std::int8_t>(c % k - nss);
    dy_[c] = static_cast<std::int8_t>(c / k - nss);
  }
  const std::uint8_t centre = static_cast<std::uint8_t>(nss * k + nss);
  // Window codes, the one preferred on an exact cost tie first.
  std::vector<std::uint8_t> preference(static_cast<std::size_t>(k * k));
  std::iota(preference.begin(), preference.end(), std::uint8_t{0});
  std::sort(preference.begin(), preference.end(),
            [&](std::uint8_t a, std::uint8_t b) {
              return tie_prefers(dx_[b], dy_[b], dx_[a], dy_[a]);
            });
  const std::size_t nhx = static_cast<std::size_t>(2 * hx_radius + 1);
  const std::size_t npix = static_cast<std::size_t>(width_) * height_;
  codes_.resize(static_cast<std::size_t>(hy_max - hy_min + 1) * npix * nhx);

  // One task per strip of kStripRows pixel rows [y0, y1): its entries
  // through a rolling band of single-offset-row cost fields over those
  // rows.  Offset rows [hy - nss, hy + nss] are resident while
  // hypothesis row hy is resolved, each is built once, and the full
  // field never exists.  A strip reads only the shared discriminants
  // and writes only its own code rows and band high-water slot, so the
  // table is the same at every pool width.
  const std::vector<sched::Tile> strips = sched::make_tiles(
      width_, height_, sched::TileShape{width_, kStripRows});
  std::vector<std::size_t> strip_band(strips.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto build_strip = [&](const sched::Tile& strip, std::size_t index) {
    const std::size_t spix = strip.pixels();
    std::vector<double> best(spix);
    std::vector<std::uint8_t> winner(spix);
    std::size_t high_water = 0;
    std::deque<SemiFluidCostField> band;
    for (int hy = hy_min; hy <= hy_max; ++hy) {
      while (!band.empty() && band.front().oy_min() < hy - nss)
        band.pop_front();
      for (int oy = band.empty() ? hy - nss : band.back().oy_max() + 1;
           oy <= hy + nss; ++oy)
        band.emplace_back(disc_before, disc_after, hx_radius + nss, oy, oy,
                          nst, strip.y0, strip.y1 - 1);
      std::size_t held = 0;
      for (const SemiFluidCostField& row : band) held += row.bytes();
      high_water = std::max(high_water, held);

      for (int hx = -hx_radius; hx <= hx_radius; ++hx) {
        const auto layer = [&](std::uint8_t code) {
          return band[static_cast<std::size_t>(dy_[code] + nss)]
              .layer(hx + dx_[code], hy + dy_[code])
              .data();
        };
        // semifluid_match's argmin for every pixel of the strip at once,
        // as two passes that vectorize: the least cost over the window,
        // then the first code in preference order that attains it
        // (walking the codes in reverse, the last write wins).  NaN
        // costs never win either pass.  The best < inf guard keeps the
        // window centre when no cost is finite, as semifluid_match does: it
        // starts at the centre, which an infinite cost neither beats
        // nor displaces on the tie-break.
        std::fill(best.begin(), best.end(), kInf);
        for (const std::uint8_t code : preference) {
          const double* const c = layer(code);
          for (std::size_t i = 0; i < spix; ++i)
            best[i] = c[i] < best[i] ? c[i] : best[i];
        }
        std::fill(winner.begin(), winner.end(), centre);
        for (auto it = preference.rbegin(); it != preference.rend(); ++it) {
          const std::uint8_t code = *it;
          const double* const c = layer(code);
          for (std::size_t i = 0; i < spix; ++i)
            winner[i] =
                (c[i] == best[i]) & (best[i] < kInf) ? code : winner[i];
        }
        std::uint8_t* const out =
            codes_.data() +
            (static_cast<std::size_t>(hy - hy_min) * npix +
             static_cast<std::size_t>(strip.y0) * width_) * nhx +
            static_cast<std::size_t>(hx + hx_radius);
        for (std::size_t i = 0; i < spix; ++i) out[i * nhx] = winner[i];
      }
    }
    strip_band[index] = high_water;
  };
  int executors = 1;
  if (parallel) {
    sched::ThreadPool& pool = sched::ThreadPool::shared();
    pool.run(strips, build_strip);
    executors = std::max(pool.threads(), 1);
  } else {
    for (std::size_t i = 0; i < strips.size(); ++i)
      build_strip(strips[i], i);
  }
  // Up to `executors` strips, each with its own band, are built at once.
  std::size_t strip_high_water = 0;
  for (const std::size_t b : strip_band)
    strip_high_water = std::max(strip_high_water, b);
  band_bytes_ = strip_high_water *
                std::min(strips.size(), static_cast<std::size_t>(executors));
}

}  // namespace sma::core
