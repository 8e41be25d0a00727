#include "core/postprocess.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace sma::core {

namespace {

using imaging::FlowField;
using imaging::FlowVector;

// Collects valid window vectors around (x, y), including the center.
void collect_window(const FlowField& flow, int x, int y, int radius,
                    std::vector<FlowVector>& out) {
  out.clear();
  for (int v = -radius; v <= radius; ++v)
    for (int u = -radius; u <= radius; ++u) {
      const int sx = x + u;
      const int sy = y + v;
      if (sx < 0 || sx >= flow.width() || sy < 0 || sy >= flow.height())
        continue;
      const FlowVector f = flow.at(sx, sy);
      if (f.valid) out.push_back(f);
    }
}

// The vector minimizing the summed L2 distance to all others.
FlowVector vector_median(const std::vector<FlowVector>& window) {
  double best_sum = std::numeric_limits<double>::infinity();
  FlowVector best = window.front();
  for (const FlowVector& cand : window) {
    double sum = 0.0;
    for (const FlowVector& other : window)
      sum += std::hypot(cand.u - other.u, cand.v - other.v);
    if (sum < best_sum) {
      best_sum = sum;
      best = cand;
    }
  }
  return best;
}

double median_of(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

}  // namespace

FlowField vector_median_filter(const FlowField& flow, int radius) {
  FlowField out(flow.width(), flow.height());
  std::vector<FlowVector> window;
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      collect_window(flow, x, y, radius, window);
      if (window.empty()) {
        out.set(x, y, flow.at(x, y));
        continue;
      }
      FlowVector med = vector_median(window);
      // Keep the center's own residual/validity bookkeeping.
      med.error = flow.at(x, y).error;
      med.valid = 1;
      out.set(x, y, med);
    }
  return out;
}

std::size_t error_outlier_mask(FlowField& flow, double k) {
  std::vector<double> errors;
  errors.reserve(flow.count_valid());
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      const FlowVector f = flow.at(x, y);
      if (f.valid) errors.push_back(f.error);
    }
  if (errors.empty()) return 0;
  std::vector<double> copy = errors;
  const double med = median_of(copy);
  std::vector<double> dev;
  dev.reserve(errors.size());
  for (double e : errors) dev.push_back(std::abs(e - med));
  const double mad = median_of(dev);
  // Degenerate case: over half the residuals identical — fall back to a
  // small fraction of the median so a zero MAD doesn't flag everything.
  const double scale = mad > 0.0 ? mad : 0.1 * (med > 0.0 ? med : 1.0);
  const double cutoff = med + k * scale;

  std::size_t masked = 0;
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      FlowVector f = flow.at(x, y);
      if (f.valid && f.error > cutoff) {
        f.valid = 0;
        flow.set(x, y, f);
        ++masked;
      }
    }
  return masked;
}

std::size_t fill_invalid(FlowField& flow, int radius, int max_iterations) {
  std::vector<FlowVector> window;
  for (int iter = 0; iter < max_iterations; ++iter) {
    std::size_t filled = 0;
    FlowField next = flow;
    for (int y = 0; y < flow.height(); ++y)
      for (int x = 0; x < flow.width(); ++x) {
        if (flow.at(x, y).valid) continue;
        collect_window(flow, x, y, radius, window);
        if (window.empty()) continue;
        FlowVector med = vector_median(window);
        med.valid = 1;
        next.set(x, y, med);
        ++filled;
      }
    flow = std::move(next);
    if (filled == 0) break;
  }
  std::size_t remaining = 0;
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x)
      remaining += flow.at(x, y).valid ? 0 : 1;
  return remaining;
}

FlowField gaussian_smooth(const FlowField& flow, double sigma,
                          double error_scale) {
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  FlowField out(flow.width(), flow.height());
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      double su = 0.0, sv = 0.0, sw = 0.0;
      for (int v = -radius; v <= radius; ++v)
        for (int u = -radius; u <= radius; ++u) {
          const int sx = x + u;
          const int sy = y + v;
          if (sx < 0 || sx >= flow.width() || sy < 0 || sy >= flow.height())
            continue;
          const FlowVector f = flow.at(sx, sy);
          if (!f.valid) continue;
          double w = std::exp(-0.5 * (u * u + v * v) / (sigma * sigma));
          if (error_scale > 0.0) w *= std::exp(-f.error / error_scale);
          su += w * f.u;
          sv += w * f.v;
          sw += w;
        }
      FlowVector o = flow.at(x, y);
      if (sw > 0.0) {
        o.u = static_cast<float>(su / sw);
        o.v = static_cast<float>(sv / sw);
        o.valid = 1;
      }
      out.set(x, y, o);
    }
  return out;
}

FlowField relaxation_label(const FlowField& flow, int radius, int iterations,
                           double sigma) {
  FlowField cur = flow;
  std::vector<FlowVector> window;
  const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
  for (int iter = 0; iter < iterations; ++iter) {
    FlowField next = cur;
    bool changed = false;
    for (int y = 0; y < cur.height(); ++y)
      for (int x = 0; x < cur.width(); ++x) {
        collect_window(cur, x, y, radius, window);
        if (window.size() < 2) continue;
        // Each window vector is a candidate label; support is the sum of
        // Gaussian compatibilities with all window vectors.
        double best_support = -1.0;
        FlowVector best = cur.at(x, y);
        for (const FlowVector& cand : window) {
          double support = 0.0;
          for (const FlowVector& other : window) {
            const double du = cand.u - other.u;
            const double dv = cand.v - other.v;
            support += std::exp(-(du * du + dv * dv) * inv2s2);
          }
          if (support > best_support) {
            best_support = support;
            best = cand;
          }
        }
        const FlowVector old = cur.at(x, y);
        if (best.u != old.u || best.v != old.v) {
          FlowVector o = old;
          o.u = best.u;
          o.v = best.v;
          o.valid = 1;
          next.set(x, y, o);
          changed = true;
        }
      }
    cur = std::move(next);
    if (!changed) break;
  }
  return cur;
}

FlowField robust_postprocess(const FlowField& flow, double outlier_k,
                             int median_radius) {
  FlowField work = flow;
  error_outlier_mask(work, outlier_k);
  fill_invalid(work, std::max(1, median_radius));
  return vector_median_filter(work, median_radius);
}

}  // namespace sma::core
