// helpers.hpp — shared fixtures for the SMA test suite.
#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <string>

#include "core/backend.hpp"
#include "core/tracker.hpp"
#include "imaging/flow.hpp"
#include "imaging/image.hpp"
#include "sched/scheduler.hpp"
#include "surface/geometry.hpp"

namespace sma::testing {

/// Fills an image from an analytic function f(x, y).
inline imaging::ImageF make_image(
    int w, int h, const std::function<double(double, double)>& f) {
  imaging::ImageF img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.at(x, y) = static_cast<float>(f(x, y));
  return img;
}

/// Quadratic surface z = c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2.
inline imaging::ImageF quadratic_surface(int w, int h, double c0, double c1,
                                         double c2, double c3, double c4,
                                         double c5) {
  return make_image(w, h, [=](double x, double y) {
    return c0 + c1 * x + c2 * y + c3 * x * x + c4 * x * y + c5 * y * y;
  });
}

/// Textured test pattern with broadband structure (sum of incommensurate
/// sinusoids) — deterministic, mean ~128, good for correlation matching.
inline imaging::ImageF textured_pattern(int w, int h, double phase = 0.0) {
  return make_image(w, h, [=](double x, double y) {
    return 128.0 + 40.0 * std::sin(0.35 * x + 0.1 * y + phase) +
           30.0 * std::cos(0.23 * y - 0.07 * x + 2.0 * phase) +
           20.0 * std::sin(0.11 * (x + y) + 0.5 + phase) +
           10.0 * std::cos(0.53 * x - 0.29 * y + 1.3);
  });
}

/// Shifts an image by an integer offset with clamped borders:
/// out(x, y) = src(x - dx, y - dy), so features move by (+dx, +dy).
inline imaging::ImageF shift_image(const imaging::ImageF& src, int dx,
                                   int dy) {
  imaging::ImageF out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y)
    for (int x = 0; x < src.width(); ++x)
      out.at(x, y) = src.at_clamped(x - dx, y - dy);
  return out;
}

/// Constant dense flow field.
inline imaging::FlowField constant_flow(int w, int h, float u, float v) {
  imaging::FlowField f(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      f.set(x, y, imaging::FlowVector{u, v, 0.0f, 1});
  return f;
}

/// Fraction of interior pixels whose integer flow equals (u, v).
inline double flow_match_fraction(const imaging::FlowField& flow, int u,
                                  int v, int margin) {
  int total = 0, hit = 0;
  for (int y = margin; y < flow.height() - margin; ++y)
    for (int x = margin; x < flow.width() - margin; ++x) {
      ++total;
      const imaging::FlowVector f = flow.at(x, y);
      if (static_cast<int>(f.u) == u && static_cast<int>(f.v) == v) ++hit;
    }
  return total > 0 ? static_cast<double>(hit) / total : 0.0;
}

/// Resizes the shared sched pool for one scope, then restores its
/// width: the pool's width is the only thread setting, so a test runs
/// at N threads by holding a PoolWidth(N).
class PoolWidth {
 public:
  explicit PoolWidth(int threads)
      : saved_(sched::ThreadPool::shared().threads()) {
    sched::ThreadPool::shared().resize(threads);
  }
  ~PoolWidth() { sched::ThreadPool::shared().resize(saved_); }
  PoolWidth(const PoolWidth&) = delete;
  PoolWidth& operator=(const PoolWidth&) = delete;

 private:
  int saved_;
};

/// A pair as the naive evaluator sees it: a MatchInput without
/// precompute planes, over geometry that surface::compute_geometry fits
/// as SmaPipeline fits it, with the pair's masks, raw frames and seeds
/// forwarded.  SmaPipeline gives every unmasked pair planes, so a test
/// reaches the naive evaluator on one through match(), which runs a
/// backend's match() on this input — bit-comparable with
/// SmaPipeline(cfg).track_pair(in) on any backend.  Not copyable:
/// input() points into the pair.
class PlanelessPair {
 public:
  PlanelessPair(const core::TrackerInput& in, const core::SmaConfig& cfg) {
    surface::GeometryOptions gopts;
    gopts.patch_radius = cfg.surface_fit_radius;
    const auto fit = [&](const imaging::ImageF* img) {
      return surface::compute_geometry(*img, gopts);
    };
    before_ = fit(in.surface_before);
    after_ = fit(in.surface_after);
    input_.before = &before_;
    input_.after = &after_;
    if (cfg.effective_nss() > 0) {
      // A monocular pair's intensity is its surface.
      if (in.intensity_before != in.surface_before)
        intensity_before_ = fit(in.intensity_before);
      if (in.intensity_after != in.surface_after)
        intensity_after_ = fit(in.intensity_after);
      input_.disc_before =
          intensity_before_ ? &intensity_before_->disc : &before_.disc;
      input_.disc_after =
          intensity_after_ ? &intensity_after_->disc : &after_.disc;
    }
    input_.mask_before = in.validity_before;
    input_.mask_after = in.validity_after;
    input_.raw_before = in.surface_before;
    input_.raw_after = in.surface_after;
    input_.prune_seeds = in.prune_seeds;
  }
  PlanelessPair(const PlanelessPair&) = delete;
  PlanelessPair& operator=(const PlanelessPair&) = delete;

  const core::MatchInput& input() const { return input_; }

  core::TrackResult match(const std::string& backend,
                          const core::SmaConfig& cfg,
                          const core::TrackOptions& options = {}) const {
    return core::BackendRegistry::instance().get(backend).match(input_, cfg,
                                                                options);
  }

 private:
  surface::GeometricField before_, after_;
  std::optional<surface::GeometricField> intensity_before_, intensity_after_;
  core::MatchInput input_;
};

}  // namespace sma::testing
