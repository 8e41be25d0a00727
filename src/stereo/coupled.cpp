#include "stereo/coupled.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/backend.hpp"
#include "core/pipeline.hpp"
#include "imaging/convolve.hpp"
#include "imaging/warp.hpp"

namespace sma::stereo {

namespace {

// Forward prediction: the disparity observed at p in t0 should reappear
// at p + flow(p) in t1 (cloud parcels carry their height).  Splat with
// the forward advection kernel; gaps keep the measured value.
imaging::ImageF advect_disparity(const imaging::ImageF& d0,
                                 const imaging::FlowField& flow) {
  return imaging::advect(d0, flow);
}

// Backward prediction for t0: sample d1 at p + flow(p).
imaging::ImageF backtrace_disparity(const imaging::ImageF& d1,
                                    const imaging::FlowField& flow) {
  return imaging::warp_by_flow(d1, flow);
}

double mean_abs_diff(const imaging::ImageF& a, const imaging::ImageF& b) {
  double sum = 0.0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      sum += std::abs(static_cast<double>(a.at(x, y)) - b.at(x, y));
  return sum / static_cast<double>(a.size());
}

}  // namespace

CoupledResult coupled_stereo_motion(const imaging::ImageF& left0,
                                    const imaging::ImageF& right0,
                                    const imaging::ImageF& left1,
                                    const imaging::ImageF& right1,
                                    const goes::SatelliteGeometry& geometry,
                                    const CoupledOptions& options) {
  if (options.iterations < 1)
    throw std::invalid_argument("coupled_stereo_motion: iterations >= 1");
  if (options.blend < 0.0 || options.blend > 1.0)
    throw std::invalid_argument("coupled_stereo_motion: blend in [0, 1]");

  CoupledResult result;

  // Stage 1: independent stereo measurements (kept as the fusion anchor).
  const DisparityMap m0 = asa_disparity(left0, right0, options.stereo);
  const DisparityMap m1 = asa_disparity(left1, right1, options.stereo);
  result.disparity0 = m0.disparity;
  result.disparity1 = m1.disparity;

  // One pipeline across the coupling iterations: the height surfaces are
  // refit each pass, but the intensity frames never change, so their
  // geometry (semi-fluid discriminants) is fitted exactly once.
  core::PipelineOptions popts;
  popts.backend = options.backend;
  popts.track = options.track;
  core::SmaPipeline pipeline(options.motion, std::move(popts));

  for (int iter = 0; iter < options.iterations; ++iter) {
    // Stage 2: motion with the current surfaces.
    imaging::ImageF z0 =
        goes::heights_from_disparity(result.disparity0, geometry);
    imaging::ImageF z1 =
        goes::heights_from_disparity(result.disparity1, geometry);
    if (options.height_smoothing_sigma > 0.0) {
      z0 = imaging::gaussian_blur(z0, options.height_smoothing_sigma);
      z1 = imaging::gaussian_blur(z1, options.height_smoothing_sigma);
    }
    core::TrackerInput in;
    in.intensity_before = &left0;
    in.intensity_after = &left1;
    in.surface_before = &z0;
    in.surface_after = &z1;
    core::TrackResult tracked = pipeline.track_pair(in);
    result.flow = std::move(tracked.flow);

    // Stage 3: temporal fusion against the ORIGINAL measurements (the
    // anchor keeps repeated blending from drifting).
    const imaging::ImageF pred1 =
        advect_disparity(result.disparity0, result.flow);
    const imaging::ImageF pred0 =
        backtrace_disparity(result.disparity1, result.flow);
    imaging::ImageF next0(left0.width(), left0.height());
    imaging::ImageF next1(left0.width(), left0.height());
    const double b = options.blend;
    for (int y = 0; y < left0.height(); ++y)
      for (int x = 0; x < left0.width(); ++x) {
        next1.at(x, y) = static_cast<float>(b * m1.disparity.at(x, y) +
                                            (1.0 - b) * pred1.at(x, y));
        next0.at(x, y) = static_cast<float>(b * m0.disparity.at(x, y) +
                                            (1.0 - b) * pred0.at(x, y));
      }
    const double update = 0.5 * (mean_abs_diff(next0, result.disparity0) +
                                 mean_abs_diff(next1, result.disparity1));
    result.disparity_updates.push_back(update);
    result.disparity0 = std::move(next0);
    result.disparity1 = std::move(next1);
  }
  return result;
}

}  // namespace sma::stereo
