// coupled.hpp — coupled stereo and motion analysis.
//
// The paper estimates stereo and motion independently and lists
// "coupling stereo and motion estimation" as future work (Sec. 6),
// citing the authors' ICCV'95 companion paper [10] ("Coupled,
// multi-resolution stereo and motion analysis").  This module implements
// the coupling loop:
//
//   1. ASA disparity maps d(t0), d(t1) from the rectified pairs;
//   2. SMA motion on the left intensity sequence, using the current
//      heights as the z-surface;
//   3. temporal disparity fusion: d(t0) advected along the motion field
//      predicts d(t1); the prediction is blended with the measured map
//      (and symmetrically backward for d(t0)), damping correlator noise
//      that is uncorrelated across time;
//   4. repeat — better surfaces give better motion gives better fusion.
//
// The benches show the fused disparity beats the independent estimate
// whenever the stereo measurement is noisy (bench: coupled ablation).
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/tracker.hpp"
#include "goes/geometry.hpp"
#include "stereo/asa.hpp"

namespace sma::stereo {

struct CoupledOptions {
  AsaOptions stereo;
  core::SmaConfig motion;
  core::TrackOptions track;
  int iterations = 2;
  /// Weight of the measured disparity in the temporal fusion; (1-blend)
  /// goes to the motion-compensated prediction from the other time step.
  double blend = 0.5;
  /// Gaussian smoothing applied to heights before the motion stage.
  double height_smoothing_sigma = 1.0;
  /// Registry name of the motion backend.
  std::string backend = "sequential";
};

struct CoupledResult {
  imaging::ImageF disparity0, disparity1;  ///< fused disparity maps
  imaging::FlowField flow;                 ///< final motion field
  /// Mean absolute disparity update per iteration (convergence trace).
  std::vector<double> disparity_updates;
};

CoupledResult coupled_stereo_motion(const imaging::ImageF& left0,
                                    const imaging::ImageF& right0,
                                    const imaging::ImageF& left1,
                                    const imaging::ImageF& right1,
                                    const goes::SatelliteGeometry& geometry,
                                    const CoupledOptions& options);

}  // namespace sma::stereo
