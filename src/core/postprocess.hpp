// postprocess.hpp — robust post-processing of dense motion fields.
//
// The paper's conclusion lists "improving the accuracy of the estimated
// motion field by using robust estimation, relaxation labeling or
// regularization, and post processing the motion field" as future work
// (Sec. 6).  This module implements those techniques over the tracker's
// FlowField output:
//
//  * vector_median_filter — the classical robust vector filter: each
//    pixel is replaced by the window vector minimizing the summed L2
//    distance to all other window vectors.  Kills isolated outliers
//    without blurring motion discontinuities (multi-layer cloud edges).
//  * error_outlier_mask — robust (median + k*MAD) thresholding of the
//    per-pixel residual channel; flags unreliable matches invalid.
//  * fill_invalid — replaces invalid vectors with the vector median of
//    the valid neighbors (iterated until the field is dense again).
//  * gaussian_smooth — validity- and confidence-weighted Gaussian
//    regularization (the "regularization" option; heavier smoothing,
//    sub-pixel output).
//  * relaxation_label — discrete relaxation labeling: each pixel's
//    candidate set is the flow vectors present in its neighborhood, and
//    iterations reassign each pixel the candidate with maximum
//    neighborhood support under a Gaussian compatibility kernel.
//    Converges to locally consistent labelings while preserving layer
//    boundaries better than averaging.
#pragma once

#include "imaging/flow.hpp"

namespace sma::core {

/// Vector median over a (2*radius+1)^2 window (valid pixels only; the
/// center keeps its vector if no valid neighbor exists).
imaging::FlowField vector_median_filter(const imaging::FlowField& flow,
                                        int radius);

/// Marks pixels whose residual error exceeds median + k * MAD as
/// invalid.  Returns the number of pixels invalidated.
std::size_t error_outlier_mask(imaging::FlowField& flow, double k = 3.0);

/// Fills invalid pixels from the vector median of valid neighbors within
/// `radius`; repeats up to `max_iterations` sweeps.  Returns the number
/// of pixels still invalid afterwards.
std::size_t fill_invalid(imaging::FlowField& flow, int radius,
                         int max_iterations = 8);

/// Gaussian regularization with weights = validity * exp(-error/scale);
/// `error_scale` <= 0 disables error weighting.
imaging::FlowField gaussian_smooth(const imaging::FlowField& flow,
                                   double sigma, double error_scale = 0.0);

/// Discrete relaxation labeling (see header comment).  `sigma` sets the
/// compatibility kernel width in pixels of flow difference.
imaging::FlowField relaxation_label(const imaging::FlowField& flow,
                                    int radius, int iterations,
                                    double sigma = 0.75);

/// Convenience pipeline: outlier mask -> fill -> vector median — the
/// "robust estimation" recipe used by the examples and benches.
imaging::FlowField robust_postprocess(const imaging::FlowField& flow,
                                      double outlier_k = 3.0,
                                      int median_radius = 1);

}  // namespace sma::core
