// sma.hpp — umbrella header for the Semi-fluid Motion Analysis library.
//
// Typical use:
//
//   #include "core/sma.hpp"
//
//   sma::core::SmaConfig cfg = sma::core::goes9_scaled_config();
//   sma::core::SmaPipeline pipeline(cfg, {.backend = "vector"});
//   auto result = pipeline.track_pair(frame0, frame1);
//   double rms = sma::imaging::rms_endpoint_error(result.flow, truth);
//
// See examples/quickstart.cpp for a complete program.
#pragma once

#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/continuous_model.hpp"
#include "core/fault.hpp"
#include "core/hierarchical.hpp"
#include "core/match_precompute.hpp"
#include "core/multispectral.hpp"
#include "core/pipeline.hpp"
#include "core/postprocess.hpp"
#include "core/semifluid.hpp"
#include "core/tracker.hpp"
#include "core/trajectory.hpp"
#include "core/workload.hpp"
#include "imaging/flow.hpp"
#include "imaging/image.hpp"
#include "imaging/repair.hpp"
#include "surface/geometry.hpp"
