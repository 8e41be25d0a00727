// multilayer_winds.cpp — multi-layered cloud tracking, the motivating
// scenario of the semi-fluid model (paper, Sec. 1: the model "is also
// well-suited for tracking multi-layered clouds since tracers in each
// layer are modeled as separate small surface patches with independent
// first order deformations").
//
// Two cloud decks move with different winds (high deck westerly, low
// deck easterly).  The pipeline:
//   1. semi-fluid SMA on the composite intensity field,
//   2. robust post-processing (Sec. 6 extension),
//   3. cloud classification by height and per-deck wind statistics
//      (Sec. 6 "post processing the motion field by using cloud
//      classification"),
//   4. flow color-wheel rendering (PPM) of the layered field.
//
//   $ ./multilayer_winds [size] [output_dir]
#include <cmath>
#include <cstdio>
#include <string>

#include "core/sma.hpp"
#include "goes/classify.hpp"
#include "goes/synth.hpp"
#include "imaging/colorize.hpp"
#include "imaging/io.hpp"

using namespace sma;

int main(int argc, char** argv) {
  const int size = argc > 1 ? std::atoi(argv[1]) : 72;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  // --- Scene: a high deck covering the north half moving east-to-west,
  // over a low deck moving west-to-east with shear.
  const imaging::ImageF high_mask = goes::fractal_clouds(size, size, 41, 3,
                                                         size / 2.0);
  imaging::ImageF mask(size, size);
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x)
      mask.at(x, y) = high_mask.at(x, y) > 128.0f ? 1.0f : 0.0f;

  const goes::WindModel upper = goes::uniform_shear(-2.0, 0.3, 0.0);
  const goes::WindModel lower = goes::uniform_shear(1.5, -0.2, 0.0);
  const goes::WindModel wind = goes::two_layer(mask, 0.5f, upper, lower);

  const imaging::ImageF clouds = goes::fractal_clouds(size, size, 42);
  const imaging::ImageF frame0 = clouds;
  const imaging::ImageF frame1 = goes::advect_frame(frame0, wind);

  // Height proxy: high deck at 9 km, low deck at 2 km.
  imaging::ImageF heights(size, size);
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x)
      heights.at(x, y) = mask.at(x, y) > 0.5f ? 9.0f : 2.0f;

  // --- Semi-fluid tracking (fragmented correspondences handle the
  // independent layers).
  core::SmaConfig cfg = core::frederic_scaled_config();
  cfg.z_search_radius = 3;
  std::printf("== multilayer clouds (%dx%d), %s ==\n", size, size,
              cfg.describe().c_str());
  const core::TrackResult r =
      core::SmaPipeline(cfg, {.backend = "vector"}).track_pair(frame0, frame1);
  imaging::FlowField flow = core::robust_postprocess(r.flow);

  // --- Classification and per-deck winds.
  const goes::ClassMap classes = goes::classify_clouds(frame0, heights);
  const auto stats = goes::per_class_statistics(flow, classes);
  const auto& high = stats[static_cast<std::size_t>(goes::CloudClass::kHigh)];
  const auto& low = stats[static_cast<std::size_t>(goes::CloudClass::kLow)];
  std::printf("high deck: %6zu px, mean wind (%+.2f, %+.2f), true (-2.0, +0.3)\n",
              high.pixels, high.mean_u, high.mean_v);
  std::printf("low  deck: %6zu px, mean wind (%+.2f, %+.2f), true (+1.5, -0.2)\n",
              low.pixels, low.mean_u, low.mean_v);

  // --- Accuracy against the analytic two-layer truth.
  const imaging::FlowField truth = goes::wind_to_flow(size, size, wind);
  const double rms = imaging::rms_endpoint_error(flow, truth, size / 8);
  std::printf("dense RMS vs two-layer truth: %.3f px\n", rms);

  // --- Outputs.
  imaging::write_pgm(frame0, out_dir + "/multilayer_frame0.pgm");
  imaging::write_ppm(imaging::colorize_flow(flow),
                     out_dir + "/multilayer_flow.ppm");
  imaging::write_flow_text(flow, out_dir + "/multilayer_flow.txt", 4);
  std::printf("wrote multilayer_frame0.pgm, multilayer_flow.ppm, "
              "multilayer_flow.txt\n");

  const bool deck_signs_right = high.mean_u < -0.5 && low.mean_u > 0.5;
  return (rms < 1.5 && deck_signs_right) ? 0 : 1;
}
