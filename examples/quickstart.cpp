// quickstart.cpp — minimal end-to-end use of the SMA library.
//
// Generates a small synthetic cloud pair with known motion, runs the
// semi-fluid tracker, and reports accuracy.  Start here.
//
//   $ ./quickstart [output_dir]
#include <cstdio>
#include <string>

#include "core/sma.hpp"
#include "goes/synth.hpp"
#include "imaging/io.hpp"

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // 1. Make a 64x64 fractal cloud field and advect it by a known wind
  //    (a slowly rotating vortex, max 2 px/frame).
  const int size = 64;
  const sma::imaging::ImageF frame0 =
      sma::goes::fractal_clouds(size, size, /*seed=*/7);
  const sma::goes::WindModel wind =
      sma::goes::rankine_vortex(size / 2.0, size / 2.0, size / 5.0, 2.0);
  const sma::imaging::ImageF frame1 = sma::goes::advect_frame(frame0, wind);
  const sma::imaging::FlowField truth =
      sma::goes::wind_to_flow(size, size, wind);

  // 2. Configure the tracker.  Presets mirror the paper's Tables 1/3;
  //    the scaled variants are sized for interactive use.
  sma::core::SmaConfig config = sma::core::frederic_scaled_config();
  std::printf("config: %s\n", config.describe().c_str());

  // 3. Track every pixel (monocular mode: intensity as a digital surface)
  //    on the thread-parallel host backend.
  sma::core::SmaPipeline pipeline(config, {.backend = "tiled"});
  const sma::core::TrackResult result = pipeline.track_pair(frame0, frame1);

  // 4. Report.
  std::printf("tracked %d x %d pixels in %.2f s\n", result.flow.width(),
              result.flow.height(), result.timings.total);
  std::printf("  surface fit          %.3f s\n", result.timings.surface_fit);
  std::printf("  geometric variables  %.3f s\n",
              result.timings.geometric_vars);
  std::printf("  semi-fluid mapping   %.3f s\n",
              result.timings.semifluid_mapping);
  std::printf("  hypothesis matching  %.3f s\n",
              result.timings.hypothesis_matching);
  const double rms =
      sma::imaging::rms_endpoint_error(result.flow, truth, /*margin=*/10);
  std::printf("dense RMS vs ground truth: %.3f px (interior)\n", rms);

  // 5. Persist the inputs and the flow field for inspection.
  sma::imaging::write_pgm(frame0, out_dir + "/quickstart_frame0.pgm");
  sma::imaging::write_pgm(frame1, out_dir + "/quickstart_frame1.pgm");
  sma::imaging::write_flow_text(result.flow, out_dir + "/quickstart_flow.txt",
                                /*stride=*/4);
  std::printf("wrote quickstart_frame{0,1}.pgm and quickstart_flow.txt\n");
  return rms < 1.0 ? 0 : 1;
}
