// rapidscan_winds.cpp — GOES-9 rapid-scan wind estimation (Sec. 5.2):
// a monocular frame sequence tracked pairwise with the continuous model,
// producing a wind field per interval (the paper's Fig. 6 product).
//
//   $ ./rapidscan_winds [size] [frames] [output_dir]
#include <cmath>
#include <cstdio>
#include <string>

#include "core/sma.hpp"
#include "goes/datasets.hpp"
#include "imaging/io.hpp"

int main(int argc, char** argv) {
  const int size = argc > 1 ? std::atoi(argv[1]) : 64;
  const int frames = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::string out_dir = argc > 3 ? argv[3] : ".";

  std::printf("== Florida thunderstorm analog: %d frames of %dx%d ==\n",
              frames, size, size);
  const sma::goes::RapidScanDataset data =
      sma::goes::make_florida_analog(size, frames, /*seed=*/13,
                                     /*max_speed=*/1.5);

  // Dense temporal sampling: the continuous template mapping suffices
  // ("the continuous template mapping of (2) was used rather than the
  // semi-fluid model", Sec. 5.2).
  const sma::core::SmaConfig config = sma::core::goes9_scaled_config();
  std::printf("SMA config: %s\n", config.describe().c_str());

  // One pipeline for the whole sequence: each frame is fitted once.
  sma::core::SmaPipeline pipeline(config, {.backend = "vector"});
  for (int t = 0; t + 1 < frames; ++t) {
    const sma::core::TrackResult r =
        pipeline.track_pair(data.frames[static_cast<std::size_t>(t)],
                            data.frames[static_cast<std::size_t>(t + 1)]);

    // Wind statistics over cloudy (textured) pixels.
    double mean_speed = 0.0, max_speed = 0.0;
    int n = 0;
    for (int y = 8; y < size - 8; ++y)
      for (int x = 8; x < size - 8; ++x) {
        const sma::imaging::FlowVector f = r.flow.at(x, y);
        const double s = std::hypot(f.u, f.v);
        mean_speed += s;
        max_speed = std::max(max_speed, s);
        ++n;
      }
    mean_speed /= n;
    const double rms = sma::imaging::rms_endpoint_error(r.flow, data.tracks);
    std::printf(
        "t%02d->t%02d: mean wind %.2f px/frame, max %.2f, RMS vs barbs "
        "%.3f px, %.2f s\n",
        t, t + 1, mean_speed, max_speed, rms, r.timings.total);

    // Fig. 6 style output: every 4th vector over the full field.
    sma::imaging::write_flow_text(
        r.flow, out_dir + "/rapidscan_flow_t" + std::to_string(t) + ".txt",
        /*stride=*/4);
  }
  sma::imaging::write_pgm(data.frames[0], out_dir + "/rapidscan_frame0.pgm");
  std::printf("wrote rapidscan_flow_t*.txt and rapidscan_frame0.pgm\n");
  return 0;
}
