// bench_coupled_stereo — quantifies the Sec. 6 "coupling stereo and
// motion estimation" extension (ref [10]): motion-compensated temporal
// fusion of disparity maps vs independent per-frame ASA, under
// increasing stereo noise.
#include <cmath>
#include <cstdio>
#include <random>

#include "bench_util.hpp"
#include "goes/datasets.hpp"
#include "stereo/coupled.hpp"

using namespace sma;

namespace {

imaging::ImageF with_noise(const imaging::ImageF& img, double amplitude,
                           unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-amplitude, amplitude);
  imaging::ImageF out = img;
  for (int y = 0; y < out.height(); ++y)
    for (int x = 0; x < out.width(); ++x)
      out.at(x, y) += static_cast<float>(dist(rng));
  return out;
}

double disparity_rms(const imaging::ImageF& est, const imaging::ImageF& truth,
                     int margin) {
  double sum = 0.0;
  int n = 0;
  for (int y = margin; y < truth.height() - margin; ++y)
    for (int x = margin; x < truth.width() - margin; ++x) {
      const double e = est.at(x, y) - truth.at(x, y);
      sum += e * e;
      ++n;
    }
  return std::sqrt(sum / n);
}

}  // namespace

int main() {
  const int size = 64;
  const goes::FredericDataset d = goes::make_frederic_analog(size, 31, 2.0);

  stereo::CoupledOptions opts;
  opts.stereo.levels = 3;
  opts.motion = core::frederic_scaled_config();
  opts.motion.z_search_radius = 3;
  opts.backend = "tiled";
  opts.iterations = 2;

  bench::header("Coupled stereo-motion vs independent ASA (" +
                std::to_string(size) + "x" + std::to_string(size) + ")");
  std::printf("  %-14s %16s %16s %12s\n", "sensor noise",
              "independent RMS", "coupled RMS", "motion RMS");
  std::printf("  %-14s %16s %16s %12s\n", "------------", "---------------",
              "-----------", "----------");

  for (double noise : {0.0, 6.0, 12.0, 20.0}) {
    const imaging::ImageF right0 = with_noise(d.right0, noise, 1);
    const imaging::ImageF right1 = with_noise(d.right1, noise, 2);
    const stereo::DisparityMap independent =
        stereo::asa_disparity(d.left1, right1, opts.stereo);
    const stereo::CoupledResult coupled = stereo::coupled_stereo_motion(
        d.left0, right0, d.left1, right1, d.geometry, opts);
    std::printf("  %-14.1f %16.3f %16.3f %12.3f\n", noise,
                disparity_rms(independent.disparity, d.disparity1, 10),
                disparity_rms(coupled.disparity1, d.disparity1, 10),
                imaging::rms_endpoint_error(coupled.flow, d.tracks));
  }
  std::printf(
      "\n  the coupled loop averages two independently-noisy disparity\n"
      "  measurements along motion trajectories: its advantage grows\n"
      "  with sensor noise while the motion RMS stays stable.\n\n");
  return 0;
}
