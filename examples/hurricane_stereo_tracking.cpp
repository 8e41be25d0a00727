// hurricane_stereo_tracking.cpp — the paper's Hurricane Frederic pipeline
// (Sec. 5.1) end to end on a synthetic analog:
//
//   stereo pairs -> ASA disparity -> cloud-top heights -> semi-fluid SMA
//   -> comparison against 32 "manually tracked" wind barbs.
//
//   $ ./hurricane_stereo_tracking [size] [output_dir]
#include <cstdio>
#include <string>

#include "core/sma.hpp"
#include "goes/datasets.hpp"
#include "imaging/io.hpp"
#include "imaging/convolve.hpp"
#include "stereo/asa.hpp"

int main(int argc, char** argv) {
  const int size = argc > 1 ? std::atoi(argv[1]) : 80;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  std::printf("== Hurricane Frederic analog (%dx%d stereo) ==\n", size, size);
  const sma::goes::FredericDataset data =
      sma::goes::make_frederic_analog(size, /*seed=*/31, /*max_speed=*/2.0);

  // --- Stage 1: Automatic Stereo Analysis at both time steps.
  sma::stereo::AsaOptions sopts;
  sopts.levels = 3;  // "typically four levels"; three suffice at this size
  sopts.template_radius = 3;
  sopts.max_disparity = 4;
  const sma::stereo::DisparityMap d0 =
      sma::stereo::asa_disparity(data.left0, data.right0, sopts);
  const sma::stereo::DisparityMap d1 =
      sma::stereo::asa_disparity(data.left1, data.right1, sopts);
  // Light smoothing of the estimated heights suppresses correlator
  // noise before the normal computation (the paper lists regularization
  // of the estimates under future work; a small Gaussian is the minimal
  // stand-in).
  const sma::imaging::ImageF z0 = sma::imaging::gaussian_blur(
      sma::goes::heights_from_disparity(d0.disparity, data.geometry), 1.0);
  const sma::imaging::ImageF z1 = sma::imaging::gaussian_blur(
      sma::goes::heights_from_disparity(d1.disparity, data.geometry), 1.0);

  // Height accuracy against the generator's truth.
  double height_err = 0.0;
  int n = 0;
  for (int y = size / 8; y < size - size / 8; ++y)
    for (int x = size / 8; x < size - size / 8; ++x) {
      height_err += std::abs(z0.at(x, y) - data.height0.at(x, y));
      ++n;
    }
  std::printf("ASA mean height error: %.2f km (2-12 km cloud deck)\n",
              height_err / n);

  // --- Stage 2: semi-fluid motion analysis on intensity + height maps.
  sma::core::SmaConfig config = sma::core::frederic_scaled_config();
  config.z_search_radius = 3;
  std::printf("SMA config: %s\n", config.describe().c_str());

  sma::core::TrackerInput input;
  input.intensity_before = &data.left0;
  input.intensity_after = &data.left1;
  input.surface_before = &z0;
  input.surface_after = &z1;
  const sma::core::TrackResult result =
      sma::core::SmaPipeline(config, {.backend = "tiled"}).track_pair(input);

  std::printf("tracked all %d pixels in %.2f s (host)\n",
              result.flow.width() * result.flow.height(),
              result.timings.total);

  // --- Stage 3: wind-barb comparison (the paper's accuracy criterion:
  // "a root-mean-squared error of less than one pixel with respect to
  // the manual estimates").
  const double rms = sma::imaging::rms_endpoint_error(result.flow, data.tracks);
  std::printf("RMS vs %zu manual wind barbs: %.3f px %s\n",
              data.tracks.size(), rms,
              rms < 1.0 ? "(sub-pixel, as in the paper)" : "");

  sma::imaging::write_pgm(data.left0, out_dir + "/frederic_left0.pgm");
  sma::imaging::write_pfm(z0, out_dir + "/frederic_heights0.pfm");
  sma::imaging::write_flow_text(result.flow, out_dir + "/frederic_flow.txt",
                                /*stride=*/4);
  std::printf("wrote frederic_left0.pgm, frederic_heights0.pfm, "
              "frederic_flow.txt\n");
  return rms < 1.5 ? 0 : 1;
}
