// application_domains.cpp — the SMA algorithm across the paper's Sec. 1
// application domains: weather (clouds), oceanography (eddy dipole) and
// biology (dividing microorganisms).  One tracker, three sciences.
//
//   $ ./application_domains [output_dir]
#include <cmath>
#include <cstdio>
#include <string>

#include "core/sma.hpp"
#include "goes/domains.hpp"
#include "goes/storm_track.hpp"
#include "goes/synth.hpp"
#include "imaging/colorize.hpp"
#include "imaging/io.hpp"

using namespace sma;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const core::PipelineOptions tiled{.backend = "tiled"};

  // --- 1. Clouds (the paper's own domain).
  {
    const int size = 64;
    const imaging::ImageF f0 = goes::fractal_clouds(size, size, 7);
    const goes::WindModel wind =
        goes::rankine_vortex(size / 2.0, size / 2.0, size / 5.0, 2.0);
    const imaging::ImageF f1 = goes::advect_frame(f0, wind);
    const core::TrackResult r =
        core::SmaPipeline(core::frederic_scaled_config(), tiled)
            .track_pair(f0, f1);
    const double rms = imaging::rms_endpoint_error(
        r.flow, goes::wind_to_flow(size, size, wind), 12);
    std::printf("clouds     : hurricane vortex, dense RMS %.3f px\n", rms);
    imaging::write_ppm(imaging::colorize_flow(r.flow),
                       out_dir + "/domain_clouds.ppm");
  }

  // --- 2. Ocean eddies ("ocean eddies and currents that maintain
  // identifiable features").
  {
    const goes::OceanEddyDataset d = goes::make_ocean_eddy_analog(72, 5, 2.0);
    core::SmaConfig cfg = core::goes9_scaled_config();
    cfg.z_search_radius = 3;
    const core::TrackResult r =
        core::SmaPipeline(cfg, tiled).track_pair(d.sst0, d.sst1);
    const double rms = imaging::rms_endpoint_error(r.flow, d.tracks);
    // Locate both eddies from the estimated field's vorticity.
    const imaging::FlowField smooth = core::gaussian_smooth(r.flow, 1.5);
    const auto fix = goes::locate_vortex(smooth, 0.6, 1e-3, 10);
    std::printf("ocean      : eddy dipole, barb RMS %.3f px", rms);
    if (fix)
      std::printf(", dominant eddy near (%.0f, %.0f)", fix->x, fix->y);
    std::printf("\n");
    imaging::write_ppm(imaging::colorize_flow(r.flow),
                       out_dir + "/domain_ocean.ppm");
  }

  // --- 3. Biology ("fission and fusion in biological microorganisms").
  {
    const goes::CellDataset d = goes::make_cell_analog(72, 4, 11, 2.0);
    core::SmaConfig cfg = core::frederic_scaled_config();
    cfg.z_search_radius = 4;
    const core::TrackResult r =
        core::SmaPipeline(cfg, tiled).track_pair(d.frame0, d.frame1);
    const imaging::FlowVector left = r.flow.at(d.tracks[0].x, d.tracks[0].y);
    const imaging::FlowVector right = r.flow.at(d.tracks[1].x, d.tracks[1].y);
    std::printf(
        "biology    : fission daughters u = %+.1f / %+.1f px (true %+.1f / "
        "%+.1f) — within-template discontinuity, the semi-fluid case\n",
        left.u, right.u, d.tracks[0].u, d.tracks[1].u);
    imaging::write_pgm(d.frame0, out_dir + "/domain_cells0.pgm");
    imaging::write_pgm(d.frame1, out_dir + "/domain_cells1.pgm");
    imaging::write_ppm(imaging::colorize_flow(r.flow),
                       out_dir + "/domain_cells_flow.ppm");
  }
  std::printf("wrote domain_{clouds,ocean,cells_flow}.ppm and "
              "domain_cells{0,1}.pgm\n");
  return 0;
}
