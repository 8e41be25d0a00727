// maspar_simulation.cpp — running SMA on the simulated MasPar MP-2.
//
// Demonstrates the Sec. 3-4 machinery: the 2-D hierarchical data mapping,
// the SIMD layer-by-layer schedule, automatic Sec. 4.3 segmentation under
// the 64 KB PE memory budget, and the cost model's projection of the
// paper-scale run times (Table 2) from a scaled functional run.
//
//   $ ./maspar_simulation [size]
#include <cstdio>

#include "core/sma.hpp"
#include "goes/synth.hpp"
#include "maspar/backend.hpp"
#include "maspar/data_mapping.hpp"

int main(int argc, char** argv) {
  const int size = argc > 1 ? std::atoi(argv[1]) : 48;

  // A scaled-down MP-2: an 8x8 PE grid so the layer structure is visible.
  sma::maspar::MachineSpec spec;
  spec.nxproc = 8;
  spec.nyproc = 8;

  const sma::imaging::ImageF f0 = sma::goes::fractal_clouds(size, size, 3);
  const sma::goes::WindModel wind =
      sma::goes::uniform_shear(1.0, -1.0, 0.0);
  const sma::imaging::ImageF f1 = sma::goes::advect_frame(f0, wind);

  const sma::maspar::HierarchicalMap map(size, size, spec);
  std::printf("== simulated MasPar: %dx%d PEs, %d KB/PE ==\n", spec.nxproc,
              spec.nyproc,
              static_cast<int>(spec.pe_memory_bytes / 1024));
  std::printf("2-D hierarchical mapping: %dx%d image -> %dx%d pixels/PE "
              "(%d memory layers)\n",
              size, size, map.xvr(), map.yvr(), map.layers());

  sma::core::TrackerInput input;
  input.intensity_before = &f0;
  input.intensity_after = &f1;
  input.surface_before = &f0;
  input.surface_after = &f1;
  const sma::core::SmaConfig config = sma::core::frederic_scaled_config();
  std::printf("SMA config: %s\n", config.describe().c_str());

  // The MP-2 runs as the "maspar-sim" backend behind the same pipeline
  // as every host backend; its machine report rides on the extras.
  sma::maspar::register_maspar_backend(spec, /*image_count=*/2);
  const sma::core::TrackResult simd =
      sma::core::SmaPipeline(config, {.backend = "maspar-sim"})
          .track_pair(input);
  const sma::maspar::SimdRunReport& report =
      dynamic_cast<const sma::maspar::MasParBackendExtras&>(*simd.extras)
          .report;

  std::printf("\n-- functional run --\n");
  std::printf("executed %d memory layers, segment height Z = %d rows\n",
              report.layers, report.segment_rows);
  std::printf("PE memory footprint: %.1f KB (%s the %d KB budget)\n",
              report.pe_bytes / 1024.0,
              report.fits_pe_memory ? "fits" : "EXCEEDS",
              static_cast<int>(spec.pe_memory_bytes / 1024));
  std::printf("host simulation time: %.2f s\n", report.host_seconds);

  // The paper's Sec. 5.1 check: parallel result equals sequential.
  const sma::core::TrackResult seq =
      sma::core::SmaPipeline(config).track_pair(input);
  std::printf("SIMD flow identical to sequential tracker: %s\n",
              seq.flow == report.flow ? "yes" : "NO (bug!)");

  std::printf("\n-- modeled MP-2 wall-clock at this problem size --\n");
  std::printf("  surface fit          %10.4f s\n",
              report.modeled.surface_fit);
  std::printf("  geometric variables  %10.4f s\n",
              report.modeled.geometric_vars);
  std::printf("  semi-fluid mapping   %10.4f s\n",
              report.modeled.semifluid_mapping);
  std::printf("  hypothesis matching  %10.4f s\n",
              report.modeled.hypothesis_matching);
  std::printf("  total                %10.4f s\n", report.modeled.total());
  std::printf("modeled sequential (SGI R8000): %.2f s -> speedup %.0fx\n",
              report.modeled_sgi_total, report.modeled_speedup);

  std::printf("\n-- mesh traffic (hierarchical mapping) --\n");
  std::printf("  gather words:     %llu\n",
              static_cast<unsigned long long>(report.comm.xnet_words));
  std::printf("  word-hops:        %llu\n",
              static_cast<unsigned long long>(report.comm.xnet_word_hops));
  return seq.flow == report.flow ? 0 : 1;
}
