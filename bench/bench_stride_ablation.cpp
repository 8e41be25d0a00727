// bench_stride_ablation — template subsampling (SmaConfig::template_stride).
//
// Paper-scale templates (121x121 = 14641 pixels) are what make the
// sequential run a 397-day projection (Fig. 4).  Subsampling the
// template approximates the Eq. (3) error surface with a fraction of
// the terms; this harness measures the speed/accuracy trade on a scaled
// problem with a deliberately large template.
#include <cstdio>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/synth.hpp"

using namespace sma;

int main() {
  const int size = 72;
  const imaging::ImageF f0 = goes::fractal_clouds(size, size, 7);
  const goes::WindModel wind =
      goes::rankine_vortex(size / 2.0, size / 2.0, size / 5.0, 2.0);
  const imaging::ImageF f1 = goes::advect_frame(f0, wind);
  const imaging::FlowField truth = goes::wind_to_flow(size, size, wind);

  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_template_radius = 8;  // 17x17 = 289 template pixels
  cfg.z_search_radius = 3;

  bench::header("Template-stride ablation (17x17 template, " +
                std::to_string(size) + "x" + std::to_string(size) + ")");
  std::printf("  %-8s %14s %12s %12s\n", "stride", "terms/hyp",
              "host (s)", "RMS (px)");
  std::printf("  %-8s %14s %12s %12s\n", "------", "---------", "--------",
              "--------");
  for (int stride : {1, 2, 3, 4}) {
    cfg.template_stride = stride;
    const core::Workload w{size, size, cfg};
    const core::TrackResult r =
        core::SmaPipeline(cfg, {.backend = "tiled"}).track_pair(f0, f1);
    std::printf("  %-8d %14llu %12.2f %12.3f\n", stride,
                static_cast<unsigned long long>(
                    w.error_terms_per_hypothesis()),
                r.timings.total,
                imaging::rms_endpoint_error(r.flow, truth, 14));
  }
  std::printf(
      "\n  stride 2 keeps ~1/4 of the error terms for nearly the same\n"
      "  accuracy; the accuracy knee appears when the subsampled template\n"
      "  no longer spans enough independent texture (cf. Fig. 4's cost\n"
      "  growth, which stride fights quadratically).\n\n");
  return 0;
}
