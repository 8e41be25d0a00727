// bench_hierarchical_ablation — quantifies the Sec. 6 future-work
// "adaptive hierarchical ... windows" extension: a flat search wide
// enough for a large displacement vs the coarse-to-fine pruned search
// (match_prune.hpp) in the same wide box.
//
// The flat cost grows quadratically in the search radius ((2D+1)^2
// hypotheses per pixel); pruned search seeds each pixel from a coarse
// pyramid track and folds only a narrow window around the seed.
// Accuracy, wall-clock and hypotheses per pixel are all reported.
#include <cstdio>

#include "bench_util.hpp"
#include "core/match_vector.hpp"
#include "core/sma.hpp"
#include "goes/synth.hpp"

using namespace sma;

int main() {
  const int size = 96;
  const int displacement = 6;
  const imaging::ImageF f0 = goes::fractal_clouds(size, size, 7);
  const imaging::ImageF f1 = bench::shift_clamped(f0, displacement, 0);

  core::SmaConfig base;
  base.model = core::MotionModel::kContinuous;
  base.surface_fit_radius = 2;
  base.z_template_radius = 3;

  bench::header("Pruned coarse-to-fine vs flat search (" +
                std::to_string(size) + "x" + std::to_string(size) +
                ", true displacement " + std::to_string(displacement) +
                " px)");
  std::printf("  %-28s %10s %14s %12s\n", "variant", "host (s)",
              "good frac", "hyp/pixel");
  std::printf("  %-28s %10s %14s %12s\n", "----------------------------",
              "--------", "---------", "---------");

  auto good_fraction = [&](const imaging::FlowField& flow) {
    int good = 0, total = 0;
    for (int y = 16; y < size - 16; ++y)
      for (int x = 16; x < size - 16; ++x) {
        const imaging::FlowVector f = flow.at(x, y);
        if (std::abs(f.u - displacement) <= 1.0f && std::abs(f.v) <= 1.0f)
          ++good;
        ++total;
      }
    return static_cast<double>(good) / total;
  };

  // Flat search wide enough to reach the displacement.
  core::SmaConfig wide = base;
  wide.z_search_radius = displacement + 1;
  {
    const core::TrackResult r =
        core::SmaPipeline(wide, {.backend = "vector"}).track_pair(f0, f1);
    std::printf("  %-28s %10.3f %14.3f %12d\n", "flat (search covers 6px)",
                r.timings.total, good_fraction(r.flow),
                wide.z_search_size() * wide.z_search_size());
  }
  // Flat search too small — the failure coarse-to-fine search fixes.
  {
    core::SmaConfig narrow = base;
    narrow.z_search_radius = 2;
    const core::TrackResult r =
        core::SmaPipeline(narrow, {.backend = "vector"}).track_pair(f0, f1);
    std::printf("  %-28s %10.3f %14.3f %12d\n", "flat (search 2px, too small)",
                r.timings.total, good_fraction(r.flow),
                narrow.z_search_size() * narrow.z_search_size());
  }
  // Pruned search in the wide box, seeded from one or two pyramid
  // levels; hypotheses per pixel include the coarse seed pass.
  bool pruned_ok = true;
  for (const int levels : {1, 2}) {
    core::SmaConfig pruned = wide;
    pruned.search_mode = core::SearchMode::kPruned;
    pruned.prune_coarse_levels = levels;
    const core::TrackResult r =
        core::SmaPipeline(pruned, {.backend = "vector"}).track_pair(f0, f1);
    const auto* vx =
        dynamic_cast<const core::VectorBackendExtras*>(r.extras.get());
    const double hyp_per_px =
        vx != nullptr ? vx->prune.hypotheses_evaluated() / (size * size) : 0.0;
    const double good = good_fraction(r.flow);
    pruned_ok = pruned_ok && good >= 0.9;
    const std::string name =
        "pruned (" + std::to_string(levels) + " level" +
        (levels > 1 ? "s" : "") + ")";
    std::printf("  %-28s %10.3f %14.3f %12.1f\n", name.c_str(),
                r.timings.total, good, hyp_per_px);
  }
  std::printf(
      "\n  pruned search reaches the wide flat search's accuracy at a\n"
      "  fraction of its hypotheses — the Sec. 6 motivation: %s\n\n",
      pruned_ok ? "PASS" : "CHECK");
  return 0;
}
