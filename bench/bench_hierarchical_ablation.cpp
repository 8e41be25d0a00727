// bench_hierarchical_ablation — quantifies the Sec. 6 future-work
// "adaptive hierarchical ... windows" extension: a flat search wide
// enough for a large displacement vs the coarse-to-fine hierarchy.
//
// The flat cost grows quadratically in the search radius ((2D+1)^2
// hypotheses per pixel); the hierarchy covers the same displacement with
// a few narrow searches.  Accuracy and wall-clock are both reported.
#include <cstdio>

#include "bench_util.hpp"
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

  bench::header("Hierarchical vs flat search (" + std::to_string(size) + "x" +
                std::to_string(size) + ", true displacement " +
                std::to_string(displacement) + " px)");
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
  {
    core::SmaConfig wide = base;
    wide.z_search_radius = displacement + 1;
    const core::TrackResult r =
        core::SmaPipeline(wide, {.backend = "vector"}).track_pair(f0, f1);
    std::printf("  %-28s %10.2f %14.3f %12d\n", "flat (search covers 6px)",
                r.timings.total, good_fraction(r.flow),
                wide.z_search_size() * wide.z_search_size());
  }
  // Flat search too small — the failure the hierarchy fixes.
  {
    core::SmaConfig narrow = base;
    narrow.z_search_radius = 2;
    const core::TrackResult r =
        core::SmaPipeline(narrow, {.backend = "vector"}).track_pair(f0, f1);
    std::printf("  %-28s %10.2f %14.3f %12d\n", "flat (search 2px, too small)",
                r.timings.total, good_fraction(r.flow),
                narrow.z_search_size() * narrow.z_search_size());
  }
  // Hierarchy: 3 levels of narrow searches.
  {
    core::HierarchicalOptions opts;
    opts.levels = 3;
    opts.coarse = base;
    opts.coarse.z_search_radius = 2;
    opts.refine_search_radius = 1;
    opts.backend = "vector";
    const core::HierarchicalResult h =
        core::track_pair_hierarchical(f0, f1, opts);
    // Hypotheses per level 0 pixel: coarse 5x5 at 1/16 the pixels plus
    // two 3x3 refinements — report the level-0 refinement cost.
    std::printf("  %-28s %10.2f %14.3f %12s\n", "hierarchical (3 levels)",
                h.total_seconds(), good_fraction(h.flow), "25/16+2x9");
  }
  std::printf(
      "\n  the hierarchy matches the wide flat search's accuracy at a\n"
      "  fraction of the hypothesis count — the Sec. 6 motivation.\n\n");
  return 0;
}
