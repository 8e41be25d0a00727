// bench_precompute_ablation — reproduces the Sec. 4.1 optimization: the
// semi-fluid template mapping is precomputed for the whole extended
// (2Nzs + 2Nss + 1)^2 window and shared across hypotheses, instead of
// recomputed per hypothesis ("To avoid recomputing the template mapping
// (9) for overlapping pixels ... it is more efficient to pre-compute").
//
// Prints the op-count model's predicted saving and measures both paths
// on a scaled problem (results are bit-identical; only the time moves).
#include <cstdio>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/synth.hpp"

using namespace sma;

int main() {
  // --- Op-count prediction at paper scale.
  const core::Workload w{512, 512, core::frederic_config()};
  bench::header("Sec. 4.1 — precomputed vs naive semi-fluid mapping");
  bench::row_header("", "this model");
  bench::row("naive discriminant terms", "",
             bench::fmt(static_cast<double>(w.naive_semifluid_terms()) / 1e12,
                        "e12", 2));
  bench::row("precomputed terms", "",
             bench::fmt(
                 static_cast<double>(w.precomputed_semifluid_terms()) / 1e9,
                 "e9", 2));
  bench::row("predicted saving", "",
             bench::fmt(static_cast<double>(w.naive_semifluid_terms()) /
                            static_cast<double>(w.precomputed_semifluid_terms()),
                        "x", 0));

  // --- Measured on a scaled problem.
  const int size = 28;
  const imaging::ImageF f0 = goes::fractal_clouds(size, size, 3);
  const goes::WindModel wind = goes::uniform_shear(1.0, 0.0, 0.0);
  const imaging::ImageF f1 = goes::advect_frame(f0, wind);

  // Both legs run the naive normal-equation arithmetic on the pair
  // without the precompute planes (DESIGN.md §11), isolating the
  // mapping: the correspondence table versus re-minimising Eq. (9) for
  // every template pixel of every hypothesis.
  const core::SmaConfig cfg = core::frederic_scaled_config();
  surface::GeometryOptions gopts;
  gopts.patch_radius = cfg.surface_fit_radius;
  const surface::GeometricField g0 = surface::compute_geometry(f0, gopts);
  const surface::GeometricField g1 = surface::compute_geometry(f1, gopts);
  core::MatchInput mi;
  mi.before = &g0;
  mi.after = &g1;
  mi.disc_before = &g0.disc;
  mi.disc_after = &g1.disc;
  // Precomputed: `sequential` reads each segment's table.
  const core::TrackResult a =
      core::BackendRegistry::instance().get("sequential").match(mi, cfg, {});
  // Naive: scan_hypotheses over every pixel with the segment's table (and
  // planes) cleared, so each template pixel is remapped on the fly.  The
  // stage still builds the table it hands over, so this leg's time is
  // its matching alone.
  const core::TrackResult b = core::run_matching_stage(
      mi, cfg, {}, /*parallel=*/false, [&](const core::MatchSegment& seg) {
        core::MatchSegment naive = seg;
        naive.table = nullptr;
        naive.pre = nullptr;
        core::scan_segment(mi, cfg, /*parallel=*/false, naive);
      });
  const double a_total =
      a.timings.semifluid_mapping + a.timings.hypothesis_matching;
  const double b_total = b.timings.hypothesis_matching;

  bench::header("Measured (scaled " + std::to_string(size) + "x" +
                std::to_string(size) + ", " + cfg.describe() + ")");
  bench::row_header("precomputed", "naive");
  bench::row("semi-fluid mapping (s)", bench::fmt(a.timings.semifluid_mapping),
             "-");
  bench::row("hypothesis matching (s)",
             bench::fmt(a.timings.hypothesis_matching), bench::fmt(b_total));
  bench::row("total (s)", bench::fmt(a_total), bench::fmt(b_total));
  bench::row("measured speedup", "", bench::fmt(b_total / a_total, "x", 1));
  const bool identical = imaging::bit_equal(a.flow, b.flow);
  std::printf("\n  flow-identical: %s\n",
              identical ? "yes (the optimization is exact)" : "NO — BUG");
  std::printf(
      "  The Table 2 'Semi-fluid mapping' row (66.9 s) exists BECAUSE of\n"
      "  this optimization; without it that work would multiply into the\n"
      "  hypothesis-matching phase, as it does in the sequential\n"
      "  baseline — the structural reason the Frederic speedup (1025x)\n"
      "  dwarfs the GOES-9 continuous-model speedup (193x).\n\n");
  return identical ? 0 : 1;
}
