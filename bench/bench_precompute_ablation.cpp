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

  // Both legs run the naive normal-equation arithmetic (the Sec. 11
  // precompute off), isolating the mapping: the cost-layer table versus
  // re-minimising Eq. (9) for every template pixel of every hypothesis.
  core::SmaConfig pre = core::frederic_scaled_config();
  pre.precompute = core::PrecomputeMode::kOff;
  pre.use_precomputed_mapping = true;
  core::SmaConfig naive = pre;
  naive.use_precomputed_mapping = false;

  const core::TrackResult a = core::SmaPipeline(pre).track_pair(f0, f1);
  const core::TrackResult b = core::SmaPipeline(naive).track_pair(f0, f1);

  bench::header("Measured (scaled " + std::to_string(size) + "x" +
                std::to_string(size) + ", " + pre.describe() + ")");
  bench::row_header("precomputed", "naive");
  bench::row("semi-fluid mapping (s)", bench::fmt(a.timings.semifluid_mapping),
             bench::fmt(b.timings.semifluid_mapping));
  bench::row("hypothesis matching (s)",
             bench::fmt(a.timings.hypothesis_matching),
             bench::fmt(b.timings.hypothesis_matching));
  bench::row("total (s)", bench::fmt(a.timings.total),
             bench::fmt(b.timings.total));
  bench::row("measured speedup", "",
             bench::fmt(b.timings.total / a.timings.total, "x", 1));
  std::printf("\n  results identical: %s\n",
              a.flow == b.flow ? "yes (the optimization is exact)"
                               : "NO — BUG");
  std::printf(
      "  The Table 2 'Semi-fluid mapping' row (66.9 s) exists BECAUSE of\n"
      "  this optimization; without it that work would multiply into the\n"
      "  hypothesis-matching phase, as it does in the sequential\n"
      "  baseline — the structural reason the Frederic speedup (1025x)\n"
      "  dwarfs the GOES-9 continuous-model speedup (193x).\n\n");
  return a.flow == b.flow ? 0 : 1;
}
