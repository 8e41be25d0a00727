// bench_table4_goes9 — reproduces Table 4: the GOES-9 Florida
// thunderstorm timestep timing (continuous model) plus the paper's 193x
// run-time gain, and the structural contrast against the Frederic run
// ("the semi-fluid template mapping ... is not needed for the continuous
// non-rigid motion model", Sec. 5.2).
// Usage: bench_table4_goes9 [--backend NAME]
//   NAME selects the registry backend compared against the sequential
//   reference in the measured section (default: vector).
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/datasets.hpp"
#include "maspar/backend.hpp"
#include "maspar/cost_model.hpp"

using namespace sma;

int main(int argc, char** argv) {
  std::string backend = "vector";
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc)
      backend = argv[++i];
  const core::Workload w{512, 512, core::goes9_config()};
  const maspar::CostModel model;
  const maspar::PhaseTimes mp2 = model.mp2_times(w, 4);
  const maspar::PhaseTimes sgi = model.sgi_times(w, 4);

  bench::header("Table 4 — GOES-9 timestep, MP-2 timing (modeled)");
  bench::row_header("paper (s)", "model (s)");
  bench::row("Surface fit + geometric vars", "2.461",
             bench::fmt(mp2.surface_fit + mp2.geometric_vars));
  bench::row("Hypothesis matching", "768.758",
             bench::fmt(mp2.hypothesis_matching));
  bench::row("Total", "771.219", bench::fmt(mp2.total()));
  std::printf("\n");
  bench::row_header("paper", "model");
  bench::row("Total (minutes)", "12.854", bench::fmt(mp2.total() / 60.0));
  bench::row("Sequential (hours)", "41.357",
             bench::fmt(sgi.total() / 3600.0));
  bench::row("Run-time gain", "193",
             bench::fmt(sgi.total() / mp2.total(), "x", 0));

  // Structural check against Table 2.
  const core::Workload wf{512, 512, core::frederic_config()};
  const double frederic_gain =
      model.sgi_times(wf, 4).total() / model.mp2_times(wf, 4).total();
  std::printf(
      "\n  semi-fluid (Frederic) gain %.0fx >> continuous (GOES-9) gain "
      "%.0fx\n  — the paper's Sec. 5.2 observation reproduced.\n",
      frederic_gain, sgi.total() / mp2.total());

  // ---------- scaled measured run ----------
  const int size = 56;
  const core::SmaConfig cfg = core::goes9_scaled_config();
  const goes::RapidScanDataset data =
      goes::make_florida_analog(size, 2, 13, 1.5);
  maspar::register_maspar_backend();
  core::TrackerInput in;
  in.intensity_before = in.surface_before = &data.frames[0];
  in.intensity_after = in.surface_after = &data.frames[1];
  const core::TrackResult seq = core::SmaPipeline(cfg).track_pair(in);
  const core::TrackResult par =
      core::SmaPipeline(cfg, {.backend = backend}).track_pair(in);

  bench::header("Scaled measured run (" + std::to_string(size) + "x" +
                std::to_string(size) + ", " + cfg.describe() + ")");
  bench::row_header("sequential (s)", backend + " (s)");
  bench::row("Surface fit + geometric vars",
             bench::fmt(seq.timings.surface_fit + seq.timings.geometric_vars),
             bench::fmt(par.timings.surface_fit + par.timings.geometric_vars));
  bench::row("Hypothesis matching",
             bench::fmt(seq.timings.hypothesis_matching),
             bench::fmt(par.timings.hypothesis_matching));
  bench::row("Total", bench::fmt(seq.timings.total),
             bench::fmt(par.timings.total));
  std::printf("\n  semi-fluid mapping phase absent: %s\n",
              seq.timings.semifluid_mapping == 0.0 ? "yes (F_cont)" : "NO");
  std::printf("  %s flow-identical to sequential: %s\n\n", backend.c_str(),
              imaging::bit_equal(seq.flow, par.flow) ? "yes" : "NO — BUG");
  return 0;
}
