// bench_table2_frederic — reproduces Table 2: the per-phase timing
// breakdown of the semi-fluid SMA run on a Hurricane Frederic image pair.
//
// Two layers of reproduction:
//  1. MODELED at paper scale (512x512, Table 1 windows) through the
//     calibrated MP-2 / SGI cost model — the Table 2 rows, the 397-day
//     sequential projection and the 1025x speedup.
//  2. MEASURED on a scaled problem: the same code paths run for real
//     (sequential vs the `vector` lane kernel and the SIMD executor),
//     with the result-identity check the paper performs in Sec. 5.1.  The vector row splits the semi-fluid
//     mapping (the correspondence-table build) from hypothesis matching
//     (the lane kernel gathering through that table).
// Usage: bench_table2_frederic [--backend NAME] [--json PATH]
//   NAME selects the registry backend compared against the sequential
//   reference in the measured section (default: vector).
//   PATH receives the measured per-phase rows as a JSON record array.
//
// The measured section ends with a thread-scaling sweep: the vector
// backend at 1, 2, 4, ... threads (pool resized to the sweep
// maximum, each run capped via SmaConfig::threads, and warmed by one
// second of untimed tracks before its best-of-3), emitting a
// speedup/efficiency curve into the JSON and asserting FlowField
// bit-identity against the sequential reference at every width.  Exits
// nonzero when any measured run diverges from the sequential result.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/datasets.hpp"
#include "maspar/backend.hpp"
#include "maspar/cost_model.hpp"
#include "maspar/instruction_model.hpp"
#include "maspar/sma_simd.hpp"
#include "sched/scheduler.hpp"

using namespace sma;

int main(int argc, char** argv) {
  std::string backend = "vector";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc)
      backend = argv[++i];
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  // ---------- 1. Paper-scale model ----------
  const core::Workload w{512, 512, core::frederic_config()};
  const maspar::CostModel model;
  const maspar::PhaseTimes mp2 = model.mp2_times(w, 4);
  const maspar::PhaseTimes sgi = model.sgi_times(w, 4);

  bench::header(
      "Table 2 — Frederic image pair, MP-2 timing breakdown (modeled)");
  bench::row_header("paper (s)", "model (s)");
  bench::row("Surface fit", "2.503", bench::fmt(mp2.surface_fit));
  bench::row("Compute geometric variables", "0.037",
             bench::fmt(mp2.geometric_vars));
  bench::row("Semi-fluid mapping", "66.858",
             bench::fmt(mp2.semifluid_mapping));
  bench::row("Hypothesis matching", "33403.163",
             bench::fmt(mp2.hypothesis_matching));
  bench::row("Total", "33472.562", bench::fmt(mp2.total()));
  std::printf("\n");
  bench::row_header("paper", "model");
  bench::row("Total (hours)", "9.298", bench::fmt(mp2.total() / 3600.0));
  bench::row("Sequential projection (days)", "397.34",
             bench::fmt(sgi.total() / 86400.0, "", 1));
  bench::row("Speedup", "1025",
             bench::fmt(sgi.total() / mp2.total(), "x", 0));

  // Independent bottom-up cross-check: per-instruction cycle pricing of
  // the dominant row (instruction_model.hpp) vs the flop-rate model.
  const maspar::InstructionModel instr;
  std::printf(
      "\n  instruction-level cross-check of hypothesis matching: %.0f s\n"
      "  (flop-rate model %.0f s, paper 33403 s — two independent\n"
      "  derivations bracketing the published value)\n",
      instr.hypothesis_matching_seconds(w), mp2.hypothesis_matching);

  // ---------- 2. Scaled measured run ----------
  const int size = 56;
  core::SmaConfig cfg = core::frederic_scaled_config();
  const goes::FredericDataset data =
      goes::make_frederic_analog(size, 31, 2.0);

  bench::header("Scaled measured run (" + std::to_string(size) + "x" +
                std::to_string(size) + ", " + cfg.describe() + ")");
  maspar::MachineSpec spec;
  spec.nxproc = 8;
  spec.nyproc = 8;
  maspar::register_maspar_backend(spec, 2);

  core::TrackerInput in;
  in.intensity_before = &data.left0;
  in.intensity_after = &data.left1;
  in.surface_before = &data.left0;
  in.surface_after = &data.left1;
  // One pair on a fresh pipeline, so every run pays both fits.
  const auto track = [&](const std::string& name, const core::SmaConfig& c) {
    return core::SmaPipeline(c, {.backend = name}).track_pair(in);
  };
  // The fastest of three runs: the measured problem is small enough that
  // a single run is at the mercy of host noise.
  const auto best_of_3 = [&](const std::string& name,
                             const core::SmaConfig& c) {
    core::TrackResult best = track(name, c);
    for (int rep = 1; rep < 3; ++rep) {
      core::TrackResult r = track(name, c);
      if (r.timings.total < best.timings.total) best = std::move(r);
    }
    return best;
  };
  const core::TrackResult seq = best_of_3("sequential", cfg);
  const core::TrackResult par = best_of_3(backend, cfg);
  const core::TrackResult vec =
      backend == "vector" ? par : best_of_3("vector", cfg);
  bool identical = seq.flow == par.flow && seq.flow == vec.flow;

  // One table per comparison: the selected backend, then the lane kernel.
  std::vector<std::pair<std::string, const core::TrackResult*>> compared{
      {backend, &par}};
  if (backend != "vector") compared.emplace_back("vector", &vec);
  for (const auto& [name, rp] : compared) {
    const core::TrackResult& r = *rp;
    std::printf("\n");
    bench::row_header("sequential (s)", name + " (s)");
    bench::row("Surface fit", bench::fmt(seq.timings.surface_fit),
               bench::fmt(r.timings.surface_fit));
    bench::row("Compute geometric variables",
               bench::fmt(seq.timings.geometric_vars),
               bench::fmt(r.timings.geometric_vars));
    bench::row("Match precompute", bench::fmt(seq.timings.match_precompute),
               bench::fmt(r.timings.match_precompute));
    bench::row("Semi-fluid mapping",
               bench::fmt(seq.timings.semifluid_mapping),
               bench::fmt(r.timings.semifluid_mapping));
    bench::row("Hypothesis matching",
               bench::fmt(seq.timings.hypothesis_matching),
               bench::fmt(r.timings.hypothesis_matching));
    bench::row("Total", bench::fmt(seq.timings.total),
               bench::fmt(r.timings.total));
    std::printf("  %s result identical to sequential: %s\n", name.c_str(),
                seq.flow == r.flow ? "yes (paper Sec. 5.1 criterion)"
                                   : "NO — BUG");
  }

  // SIMD backend on the same input, with modeled MP-2 projection for
  // THIS problem size (skipped when it was the comparator above).
  const core::TrackResult simd =
      backend == "maspar-sim" ? par : track("maspar-sim", cfg);
  std::printf("  maspar-sim backend identical to sequential: %s\n",
              simd.flow == seq.flow ? "yes" : "NO — BUG");
  identical = identical && simd.flow == seq.flow;
  if (const auto* mp = dynamic_cast<const maspar::MasParBackendExtras*>(
          simd.extras.get()))
    std::printf("  modeled MP-2 total at this size: %.3f s (speedup %.0fx)\n",
                mp->report.modeled.total(), mp->report.modeled_speedup);

  // ---------- 3. Thread-scaling sweep (vector backend) ----------
  // Widths 1, 2, 4, ... up to at least 4 (so the curve exists even on a
  // 1-core box, where it honestly records ~1x: the shared pool is
  // resized to the sweep maximum, and each run is capped through
  // SmaConfig::threads — the same budget mechanism sma_serve uses).
  sched::ThreadPool& pool = sched::ThreadPool::shared();
  const int hw = sched::ThreadPool::default_threads();
  std::vector<int> widths;
  for (int t = 1; t < std::max(hw, 4); t *= 2) widths.push_back(t);
  widths.push_back(std::max(hw, 4));
  pool.resize(widths.back());

  struct SweepPoint {
    std::string backend;
    int threads;
    double speedup;
    core::TrackResult result;
  };
  std::vector<SweepPoint> sweep;
  const std::string swept = "vector";
  bench::header("Thread scaling — " + swept + " backend (" +
                std::to_string(std::max(hw, 4)) + "-wide pool, " +
                std::to_string(hw) + " hardware thread(s))");
  bench::row_header("threads", "total (s) / speedup");
  bool sweep_identical = true;
  double t1 = 0.0;
  for (const int t : widths) {
    core::SmaConfig tcfg = cfg;
    tcfg.threads = t;
    // Untimed tracks for a fixed wall time first: straight after the
    // resize, or after a narrower width, the workers of a cold pool do
    // not yet run side by side, and a best-of-3 taken then measures
    // about 1x at every width.
    const auto warm_until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (std::chrono::steady_clock::now() < warm_until) track(swept, tcfg);
    core::TrackResult r = best_of_3(swept, tcfg);
    if (t == widths.front()) t1 = r.timings.total;
    sweep_identical = sweep_identical && r.flow == seq.flow;
    const double speedup = t1 / r.timings.total;
    bench::row(swept + ", " + std::to_string(t) + " thread(s)",
               bench::fmt(r.timings.total), bench::fmt(speedup, "x", 2));
    sweep.push_back({swept, t, speedup, std::move(r)});
  }
  std::printf("  bit-identical to sequential at every width: %s\n",
              sweep_identical ? "yes (paper Sec. 5.1 criterion)"
                              : "NO — BUG");
  identical = identical && sweep_identical;

  if (!json_path.empty()) {
    const double npix = static_cast<double>(size) * size;
    bench::JsonReport report;
    bench::add_environment_record(report);
    std::vector<std::pair<std::string, const core::TrackResult*>> records{
        {"sequential", &seq}};
    records.insert(records.end(), compared.begin(), compared.end());
    for (const auto& [name, rp] : records) {
      const core::TrackResult& r = *rp;
      bench::JsonRecord& rec = report.add(name);
      rec.wall_ms = r.timings.total * 1000.0;
      rec.pixels_per_s = npix / r.timings.total;
      rec.config = cfg.describe();
      rec.backend = name;
      rec.extra("surface_fit_ms", r.timings.surface_fit * 1000.0)
          .extra("geometric_vars_ms", r.timings.geometric_vars * 1000.0)
          .extra("match_precompute_ms", r.timings.match_precompute * 1000.0)
          .extra("semifluid_mapping_ms", r.timings.semifluid_mapping * 1000.0)
          .extra("hypothesis_matching_ms",
                 r.timings.hypothesis_matching * 1000.0)
          .extra("size", size);
    }
    // The efficiency curves: one record per backend and sweep width, so
    // trajectory tooling can plot speedup_vs_1t/efficiency straight from
    // the JSON.
    for (const SweepPoint& p : sweep) {
      bench::JsonRecord& rec = report.add(p.backend + "-threads-" +
                                          std::to_string(p.threads));
      rec.wall_ms = p.result.timings.total * 1000.0;
      rec.pixels_per_s = npix / p.result.timings.total;
      core::SmaConfig tcfg = cfg;
      tcfg.threads = p.threads;
      rec.config = tcfg.describe();
      rec.backend = p.backend;
      rec.extra("threads", p.threads)
          .extra("speedup_vs_1t", p.speedup)
          .extra("efficiency", p.speedup / p.threads)
          .extra("semifluid_mapping_ms",
                 p.result.timings.semifluid_mapping * 1000.0)
          .extra("hypothesis_matching_ms",
                 p.result.timings.hypothesis_matching * 1000.0)
          .extra("identical_to_sequential",
                 p.result.flow == seq.flow ? 1.0 : 0.0)
          .extra("size", size);
    }
    report.write(json_path);
  }
  std::printf("\n");
  return identical ? 0 : 1;
}
