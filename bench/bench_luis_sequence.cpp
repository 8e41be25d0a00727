// bench_luis_sequence — reproduces the Sec. 5 Hurricane Luis result: a
// dense rapid-scan sequence (the paper processed 490 frames) tracked
// pairwise with the continuous model (z-template 11x11, z-search 9x9),
// frames streamed through the MPDA disk-array model; ~6 min/pair on the
// MP-2 and a speedup of over 150 vs the sequential version.
#include <cstdio>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/datasets.hpp"
#include "maspar/cost_model.hpp"
#include "goes/storm_track.hpp"
#include "maspar/pdisk.hpp"

using namespace sma;

int main() {
  // ---------- paper-scale model ----------
  const core::Workload w{512, 512, core::luis_config()};
  const maspar::CostModel model;
  const maspar::PhaseTimes mp2 = model.mp2_times(w, 2);
  const maspar::PhaseTimes sgi = model.sgi_times(w, 2);

  bench::header("Sec. 5 — Hurricane Luis (490-frame rapid scan, modeled)");
  bench::row_header("paper", "model");
  bench::row("config", "11x11 tmpl, 9x9 srch",
             std::to_string(core::luis_config().z_template_size()) + "x" +
                 std::to_string(core::luis_config().z_template_size()) +
                 " / " + std::to_string(core::luis_config().z_search_size()) +
                 "x" + std::to_string(core::luis_config().z_search_size()));
  bench::row("MP-2 minutes per pair", "~6.0",
             bench::fmt(mp2.total() / 60.0, "", 2));
  bench::row("speedup vs sequential", ">150",
             bench::fmt(sgi.total() / mp2.total(), "x", 0));
  const double io_s = model.mpda_seconds(490ull * 512 * 512);
  std::printf(
      "\n  MPDA staging of all 490 frames: %.1f s total (30+ MB/s arrays)\n"
      "  -> I/O is negligible against %.1f min/pair of compute, which is\n"
      "  why the MPDA made the 490-frame run practical (Sec. 3.1).\n",
      io_s, mp2.total() / 60.0);

  // ---------- scaled measured sequence ----------
  const int size = 64;
  const int frames = 5;
  const goes::RapidScanDataset data =
      goes::make_luis_analog(size, frames, 29, 1.5);
  maspar::FrameStream stream(data.frames);

  bench::header("Scaled measured sequence (" + std::to_string(frames) +
                " frames of " + std::to_string(size) + "x" +
                std::to_string(size) + ", " +
                core::luis_scaled_config().describe() + ")");
  std::printf("  %-10s %12s %12s %14s\n", "pair", "host (s)", "RMS (px)",
              "mean wind");
  std::printf("  %-10s %12s %12s %14s\n", "----------", "--------",
              "--------", "---------");

  // The streamed pairs run through one SmaPipeline: frame t's geometry,
  // fitted as the "after" image of pair t-1, is a cache hit when it
  // returns as the "before" image of pair t.
  core::PipelineOptions popts;
  popts.backend = "tiled";
  core::SmaPipeline pipeline(core::luis_scaled_config(), popts);

  const imaging::ImageF* prev = &stream.next();
  int pair_index = 0;
  double total_host = 0.0;
  while (!stream.exhausted()) {
    const imaging::ImageF* cur = &stream.next();
    const core::TrackResult r = pipeline.track_pair(*prev, *cur);
    double mean_speed = 0.0;
    int n = 0;
    for (int y = 8; y < size - 8; ++y)
      for (int x = 8; x < size - 8; ++x) {
        const imaging::FlowVector f = r.flow.at(x, y);
        mean_speed += std::hypot(f.u, f.v);
        ++n;
      }
    std::printf("  t%02d->t%02d   %12.3f %12.3f %14.2f\n", pair_index,
                pair_index + 1, r.timings.total,
                imaging::rms_endpoint_error(r.flow, data.tracks),
                mean_speed / n);
    total_host += r.timings.total;
    prev = cur;
    ++pair_index;
  }
  std::printf("\n  modeled MPDA I/O for these frames: %.6f s\n",
              stream.io_seconds());
  std::printf("  host compute total: %.2f s -> I/O fraction %.4f%%\n",
              total_host, 100.0 * stream.io_seconds() / total_host);

  // Geometry-cache effect: the pre-pipeline path fits every frame twice
  // (2 fits/pair); the cached pipeline fits each distinct frame once,
  // approaching 1 fit/pair (half the surface-fit work) as T grows.
  const core::PipelineStats& ps = pipeline.stats();
  const std::size_t naive_fits = 2 * ps.pairs_tracked;
  const double fits_per_pair =
      static_cast<double>(ps.surface_fits) / ps.pairs_tracked;
  std::printf(
      "  geometry cache: %zu surface fits for %zu pairs (naive %zu)\n"
      "  -> %.2f fits/pair vs 2.00 naive (%.0f%% of the surface-fit work; "
      "limit 50%%)\n"
      "  cache hits %zu, misses %zu; surface-fit+geometry time %.3f s "
      "(naive ~%.3f s)\n",
      ps.surface_fits, ps.pairs_tracked, naive_fits, fits_per_pair,
      100.0 * ps.surface_fits / naive_fits, ps.cache_hits, ps.cache_misses,
      ps.surface_fit_seconds + ps.geometric_vars_seconds,
      (ps.surface_fit_seconds + ps.geometric_vars_seconds) * naive_fits /
          ps.surface_fits);

  // Derived product: the storm-center track from the flow sequence
  // (goes/storm_track.hpp) — the translating Luis vortex should march
  // steadily across the frame.
  {
    core::PipelineOptions sopts;
    sopts.backend = "tiled";
    sopts.track.subpixel = true;
    sopts.robust = true;
    core::SequenceResult seq =
        core::SmaPipeline(core::luis_scaled_config(), sopts)
            .track_sequence(data.frames);
    // Vorticity centroids need a smooth field: regularize first.
    for (auto& flow : seq.flows) flow = core::gaussian_smooth(flow, 1.5);
    const auto fixes = goes::storm_track(seq.flows, /*fraction=*/0.6,
                                         /*min_peak=*/1e-3, /*margin=*/12);
    std::printf("\n  storm-center fixes (vorticity centroid):\n");
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      if (fixes[i])
        std::printf("    t%02zu: (%.1f, %.1f)\n", i, fixes[i]->x,
                    fixes[i]->y);
      else
        std::printf("    t%02zu: no vortex detected\n", i);
    }
  }
  std::printf("\n");
  return 0;
}
