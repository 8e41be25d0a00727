// bench_postprocess_ablation — quantifies the Sec. 6 future-work
// techniques implemented in core/postprocess.hpp: robust estimation
// (outlier mask + vector median), Gaussian regularization and relaxation
// labeling, applied to a noisy tracking result.
//
// Workload: the Frederic analog tracked with a deliberately small
// template (noisy matches), then each post-processing recipe; the table
// reports dense RMS vs the analytic ground truth.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/datasets.hpp"

namespace {

using namespace sma;

void print_ablation() {
  const int size = 64;
  const goes::FredericDataset d = goes::make_frederic_analog(size, 31, 2.0);
  core::SmaConfig cfg = core::frederic_scaled_config();
  cfg.z_search_radius = 3;
  cfg.z_template_radius = 2;  // 5x5 template: deliberately noisy
  const core::TrackResult raw =
      core::SmaPipeline(cfg, {.backend = "vector"}).track_pair(d.left0, d.left1);

  const int margin = 12;
  const double rms_raw = imaging::rms_endpoint_error(raw.flow, d.truth, margin);

  const imaging::FlowField median = core::vector_median_filter(raw.flow, 1);
  const double rms_median = imaging::rms_endpoint_error(median, d.truth, margin);

  const imaging::FlowField robust = core::robust_postprocess(raw.flow);
  const double rms_robust = imaging::rms_endpoint_error(robust, d.truth, margin);

  const imaging::FlowField smooth = core::gaussian_smooth(raw.flow, 1.5, 0.1);
  const double rms_smooth = imaging::rms_endpoint_error(smooth, d.truth, margin);

  const imaging::FlowField relaxed = core::relaxation_label(raw.flow, 1, 4);
  const double rms_relaxed =
      imaging::rms_endpoint_error(relaxed, d.truth, margin);

  bench::header(
      "Sec. 6 — motion-field post-processing ablation (5x5 template, "
      "noisy matches)");
  bench::row_header("", "dense RMS (px)");
  bench::row("raw SMA output", "", bench::fmt(rms_raw));
  bench::row("vector median (r=1)", "", bench::fmt(rms_median));
  bench::row("robust pipeline (mask+fill+median)", "",
             bench::fmt(rms_robust));
  bench::row("Gaussian regularization", "", bench::fmt(rms_smooth));
  bench::row("relaxation labeling (4 iters)", "", bench::fmt(rms_relaxed));
  std::printf(
      "\n  every recipe should sit at or below the raw RMS; the robust\n"
      "  pipeline and relaxation labeling preserve motion discontinuities\n"
      "  that Gaussian smoothing blurs (see test_postprocess).\n\n");
}

void BM_VectorMedian(benchmark::State& state) {
  imaging::FlowField f(64, 64);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      f.set(x, y, imaging::FlowVector{static_cast<float>((x * 7 + y) % 5),
                                      static_cast<float>((y * 3 + x) % 4),
                                      0.1f, 1});
  for (auto _ : state)
    benchmark::DoNotOptimize(core::vector_median_filter(f, 1));
}
BENCHMARK(BM_VectorMedian)->Unit(benchmark::kMillisecond);

void BM_RelaxationLabel(benchmark::State& state) {
  imaging::FlowField f(64, 64);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      f.set(x, y, imaging::FlowVector{static_cast<float>((x * 7 + y) % 5),
                                      static_cast<float>((y * 3 + x) % 4),
                                      0.1f, 1});
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::relaxation_label(f, 1, static_cast<int>(state.range(0))));
}
BENCHMARK(BM_RelaxationLabel)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
