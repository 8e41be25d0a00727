// bench_fault_tolerance — graceful degradation under injected telemetry
// faults (robustness extension; the paper assumes clean GVAR frames).
//
// Sweeps scan-line dropout rates on the Frederic analog and compares
// three pipelines against the dense analytic truth:
//   clean        — no faults, the baseline accuracy;
//   unrepaired   — corrupted frames fed straight to the tracker;
//   repaired     — corrupted frames through imaging::repair_frame, with
//                  the validity masks threaded into the 6x6 systems.
// The acceptance bar (mirrored in tests/test_fault_tolerance.cpp): at 5%
// dropout the repaired mean error stays within 2x of clean while the
// unrepaired error is demonstrably worse.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sma.hpp"
#include "goes/datasets.hpp"

using namespace sma;

namespace {

struct RunStats {
  double rms = 0.0;
  double valid_fraction = 0.0;
  double mean_confidence = 0.0;
};

RunStats measure(const imaging::FlowField& flow,
                 const imaging::FlowField& truth, int margin) {
  RunStats s;
  s.rms = imaging::rms_endpoint_error(flow, truth, margin);
  std::size_t valid = 0;
  double conf = 0.0;
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      const imaging::FlowVector f = flow.at(x, y);
      if (f.valid) {
        ++valid;
        conf += f.confidence;
      }
    }
  const std::size_t n =
      static_cast<std::size_t>(flow.width()) * flow.height();
  s.valid_fraction = n ? static_cast<double>(valid) / n : 0.0;
  s.mean_confidence = valid ? conf / valid : 0.0;
  return s;
}

}  // namespace

int main() {
  const int size = 64;
  const int margin = 10;
  const goes::FredericDataset data = goes::make_frederic_analog(size, 31, 2.0);

  core::SmaConfig cfg = core::frederic_scaled_config();
  cfg.z_search_radius = 3;
  // A fresh pipeline per pair: the corrupted frames are rebuilt in place
  // every iteration, so no geometry may be cached across them.
  const core::PipelineOptions vec{.backend = "vector"};

  const core::TrackResult clean =
      core::SmaPipeline(cfg, vec).track_pair(data.left0, data.left1);
  const RunStats clean_stats = measure(clean.flow, data.truth, margin);

  bench::header("Fault tolerance — scan-line dropout sweep (Frederic " +
                std::to_string(size) + "x" + std::to_string(size) + ")");
  std::printf("  clean baseline: %.3f px RMS, %.0f%% valid\n\n",
              clean_stats.rms, 100.0 * clean_stats.valid_fraction);
  std::printf("  %-8s %14s %14s %10s %10s\n", "dropout", "unrepaired",
              "repaired", "valid", "confid.");
  std::printf("  %-8s %14s %14s %10s %10s\n", "-------", "----------",
              "--------", "-----", "-------");

  bool pass = true;
  for (const double rate : {0.0, 0.02, 0.05, 0.10}) {
    core::FaultSpec spec;
    spec.seed = 99;
    spec.scanline_dropout_rate = rate;
    spec.bit_noise_rate = rate / 5.0;
    const core::FaultInjector injector(spec);
    core::FaultLog log;

    imaging::ImageF f0 = data.left0;
    imaging::ImageF f1 = data.left1;
    injector.corrupt_frame(f0, 0, &log);
    injector.corrupt_frame(f1, 1, &log);

    const core::TrackResult raw =
        core::SmaPipeline(cfg, vec).track_pair(f0, f1);
    const RunStats raw_stats = measure(raw.flow, data.truth, margin);

    const imaging::RepairReport rep0 = imaging::repair_frame(f0);
    const imaging::RepairReport rep1 = imaging::repair_frame(f1);
    core::TrackerInput in;
    in.intensity_before = in.surface_before = &rep0.image;
    in.intensity_after = in.surface_after = &rep1.image;
    in.validity_before = &rep0.validity;
    in.validity_after = &rep1.validity;
    const core::TrackResult fixed =
        core::SmaPipeline(cfg, vec).track_pair(in);
    const RunStats fixed_stats = measure(fixed.flow, data.truth, margin);

    std::printf("  %-8s %11.3f px %11.3f px %9.0f%% %10.3f\n",
                bench::fmt(100.0 * rate, "%", 0).c_str(), raw_stats.rms,
                fixed_stats.rms, 100.0 * fixed_stats.valid_fraction,
                fixed_stats.mean_confidence);
    if (rate == 0.0) {
      // Zero fault rates must leave the pipeline bit-identical.
      if (!(imaging::bit_equal(raw.flow, clean.flow) &&
            imaging::bit_equal(fixed.flow, clean.flow))) {
        std::printf("    !! zero-rate run is not flow-identical to clean\n");
        pass = false;
      }
    } else {
      std::printf("    faults: %s\n", log.summary().c_str());
    }
    if (rate == 0.05) {
      const bool within = fixed_stats.rms <= 2.0 * clean_stats.rms;
      const bool worse = raw_stats.rms > fixed_stats.rms;
      std::printf("    5%% gate: repaired <= 2x clean: %s; "
                  "unrepaired worse than repaired: %s\n",
                  within ? "yes" : "NO", worse ? "yes" : "NO");
      pass = pass && within && worse;
    }
  }

  std::printf("\n  overall: %s\n\n",
              pass ? "PASS (graceful degradation under dropout)"
                   : "CHECK VALUES ABOVE");
  return pass ? 0 : 1;
}
