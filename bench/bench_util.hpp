// bench_util.hpp — shared utilities for the benchmark harnesses:
// table formatting plus small synthetic-input helpers.
//
// Every bench binary regenerates one table or figure from the paper:
// it prints the paper's reported values next to this reproduction's
// modeled (paper-scale) and measured (scaled run) values, so
// EXPERIMENTS.md can be filled directly from `./bench_* | tee`.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "imaging/image.hpp"
#include "obs/report.hpp"
#include "sched/scheduler.hpp"
#include "simd/dispatch.hpp"

namespace sma::bench {

/// Shifts an image by an integer offset with clamped borders:
/// features move by (+dx, +dy).
inline imaging::ImageF shift_clamped(const imaging::ImageF& src, int dx,
                                     int dy) {
  imaging::ImageF out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y)
    for (int x = 0; x < src.width(); ++x)
      out.at(x, y) = src.at_clamped(x - dx, y - dy);
  return out;
}

inline void header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline void row(const std::string& label, const std::string& paper,
                const std::string& repro) {
  std::printf("  %-34s %16s %18s\n", label.c_str(), paper.c_str(),
              repro.c_str());
}

inline void row_header(const std::string& col_paper = "paper",
                       const std::string& col_repro = "this repro") {
  std::printf("  %-34s %16s %18s\n", "", col_paper.c_str(), col_repro.c_str());
  std::printf("  %-34s %16s %18s\n", "----------------------------------",
              "----------------", "------------------");
}

inline std::string fmt(double v, const char* unit = "", int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%s", prec, v, unit);
  return buf;
}

inline std::string fmt_int(long long v, const char* unit = "") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld%s", v, unit);
  return buf;
}

// ---------------------------------------------------------------------------
// Machine-readable bench reports.  Every record carries the common
// (name, wall_ms, pixels_per_s, config) quartet plus free-form numeric
// extras; JsonReport::write serializes through obs::write_run_reports,
// so BENCH_*.json artifacts share the RunReport shape with
// `sma_cli --metrics` and SmaPipeline::run_report().
// ---------------------------------------------------------------------------

struct JsonRecord {
  std::string name;
  double wall_ms = 0.0;
  double pixels_per_s = 0.0;
  std::string config;
  /// Tracker backend that produced this measurement; records that
  /// involve none by design (e.g. the environment stamp) carry the
  /// explicit sentinel "none" rather than an empty field.
  std::string backend;
  std::vector<std::pair<std::string, double>> extras;

  JsonRecord& extra(const std::string& key, double value) {
    extras.emplace_back(key, value);
    return *this;
  }
};

class JsonReport {
 public:
  JsonRecord& add(const std::string& name) {
    records_.emplace_back();
    records_.back().name = name;
    return records_.back();
  }

  /// Writes the record array to `path` as a JSON array of RunReports;
  /// returns false (and prints to stderr) if the file cannot be opened.
  bool write(const std::string& path) const {
    std::vector<obs::RunReport> reports;
    reports.reserve(records_.size());
    for (const JsonRecord& r : records_) {
      obs::MetricsRegistry reg;
      // Timing gauges only for records that measured something: the
      // environment stamp (and any other annotation record) leaves
      // wall_ms/pixels_per_s at 0 and must not export zeroed timings
      // that downstream trajectory plots would read as "took 0 ms".
      if (r.wall_ms != 0.0) reg.gauge("wall_ms").set(r.wall_ms);
      if (r.pixels_per_s != 0.0) reg.gauge("pixels_per_s").set(r.pixels_per_s);
      for (const auto& [key, value] : r.extras) reg.gauge(key).set(value);
      obs::RunReport report = obs::build_run_report(r.name, reg);
      report.config = r.config;
      report.backend = r.backend;
      reports.push_back(std::move(report));
    }
    return obs::write_run_reports(path, reports);
  }

 private:
  std::vector<JsonRecord> records_;
};

/// Stamps an `environment` record into the report so BENCH_*.json
/// trajectories are comparable across machines and toolchains: compiler
/// version and build flags (in the record's config string), the active
/// SIMD dispatch level, the width of the shared sched pool, and the
/// scheduler thread pinning in effect (scripts/run_benches.sh pins
/// SMA_THREADS only on bit-identity-sensitive legs, so the env value is
/// recorded when present).  The record carries no wall_ms/pixels_per_s
/// — it measures nothing.
inline void add_environment_record(JsonReport& report) {
#if !defined(SMA_BENCH_BUILD_FLAGS)
#define SMA_BENCH_BUILD_FLAGS "unknown"
#endif
  const simd::SimdLevel level = simd::active_level();
  JsonRecord& rec = report.add("environment");
  // Explicit "none" (rather than an empty string) so trajectory tooling
  // can distinguish "this record involves no backend by design" from a
  // bench that forgot to stamp one.
  rec.backend = "none";
  rec.config = std::string("compiler=") + __VERSION__ +
               "; flags=" SMA_BENCH_BUILD_FLAGS "; simd=" +
               simd::level_name(level);
  rec.extra("simd_level_id", static_cast<double>(level));
  rec.extra("sched_threads",
            static_cast<double>(sched::ThreadPool::shared().threads()));
  if (const char* pinned = std::getenv("SMA_THREADS"))
    rec.extra("sma_threads_env", std::atof(pinned));
}

}  // namespace sma::bench
