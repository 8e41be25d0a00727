// report.hpp — the RunReport aggregator: one machine-readable record of
// what a run did (config, backend, metrics snapshot).
//
// Every front end used to invent its own report (printf tables in the
// benches, a bench-local JsonReport class, CLI printfs).  A RunReport is
// the one shape they all emit now: SmaPipeline::run_report() fills it
// from the pipeline's registry, the MasPar executor's SimdRunReport and
// the fault layer's FaultLog publish into the same registry first
// (core/obs_bridge.hpp, maspar/sma_simd.hpp), and bench_util.hpp's
// JsonReport serializes through write_run_reports() — so BENCH_*.json,
// `sma_cli --metrics` CSV and the tests all read the same numbers.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace sma::obs {

struct RunReport {
  std::string name;     ///< tool or record name ("sma_cli track", ...)
  std::string config;   ///< free-form config description
  std::string backend;  ///< tracker backend name, if one was involved
  std::vector<MetricSnapshot> metrics;

  /// Convenience: value of a counter/gauge metric, or `fallback`.
  double metric(const std::string& metric_name, double fallback = 0.0) const;

  /// One JSON object {"name":..., "config":..., "backend":...,
  /// "metrics":{...}}.
  void write_json(std::ostream& os) const;

  /// The registry CSV ("metric,kind,value,count") of this report's
  /// snapshot — the `sma_cli --metrics` format.  Doubles use %.17g so
  /// PipelineStats totals round-trip exactly.
  void write_metrics_csv(std::ostream& os) const;
  bool write_metrics_csv(const std::string& path) const;
};

/// Builds a report from a registry snapshot.
RunReport build_run_report(std::string name, const MetricsRegistry& registry);

/// Writes a JSON array of reports (the BENCH_*.json artifact shape).
bool write_run_reports(const std::string& path,
                       const std::vector<RunReport>& reports);

/// Quantile estimate from a histogram snapshot (q in [0, 1]), linearly
/// interpolated inside the winning bucket the way Prometheus's
/// histogram_quantile does: the lower edge of the first bucket is 0,
/// the overflow bucket reports its lower edge (the last bound) since
/// its upper edge is unbounded.  Returns 0 for empty histograms and
/// NaN-free results always; non-histogram snapshots return `snap.value`
/// unchanged (a counter/gauge is its own every-quantile).  The serving
/// layer's STATS summary and the load bench both read p50/p99 through
/// this.
double histogram_quantile(const MetricSnapshot& snap, double q);

}  // namespace sma::obs
