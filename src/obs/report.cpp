#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

namespace sma::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string fmt_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double RunReport::metric(const std::string& metric_name,
                         double fallback) const {
  const MetricSnapshot* s = find_metric(metrics, metric_name);
  return s != nullptr ? s->value : fallback;
}

void RunReport::write_json(std::ostream& os) const {
  os << "{\"name\":\"" << json_escape(name) << "\",\"config\":\""
     << json_escape(config) << "\",\"backend\":\"" << json_escape(backend)
     << "\",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSnapshot& s = metrics[i];
    os << (i > 0 ? "," : "") << "\"" << json_escape(s.name)
       << "\":" << fmt_exact(s.value);
  }
  os << "}}";
}

void RunReport::write_metrics_csv(std::ostream& os) const {
  obs::write_metrics_csv(os, metrics);
}

bool RunReport::write_metrics_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "RunReport: cannot open %s\n", path.c_str());
    return false;
  }
  write_metrics_csv(out);
  return out.good();
}

RunReport build_run_report(std::string name, const MetricsRegistry& registry) {
  RunReport report;
  report.name = std::move(name);
  report.metrics = registry.snapshot();
  return report;
}

bool write_run_reports(const std::string& path,
                       const std::vector<RunReport>& reports) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "write_run_reports: cannot open %s\n", path.c_str());
    return false;
  }
  out << "[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    reports[i].write_json(out);
    out << (i + 1 < reports.size() ? ",\n" : "\n");
  }
  out << "]\n";
  std::printf("wrote %s (%zu records)\n", path.c_str(), reports.size());
  return out.good();
}

double histogram_quantile(const MetricSnapshot& snap, double q) {
  if (snap.kind != MetricKind::kHistogram) return snap.value;
  if (snap.count == 0 || snap.buckets.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(snap.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
    const std::uint64_t in_bucket = snap.buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      // Overflow bucket: no finite upper edge to interpolate toward.
      if (i >= snap.bounds.size()) return snap.bounds.back();
      const double lo = i == 0 ? 0.0 : snap.bounds[i - 1];
      const double hi = snap.bounds[i];
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative += in_bucket;
  }
  return snap.bounds.empty() ? 0.0 : snap.bounds.back();
}

}  // namespace sma::obs
