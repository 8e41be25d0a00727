#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace sma::obs {

namespace {

// %.17g round-trips any finite double exactly.
std::string fmt_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Bucket-bound labels are identifiers, not data: prefer "0.1" over
// "0.10000000000000001".
std::string fmt_bound(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("Histogram: bounds must be ascending");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name,
                                               MetricKind kind,
                                               std::vector<double>* bounds) {
  if (name.empty())
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("MetricsRegistry: metric '" + name +
                             "' already registered as " +
                             metric_kind_name(it->second.kind));
    return it->second;
  }
  Entry e;
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      e.histogram = std::make_unique<Histogram>(
          bounds != nullptr ? std::move(*bounds) : std::vector<double>{});
      break;
  }
  return metrics_.emplace(name, std::move(e)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *entry(name, MetricKind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *entry(name, MetricKind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  return *entry(name, MetricKind::kHistogram, &bounds).histogram;
}

bool MetricsRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.count(name) != 0;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(metrics_.size());
  for (const auto& [name, e] : metrics_) {  // std::map: already sorted
    MetricSnapshot s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = e.counter->value();
        break;
      case MetricKind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricKind::kHistogram:
        s.value = e.histogram->sum();
        s.count = e.histogram->count();
        s.bounds = e.histogram->bounds();
        s.buckets = e.histogram->bucket_counts();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void write_metrics_csv(std::ostream& os,
                       const std::vector<MetricSnapshot>& snap) {
  os << "metric,kind,value,count\n";
  for (const MetricSnapshot& s : snap) {
    if (s.kind == MetricKind::kHistogram) {
      os << s.name << ".sum,histogram," << fmt_exact(s.value) << ",\n";
      os << s.name << ".count,histogram," << s.count << ",\n";
      // Prometheus "le" semantics: each row counts observations at or
      // below its bound (cumulative), ending at le_inf == count.
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        cumulative += s.buckets[i];
        os << s.name << ".le_";
        if (i < s.bounds.size())
          os << fmt_bound(s.bounds[i]);
        else
          os << "inf";
        os << ",histogram," << cumulative << ",\n";
      }
    } else {
      os << s.name << ',' << metric_kind_name(s.kind) << ','
         << fmt_exact(s.value) << ",\n";
    }
  }
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  obs::write_metrics_csv(os, snapshot());
}

bool MetricsRegistry::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "MetricsRegistry: cannot open %s\n", path.c_str());
    return false;
  }
  write_csv(out);
  return out.good();
}

const MetricSnapshot* find_metric(const std::vector<MetricSnapshot>& snap,
                                  const std::string& name) {
  for (const MetricSnapshot& s : snap)
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace sma::obs
