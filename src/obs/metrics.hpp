// metrics.hpp — a registry of named counters, gauges and fixed-bucket
// histograms with one snapshot and CSV export.
//
// Before this layer, the repo's telemetry was scattered across ad-hoc
// structs (PipelineStats, TrackTimings, SimdRunReport tallies, FaultLog
// counts, bench-local JSON records) with no uniform export.  The
// MetricsRegistry unifies them: producers register a metric once by name
// and update it cheaply (lock-free atomics); consumers take a snapshot
// and export it.  The ad-hoc structs survive as the in-process API —
// core/obs_bridge.hpp publishes each of them into a registry under a
// stable name scheme ("pipeline.cache_hits", "track.surface_fit_seconds",
// "maspar.xnet_words", "fault.line-repaired", ...), and
// tests/test_obs.cpp cross-checks that every struct field has a
// registered metric, so a counter added without registration fails CI.
//
// Value semantics mirror Prometheus: counters accumulate, gauges hold
// the last set value, histograms count observations into fixed buckets
// (`bounds` are inclusive upper edges, plus a +inf overflow bucket) and
// track sum/count.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sma::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Name of a metric kind ("counter", "gauge", "histogram").
const char* metric_kind_name(MetricKind kind);

namespace detail {

/// add() for std::atomic<double> without requiring C++20 library
/// support for atomic floating-point fetch_add.
inline void atomic_add(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonically accumulating value (counts or seconds).
class Counter {
 public:
  void inc(double delta = 1.0) { detail::atomic_add(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bounds are inclusive upper edges in ascending
/// order; observations above the last bound land in the overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one metric, the unit of export.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;          ///< counter/gauge value; histogram sum
  std::uint64_t count = 0;     ///< histogram observation count
  std::vector<double> bounds;  ///< histogram bucket upper edges
  std::vector<std::uint64_t> buckets;
};

/// Thread-safe name -> metric registry.  Metric objects have stable
/// addresses for the registry's lifetime, so producers may cache the
/// reference returned by counter()/gauge()/histogram().  Re-requesting a
/// name with a different kind throws std::logic_error.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is only consulted on first registration.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  bool contains(const std::string& name) const;
  std::size_t size() const;

  /// Snapshot of every metric, sorted by name.
  std::vector<MetricSnapshot> snapshot() const;

  /// CSV export: header "metric,kind,value,count" then one row per
  /// counter/gauge and per-histogram summary rows (`name.sum`,
  /// `name.count`, `name.le_<bound>`).  Doubles are printed with %.17g
  /// so the exported values round-trip exactly.
  void write_csv(std::ostream& os) const;
  bool write_csv(const std::string& path) const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, MetricKind kind,
               std::vector<double>* bounds);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> metrics_;
};

/// Finds one snapshot by name; null when absent.
const MetricSnapshot* find_metric(const std::vector<MetricSnapshot>& snap,
                                  const std::string& name);

/// The CSV serialization shared by MetricsRegistry::write_csv and
/// RunReport::write_metrics_csv: header "metric,kind,value,count", one
/// row per counter/gauge (%.17g values), and per-histogram summary rows
/// `name.sum`, `name.count` and cumulative Prometheus-style
/// `name.le_<bound>` / `name.le_inf` rows.
void write_metrics_csv(std::ostream& os,
                       const std::vector<MetricSnapshot>& snap);

}  // namespace sma::obs
