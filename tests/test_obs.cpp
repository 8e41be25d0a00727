// test_obs.cpp — the observability layer's contracts:
//
//   * TraceRecorder ring-buffer semantics (bounded memory, dropped
//     counts, per-thread ids) and the TraceSpan disabled/enabled paths;
//   * Chrome trace_event JSON schema of write_chrome_trace, checked with
//     a minimal JSON parser, including one span per pipeline stage and
//     the nested hypothesis-search spans;
//   * MetricsRegistry kinds (counter/gauge/histogram), kind conflicts,
//     %.17g CSV round-tripping;
//   * the obs_bridge completeness contract: every PipelineStats /
//     TrackTimings / FaultLog field appears in the exported snapshot,
//     and the `--metrics` CSV reproduces PipelineStats EXACTLY.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/obs_bridge.hpp"
#include "core/pipeline.hpp"
#include "goes/synth.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace sma {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON value parser — just enough to schema-check the trace
// and report exports without a third-party dependency.
// ---------------------------------------------------------------------------

struct Json {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(
                                      static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }
  Json object() {
    expect('{');
    Json v;
    v.type = Json::kObject;
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      const Json key = string_value();
      expect(':');
      v.obj[key.str] = value();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }
  Json array() {
    expect('[');
    Json v;
    v.type = Json::kArray;
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.arr.push_back(value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }
  Json string_value() {
    expect('"');
    Json v;
    v.type = Json::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        c = e == 'n' ? '\n' : e;  // only the escapes our writers emit
      }
      v.str.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return v;
  }
  Json boolean() {
    Json v;
    v.type = Json::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }
  Json null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return {};
  }
  Json number() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    Json v;
    v.type = Json::kNumber;
    v.number = std::strtod(begin, &end);
    if (end == begin) fail("bad number");
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// Scoped recorder installation: never leaves a dangling global.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(std::size_t capacity = 1 << 14)
      : recorder_(capacity) {
    obs::set_trace_recorder(&recorder_);
  }
  ~ScopedRecorder() { obs::set_trace_recorder(nullptr); }
  obs::TraceRecorder& operator*() { return recorder_; }
  obs::TraceRecorder* operator->() { return &recorder_; }

 private:
  obs::TraceRecorder recorder_;
};

// Small, fast, deterministic tracked pair (continuous model).
core::SmaConfig tiny_config() {
  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 2;
  cfg.z_template_radius = 2;
  return cfg;
}

struct TinyPair {
  imaging::ImageF before;
  imaging::ImageF after;
};

TinyPair tiny_pair(int size = 32) {
  TinyPair p;
  p.before = goes::fractal_clouds(size, size, 11);
  p.after = goes::advect_frame(
      p.before, goes::rankine_vortex(size / 2.0, size / 2.0, size / 4.0, 1.0));
  return p;
}

std::map<std::string, double> parse_metrics_csv(const std::string& csv) {
  std::map<std::string, double> out;
  std::istringstream in(csv);
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "metric,kind,value,count");
  while (std::getline(in, line)) {
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = line.find(',', c1 + 1);
    const std::size_t c3 = line.find(',', c2 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        c3 == std::string::npos) {
      ADD_FAILURE() << "malformed CSV row: " << line;
      continue;
    }
    out[line.substr(0, c1)] =
        std::strtod(line.substr(c2 + 1, c3 - c2 - 1).c_str(), nullptr);
  }
  return out;
}

// ---------------------------------------------------------------------------
// TraceRecorder / TraceSpan
// ---------------------------------------------------------------------------

TEST(TraceRecorder, RecordsSpansSortedByStart) {
  obs::TraceRecorder rec;
  rec.record("cat", "b", 2.0, 1.0);
  rec.record("cat", "a", 1.0, 5.0);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_STREQ(events[1].name, "b");
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(TraceRecorder, RingOverflowKeepsNewestAndCountsDropped) {
  obs::TraceRecorder rec(/*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i)
    rec.record("cat", "s", static_cast<double>(i), 1.0);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Oldest-overwritten: the survivors are the last four records.
  EXPECT_DOUBLE_EQ(events.front().start_us, 6.0);
  EXPECT_DOUBLE_EQ(events.back().start_us, 9.0);
}

TEST(TraceRecorder, ClearEmptiesRingsAndDropCount) {
  obs::TraceRecorder rec(2);
  for (int i = 0; i < 5; ++i) rec.record("c", "n", i, 1.0);
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, PerThreadRingsGetDistinctTids) {
  obs::TraceRecorder rec;
  rec.record("main", "m", 0.0, 1.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t)
    threads.emplace_back([&rec] { rec.record("worker", "w", 1.0, 1.0); });
  for (auto& t : threads) t.join();
  std::set<std::uint32_t> tids;
  for (const auto& e : rec.events()) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 4u) << "each thread must get a distinct tid";
}

TEST(TraceSpan, NoopWithoutRecorder) {
  ASSERT_EQ(obs::trace_recorder(), nullptr);
  { obs::TraceSpan span("cat", "disabled"); }  // must not crash or record
  obs::TraceRecorder rec;
  obs::set_trace_recorder(&rec);
  obs::set_trace_recorder(nullptr);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceSpan, RecordsOnceEvenWithExplicitFinish) {
  ScopedRecorder rec;
  {
    obs::TraceSpan span("cat", "once");
    span.finish();
    span.finish();  // idempotent
  }                 // destructor must not double-record
  EXPECT_EQ(rec->events().size(), 1u);
}

TEST(TraceSpan, ClosesAgainstTheRecorderItOpenedWith) {
  obs::TraceRecorder rec;
  obs::set_trace_recorder(&rec);
  obs::TraceSpan span("cat", "toggled");
  obs::set_trace_recorder(nullptr);  // tracing disabled mid-span
  span.finish();
  EXPECT_EQ(rec.events().size(), 1u);
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, SchemaAndPipelineStageSpans) {
  const TinyPair p = tiny_pair();
  core::SmaPipeline pipeline(tiny_config());
  {
    ScopedRecorder rec;
    (void)pipeline.track_pair(p.before, p.after);
    std::ostringstream os;
    rec->write_chrome_trace(os);

    Json root;
    ASSERT_NO_THROW(root = JsonParser(os.str()).parse());
    ASSERT_EQ(root.type, Json::kObject);
    EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
    const Json& events = root.at("traceEvents");
    ASSERT_EQ(events.type, Json::kArray);
    ASSERT_FALSE(events.arr.empty());

    std::map<std::string, const Json*> by_name;
    for (const Json& e : events.arr) {
      ASSERT_EQ(e.type, Json::kObject);
      EXPECT_EQ(e.at("name").type, Json::kString);
      EXPECT_EQ(e.at("cat").type, Json::kString);
      EXPECT_EQ(e.at("ph").str, "X");
      EXPECT_EQ(e.at("ts").type, Json::kNumber);
      EXPECT_EQ(e.at("dur").type, Json::kNumber);
      EXPECT_GE(e.at("ts").number, 0.0);
      EXPECT_GE(e.at("dur").number, 0.0);
      EXPECT_EQ(e.at("pid").number, 1.0);
      EXPECT_EQ(e.at("tid").type, Json::kNumber);
      by_name[e.at("name").str] = &e;
    }

    // One span per pipeline stage this run exercised.
    for (const char* stage :
         {"track_pair", "surface_fit", "geometric_vars", "matching"})
      EXPECT_TRUE(by_name.count(stage)) << "missing stage span: " << stage;

    // Nested hypothesis-search spans sit inside the matching stage span.
    const Json& matching = *by_name.at("matching");
    const double m0 = matching.at("ts").number;
    const double m1 = m0 + matching.at("dur").number;
    int nested = 0;
    for (const Json& e : events.arr)
      if (e.at("name").str == "hypothesis_search") {
        EXPECT_EQ(e.at("cat").str, "match");
        EXPECT_GE(e.at("ts").number, m0 - 1e-3);
        EXPECT_LE(e.at("ts").number + e.at("dur").number, m1 + 1e-3);
        ++nested;
      }
    EXPECT_GT(nested, 0) << "no nested hypothesis-search spans";
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  obs::MetricsRegistry reg;
  reg.counter("c").inc();
  reg.counter("c").inc(2.5);
  EXPECT_DOUBLE_EQ(reg.counter("c").value(), 3.5);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  obs::MetricsRegistry reg;
  reg.gauge("g").set(7.0);
  reg.gauge("g").set(-1.25);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), -1.25);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperEdgesPlusOverflow) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h", {1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 3.0, 100.0}) h.observe(v);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);  // 0.5 and 1.0 (inclusive edge)
  EXPECT_EQ(buckets[1], 0u);
  EXPECT_EQ(buckets[2], 1u);  // 3.0
  EXPECT_EQ(buckets[3], 1u);  // 100.0 overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
}

TEST(Metrics, UnsortedHistogramBoundsThrow) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad", {2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, KindConflictThrows) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {}), std::logic_error);
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
}

TEST(Metrics, SnapshotIsSortedByName) {
  obs::MetricsRegistry reg;
  reg.gauge("z");
  reg.counter("a");
  reg.gauge("m");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[1].name, "m");
  EXPECT_EQ(snap[2].name, "z");
}

TEST(Metrics, CsvRoundTripsDoublesExactly) {
  obs::MetricsRegistry reg;
  const std::map<std::string, double> exact = {
      {"third", 1.0 / 3.0},
      {"pi", 3.14159265358979323846},
      {"tiny", 4.9406564584124654e-324},
      {"negative", -123456.789012345678},
  };
  for (const auto& [name, v] : exact) reg.gauge(name).set(v);
  std::ostringstream os;
  reg.write_csv(os);
  const auto parsed = parse_metrics_csv(os.str());
  for (const auto& [name, v] : exact) {
    ASSERT_TRUE(parsed.count(name)) << name;
    EXPECT_EQ(parsed.at(name), v) << "%.17g must round-trip " << name;
  }
}

TEST(Metrics, HistogramCsvRowsAreCumulativeWithTerseBounds) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {0.1, 1.0});
  for (double v : {0.05, 0.5, 2.0, 3.0}) h.observe(v);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("lat.le_0.1,histogram,1,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("lat.le_1,histogram,2,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("lat.le_inf,histogram,4,"), std::string::npos) << csv;
  EXPECT_EQ(csv.find("0.10000000000000001"), std::string::npos)
      << "bucket labels must use terse %g formatting";
}

// ---------------------------------------------------------------------------
// obs_bridge completeness + pipeline integration
// ---------------------------------------------------------------------------

TEST(ObsBridge, NameListsMatchStructShapes) {
  // One name per struct field; the sizeof static_asserts in
  // obs_bridge.cpp force these lists to be revisited on any change.
  EXPECT_EQ(core::pipeline_stats_metric_names().size(), 12u);
  EXPECT_EQ(core::track_timings_metric_names().size(), 7u);
  EXPECT_EQ(core::subpixel_probe_metric_names().size(), 2u);
  EXPECT_EQ(core::fault_metric_names().size(), 6u);
  EXPECT_EQ(core::pruning_metric_names().size(), 9u);
}

TEST(ObsBridge, EveryStructFieldAppearsInSnapshot) {
  obs::MetricsRegistry reg;
  core::publish_metrics(core::PipelineStats{}, reg);
  core::publish_metrics(core::TrackTimings{}, reg);
  core::publish_metrics(core::SubpixelProbeCount{}, reg);
  core::publish_metrics(core::FaultLog{}, reg);
  core::publish_metrics(core::PruneReport{}, reg);
  const auto snap = reg.snapshot();
  for (const auto* names :
       {&core::pipeline_stats_metric_names(),
        &core::track_timings_metric_names(),
        &core::subpixel_probe_metric_names(), &core::fault_metric_names(),
        &core::pruning_metric_names()})
    for (const std::string& name : *names)
      EXPECT_NE(obs::find_metric(snap, name), nullptr)
          << "field not exported: " << name;
}

TEST(ObsBridge, PipelineMetricsMatchStatsExactly) {
  const TinyPair p = tiny_pair();
  core::SmaPipeline pipeline(tiny_config());
  (void)pipeline.track_pair(p.before, p.after);
  (void)pipeline.track_pair(p.before, p.after);  // cache hits
  const core::PipelineStats stats = pipeline.stats();

  std::ostringstream os;
  pipeline.run_report().write_metrics_csv(os);
  const auto csv = parse_metrics_csv(os.str());

  // The CSV must reproduce the struct EXACTLY (%.17g round-trip).
  EXPECT_EQ(csv.at("pipeline.pairs_tracked"), 2.0);
  EXPECT_EQ(csv.at("pipeline.surface_fits"),
            static_cast<double>(stats.surface_fits));
  EXPECT_EQ(csv.at("pipeline.cache_hits"),
            static_cast<double>(stats.cache_hits));
  EXPECT_EQ(csv.at("pipeline.cache_misses"),
            static_cast<double>(stats.cache_misses));
  EXPECT_EQ(csv.at("pipeline.cache_evictions"),
            static_cast<double>(stats.cache_evictions));
  EXPECT_EQ(csv.at("pipeline.precompute_builds"),
            static_cast<double>(stats.precompute_builds));
  EXPECT_EQ(csv.at("pipeline.surface_fit_seconds"),
            stats.surface_fit_seconds);
  EXPECT_EQ(csv.at("pipeline.geometric_vars_seconds"),
            stats.geometric_vars_seconds);
  EXPECT_EQ(csv.at("pipeline.match_precompute_seconds"),
            stats.match_precompute_seconds);
  EXPECT_EQ(csv.at("pipeline.matching_seconds"), stats.matching_seconds);
  EXPECT_EQ(csv.at("pipeline.postprocess_seconds"),
            stats.postprocess_seconds);
  EXPECT_EQ(csv.at("pipeline.products_seconds"), stats.products_seconds);
  EXPECT_EQ(csv.at("pipeline.total_seconds"), stats.total_seconds());
  // The per-pair histogram saw both pairs.
  EXPECT_EQ(csv.at("pipeline.pair_seconds.count"), 2.0);
}

TEST(RunReport, CarriesIdentityAndMetrics) {
  const TinyPair p = tiny_pair();
  core::SmaPipeline pipeline(tiny_config());
  (void)pipeline.track_pair(p.before, p.after);
  const obs::RunReport report = pipeline.run_report();
  EXPECT_EQ(report.name, "sma_pipeline");
  EXPECT_EQ(report.backend, "sequential");
  EXPECT_FALSE(report.config.empty());
  const obs::MetricSnapshot* pairs =
      obs::find_metric(report.metrics, "pipeline.pairs_tracked");
  ASSERT_NE(pairs, nullptr);
  EXPECT_EQ(pairs->value, 1.0);
  EXPECT_EQ(obs::find_metric(report.metrics, "no.such.metric"), nullptr);

  std::ostringstream os;
  report.write_json(os);
  Json root;
  ASSERT_NO_THROW(root = JsonParser(os.str()).parse());
  EXPECT_EQ(root.at("backend").str, "sequential");
  EXPECT_EQ(root.at("metrics").at("pipeline.pairs_tracked").number, 1.0);
}

}  // namespace
}  // namespace sma
