// semi_pair.cpp — the CLI path for the paper's headline F_semi model.
//
// One caller rotates through kPairs distinct Frederic-analog pairs (more
// than the geometry cache's 8 frames, so every pair pays its own fits,
// as a one-shot CLI call does): read both PGMs, SmaPipeline::track_pair
// on the `vector` backend with frederic_scaled_config, write the flow
// text.  Closed loop, one request in flight.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "goes/datasets.hpp"
#include "imaging/io.hpp"

namespace perfbench {

namespace core = sma::core;
namespace imaging = sma::imaging;

namespace {

constexpr int kPairs = 16;
constexpr int kEdge = 48;
constexpr double kMaxSpeedPx = 2.5;  ///< inside the 7x7 search window
constexpr int kWarmupPairs = 2;

std::string frame_path(const Options& o, int pair, char which) {
  return o.dir + "/semi_" + std::to_string(pair) + "_" + which + ".pgm";
}
std::string truth_path(const Options& o, int pair) {
  return o.dir + "/semi_" + std::to_string(pair) + "_truth.txt";
}

}  // namespace

void prepare_semi_pair(const Options& o) {
  for (int i = 0; i < kPairs; ++i) {
    const sma::goes::FredericDataset d = sma::goes::make_frederic_analog(
        kEdge, o.seed * 7919u + static_cast<std::uint32_t>(i), kMaxSpeedPx);
    imaging::write_pgm(d.left0, frame_path(o, i, 'a'));
    imaging::write_pgm(d.left1, frame_path(o, i, 'b'));
    imaging::write_flow_text(d.truth, truth_path(o, i));
  }
}

RunResult run_semi_pair(const Options& o) {
  std::vector<imaging::FlowField> truth;
  for (int i = 0; i < kPairs; ++i)
    truth.push_back(imaging::read_flow_text(truth_path(o, i)));

  const core::SmaConfig config = core::frederic_scaled_config();
  const int margin = interior_margin(config);
  core::PipelineOptions popts;
  popts.backend = "vector";
  if (o.trace) popts.backend = ProbeBackend::install().name();
  const std::string out_path = o.dir + "/semi_flow.txt";

  Tracer tracer(o.trace);
  std::vector<std::string> first(kPairs);  // first flow bytes per input
  long warmup_failures = 0;

  struct Pair {
    double latency_s = 0.0;
    std::size_t valid = 0;
    bool ok = false;
  };
  // One closed-loop request: PGMs on disk -> flow file on disk.
  auto run_pair = [&](core::SmaPipeline& pipeline, int k,
                      std::uint64_t id) -> Pair {
    const auto t0 = Clock::now();
    const imaging::ImageF before = imaging::read_pgm(frame_path(o, k, 'a'));
    const imaging::ImageF after = imaging::read_pgm(frame_path(o, k, 'b'));
    const auto t1 = Clock::now();
    const core::TrackResult r = pipeline.track_pair(before, after);
    const auto t2 = Clock::now();
    imaging::write_flow_text(r.flow, out_path);
    const auto t3 = Clock::now();

    if (tracer.enabled() && id != 0) {  // id 0: warm-up, not traced
      const int root = tracer.add("e2e.pair", t0, t3, id, -1);
      tracer.add("imaging.read", t0, t1, id, root);
      const int track = tracer.add("core.track_pair", t1, t2, id, root);
      // The pipeline's own stage timers, laid out in stage order.
      auto at = t1;
      const std::pair<const char*, double> stages[] = {
          {"surface.fit", r.timings.surface_fit},
          {"surface.derive", r.timings.geometric_vars},
          {"precompute.build", r.timings.match_precompute},
          {"match.semifluid_mapping", r.timings.semifluid_mapping},
          {"match.hypothesis", r.timings.hypothesis_matching}};
      for (const auto& [layer, sec] : stages) {
        tracer.add_duration(layer, at, sec, id, track);
        at += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(sec));
      }
      tracer.add("imaging.flow_write", t2, t3, id, root);
    }

    Pair p;
    p.latency_s = seconds_between(t0, t3);
    p.valid = r.flow.count_valid();
    const std::string bytes = read_file(out_path);
    if (first[k].empty()) first[k] = bytes;
    const double rms = imaging::rms_endpoint_error(r.flow, truth[k], margin);
    p.ok = !bytes.empty() && bytes == first[k] && rms < kRmsLimitPx;
    return p;
  };

  // Set-up: pipeline construction, pool spin-up and a fixed warm-up,
  // repeated so the reported figure is a median.
  std::vector<double> setup_s;
  std::optional<core::SmaPipeline> pipeline;
  std::uint64_t next_id = 1;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pipeline.reset();
    const auto t0 = Clock::now();
    sma::sched::ThreadPool::shared().resize(
        sma::sched::ThreadPool::default_threads());
    pipeline.emplace(config, popts);
    for (int k = 0; k < kWarmupPairs; ++k)
      if (!run_pair(*pipeline, k, 0).ok) ++warmup_failures;
    setup_s.push_back(seconds_since(t0));
  }

  // Timed window.
  const sma::sched::SchedStats sched0 = sma::sched::ThreadPool::shared().stats();
  const MatchTally match0 =
      o.trace ? ProbeBackend::install().snapshot() : MatchTally{};
  const core::PipelineStats stats0 = pipeline->stats();
  std::vector<double> latencies;
  double ok_valid = 0.0;
  long ok = 0;
  const auto start = Clock::now();
  const auto until = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(o.seconds));
  long errors = 0;
  for (int i = kWarmupPairs; Clock::now() < until; ++i) {
    const auto t0 = Clock::now();
    Pair p;
    try {
      p = run_pair(*pipeline, i % kPairs, next_id++);
    } catch (const std::exception& e) {  // counted as a failed pair
      if (errors++ == 0) std::fprintf(stderr, "semi_pair: %s\n", e.what());
      p.latency_s = seconds_since(t0);
    }
    latencies.push_back(p.latency_s);
    if (p.ok) {
      ++ok;
      ok_valid += static_cast<double>(p.valid);
    }
  }
  const double window = seconds_since(start);
  const double rss = peak_rss_mb();

  RunResult out;
  out.attempted = static_cast<long>(latencies.size());
  out.failed = out.attempted - ok;
  out.correct = out.failed == 0 && warmup_failures == 0;
  auto& E = out.end_to_end;
  E["setup_s"] = {median(setup_s), "s"};
  E["flow_px_per_s"] = {ok_valid / window, "px/s"};
  E["latency_p50_ms"] = {1e3 * median(latencies), "ms"};
  E["ok_frac"] = {static_cast<double>(ok) / static_cast<double>(out.attempted),
                  "frac"};
  E["peak_rss_mb"] = {rss, "MiB"};
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "samples semi_pair: %ld timed pairs in %.2f s, %d distinct "
                "inputs, warm-up failures %ld, errors %ld",
                out.attempted, window, kPairs, warmup_failures, errors);
  out.notes.push_back(buf);

  if (o.trace) {
    const long n = out.attempted;
    const double nn = static_cast<double>(n);
    const core::PipelineStats& s1 = pipeline->stats();
    const std::map<std::string, double> self = tracer.self_seconds();
    auto self_ms = [&](const char* layer) {
      auto it = self.find(layer);
      return it == self.end() ? 0.0 : 1e3 * it->second / nn;
    };
    auto& L = out.per_layer;
    L["imaging.read_ms"] = {self_ms("imaging.read"), "ms"};
    L["imaging.flow_write_ms"] = {self_ms("imaging.flow_write"), "ms"};
    L["surface.fit_ms"] = {
        1e3 * (s1.surface_fit_seconds - stats0.surface_fit_seconds) / nn, "ms"};
    L["surface.derive_ms"] = {
        1e3 * (s1.geometric_vars_seconds - stats0.geometric_vars_seconds) / nn,
        "ms"};
    L["surface.fits_per_pair"] = {
        static_cast<double>(s1.surface_fits - stats0.surface_fits) / nn,
        "count"};
    L["precompute.build_ms"] = {
        1e3 * (s1.match_precompute_seconds - stats0.match_precompute_seconds) /
            nn,
        "ms"};
    const double hits = static_cast<double>(s1.cache_hits - stats0.cache_hits);
    const double misses =
        static_cast<double>(s1.cache_misses - stats0.cache_misses);
    L["pipeline.cache_hit_frac"] = {
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "frac"};
    const MatchTally match =
        tally_delta(match0, ProbeBackend::install().snapshot());
    const sma::sched::SchedStats sched =
        sched_delta(sched0, sma::sched::ThreadPool::shared().stats());
    add_common_layer_metrics(out, match, sched, window, n, tracer, window);
    add_attribution_table(out, "semi_pair", tracer, window, n);
    if (!o.trace_path.empty()) tracer.write_chrome_trace(o.trace_path, "semi_pair");
  }
  return out;
}

}  // namespace perfbench
