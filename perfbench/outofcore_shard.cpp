// outofcore_shard.cpp — full-disk-style batch tracking, out of core.
//
// One caller rotates through kInputs Florida-analog PGM pairs on disk
// (several inputs, so one seed's pruning luck does not set the run's
// pace) and tracks each with
// shard::shard_track_pair over a shard::TiledFrameStream: a 4x4 tile
// grid under a 1 MiB resident budget (two float frames exceed it, so the
// block LRU evicts and re-reads), pruned search on the `vector` backend,
// stitched flow written with write_flow_text.  Every result must be
// byte-identical to the whole-frame SmaPipeline result computed once in
// the prepare phase (the shard bit-identity contract).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "goes/datasets.hpp"
#include "imaging/io.hpp"
#include "shard/runner.hpp"

namespace perfbench {

namespace core = sma::core;
namespace imaging = sma::imaging;
namespace shard = sma::shard;

namespace {

constexpr int kEdge = 384;
constexpr int kGrid = 4;
constexpr int kBudgetMb = 1;
constexpr double kMaxSpeedPx = 1.5;  ///< inside the 5x5 search window
constexpr int kWarmupPairs = 2;
constexpr int kInputs = 4;

core::SmaConfig shard_config() {
  core::SmaConfig c;
  c.model = core::MotionModel::kContinuous;
  c.surface_fit_radius = 2;  // 5x5
  c.z_search_radius = 2;     // 5x5
  c.z_template_radius = 3;   // 7x7
  c.search_mode = core::SearchMode::kPruned;
  c.max_resident_mb = kBudgetMb;
  return c;
}

struct Paths {
  std::string before, after, truth, reference;
  Paths(const Options& o, int input) {
    const std::string base = o.dir + "/shard_" + std::to_string(input) + "_";
    before = base + "before.pgm";
    after = base + "after.pgm";
    truth = base + "truth.txt";
    reference = base + "reference.txt";
  }
};

}  // namespace

void prepare_outofcore_shard(const Options& o) {
  core::PipelineOptions popts;
  popts.backend = "vector";
  core::SmaPipeline pipeline(shard_config(), popts);
  for (int i = 0; i < kInputs; ++i) {
    const Paths p(o, i);
    const sma::goes::RapidScanDataset d = sma::goes::make_florida_analog(
        kEdge, 2, o.seed * 7919u + 3u + static_cast<std::uint32_t>(i),
        kMaxSpeedPx);
    imaging::write_pgm(d.frames[0], p.before);
    imaging::write_pgm(d.frames[1], p.after);
    imaging::write_flow_text(d.truth, p.truth);
    // Whole-frame reference on the frames exactly as stored.
    const core::TrackResult r = pipeline.track_pair(
        imaging::read_pgm(p.before), imaging::read_pgm(p.after));
    imaging::write_flow_text(r.flow, p.reference);
  }
}

RunResult run_outofcore_shard(const Options& o) {
  std::vector<Paths> inputs;
  for (int i = 0; i < kInputs; ++i) inputs.emplace_back(o, i);
  const std::string out_path = o.dir + "/shard_flow.txt";
  const core::SmaConfig config = shard_config();
  shard::ShardOptions sopts;
  sopts.spec = shard::ShardSpec{kGrid, kGrid};
  sopts.backend = "vector";
  if (o.trace) sopts.backend = ProbeBackend::install().name();
  const std::size_t budget_bytes = static_cast<std::size_t>(kBudgetMb) << 20;

  Tracer tracer(o.trace);
  long warmup_failures = 0;

  struct Pair {
    double latency_s = 0.0;
    double track_s = 0.0;
    std::size_t valid = 0;
    bool ok = false;
    shard::ShardReport report;
  };
  // One request: stream open -> sharded track -> stitched flow on disk.
  auto run_pair = [&](const Paths& paths, std::uint64_t id) -> Pair {
    const bool traced = tracer.enabled() && id != 0;  // id 0: warm-up
    MatchTally match0;
    if (traced) {
      OverheadScope scope(tracer);
      match0 = ProbeBackend::install().snapshot();
    }
    const auto t0 = Clock::now();
    const imaging::RasterHeader header =
        imaging::read_raster_header(paths.before);
    const auto t1 = Clock::now();
    const shard::ShardPlan plan = shard::make_plan(
        header.width, header.height, sopts.spec, config, sopts.track.subpixel);
    shard::TiledFrameStream stream(paths.before, paths.after, plan, {},
                                   budget_bytes);
    const auto t2 = Clock::now();
    shard::ShardResult r = shard::shard_track_pair(stream, config, sopts);
    const auto t3 = Clock::now();
    imaging::write_flow_text(r.flow, out_path);
    const auto t4 = Clock::now();

    Pair p;
    p.latency_s = seconds_between(t0, t4);
    p.track_s = seconds_between(t2, t3);
    p.valid = r.flow.count_valid();
    p.report = std::move(r.report);

    if (traced) {
      MatchTally calls;
      {
        OverheadScope scope(tracer);
        calls = tally_delta(match0, ProbeBackend::install().snapshot());
      }
      const int root = tracer.add("e2e.pair", t0, t4, id, -1);
      tracer.add("imaging.read", t0, t1, id, root);
      tracer.add("shard.open", t1, t2, id, root);
      const int track = tracer.add("core.shard_track_pair", t2, t3, id, root);
      // Per-tile spans from ShardReport::spans, after the serial part
      // (plan, whole-frame seed pass); stitch time stays serial.
      double tiles_s = 0.0;
      for (const shard::TileSpan& s : p.report.spans)
        tiles_s += s.read_seconds + s.compute_seconds;
      const double serial_s = std::max(0.0, p.track_s - tiles_s);
      tracer.add_duration("shard.serial", t2, serial_s, id, track);
      auto at = t2 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(serial_s));
      auto advance = [&](double sec) {
        at += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(sec));
      };
      for (std::size_t k = 0; k < p.report.spans.size(); ++k) {
        const shard::TileSpan& s = p.report.spans[k];
        tracer.add_duration("shard.read", at, s.read_seconds, id, track);
        advance(s.read_seconds);
        const int tile =
            tracer.add_duration("shard.tile", at, s.compute_seconds, id, track);
        // Tile k's match() call, timed by the probe backend; the rest of
        // the tile is fit + geometry + precompute inside backend track().
        const double match_s =
            k < calls.call_seconds.size() ? calls.call_seconds[k] : 0.0;
        tracer.add_duration("core.tile_prep", at,
                            std::max(0.0, s.compute_seconds - match_s), id,
                            tile);
        tracer.add_duration("match.tile_match", at, match_s, id, tile);
        advance(s.compute_seconds);
      }
      tracer.add("imaging.flow_write", t3, t4, id, root);
    }

    p.ok = files_identical(out_path, paths.reference);
    return p;
  };

  // Set-up: pool spin-up plus a fixed warm-up of whole requests (each
  // builds its own stream and plan), repeated for a median.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    sma::sched::ThreadPool::shared().resize(
        sma::sched::ThreadPool::default_threads());
    for (int k = 0; k < kWarmupPairs; ++k)
      if (!run_pair(inputs[static_cast<std::size_t>(k % kInputs)], 0).ok)
        ++warmup_failures;
    setup_s.push_back(seconds_since(t0));
  }

  const sma::sched::SchedStats sched0 = sma::sched::ThreadPool::shared().stats();
  const MatchTally match0 =
      o.trace ? ProbeBackend::install().snapshot() : MatchTally{};
  std::vector<double> latencies;
  std::vector<Pair> pairs;
  double ok_valid = 0.0;
  long ok = 0;
  std::uint64_t next_id = 1;
  int input = kWarmupPairs;
  const auto start = Clock::now();
  const auto until = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(o.seconds));
  long errors = 0;
  while (Clock::now() < until) {
    const auto t0 = Clock::now();
    Pair p;
    try {
      p = run_pair(inputs[static_cast<std::size_t>(input++ % kInputs)],
                   next_id++);
    } catch (const std::exception& e) {  // counted as a failed pair
      if (errors++ == 0) std::fprintf(stderr, "outofcore_shard: %s\n", e.what());
      p.latency_s = seconds_since(t0);
    }
    latencies.push_back(p.latency_s);
    if (p.ok) {
      ++ok;
      ok_valid += static_cast<double>(p.valid);
    }
    pairs.push_back(std::move(p));
  }
  const double window = seconds_since(start);
  const double rss = peak_rss_mb();

  // Sub-pixel criterion on the references every ok pair is identical to
  // (loaded only now, so they do not count toward peak RSS).
  double rms = 0.0;
  for (const Paths& p : inputs)
    rms = std::max(rms, imaging::rms_endpoint_error(
                            imaging::read_flow_text(p.reference),
                            imaging::read_flow_text(p.truth),
                            interior_margin(config)));
  if (!(rms < kRmsLimitPx)) {
    ok = 0;
    ok_valid = 0.0;
  }

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
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "samples outofcore_shard: %ld timed pairs in %.2f s, %d "
                "distinct inputs, worst reference rms %.3f px, warm-up "
                "failures %ld, errors %ld",
                out.attempted, window, kInputs, rms, warmup_failures, errors);
  out.notes.push_back(buf);

  if (o.trace) {
    const long n = out.attempted;
    const double nn = static_cast<double>(n);
    const std::map<std::string, double> self = tracer.self_seconds();
    auto self_ms = [&](const char* layer) {
      auto it = self.find(layer);
      return it == self.end() ? 0.0 : 1e3 * it->second / nn;
    };
    double compute = 0.0, read = 0.0, serial = 0.0, max_over_mean = 0.0;
    double halo = 0.0, bytes = 0.0, reads = 0.0, hits = 0.0, lookups = 0.0;
    double high_water = 0.0;
    for (const Pair& p : pairs) {
      const shard::ShardReport& r = p.report;
      double tile_max = 0.0;
      for (const shard::TileSpan& s : r.spans)
        tile_max = std::max(tile_max, s.compute_seconds);
      compute += r.compute_seconds;
      read += r.read_seconds;
      serial += p.track_s - r.compute_seconds - r.read_seconds;
      if (r.compute_seconds > 0.0)
        max_over_mean +=
            tile_max * static_cast<double>(r.spans.size()) / r.compute_seconds;
      halo += static_cast<double>(r.halo_bytes);
      bytes += static_cast<double>(r.core_bytes + r.halo_bytes);
      reads += static_cast<double>(r.stream.block_reads);
      hits += static_cast<double>(r.stream.cache_hits);
      lookups += static_cast<double>(r.stream.cache_hits + r.stream.cache_misses);
      high_water =
          std::max(high_water, static_cast<double>(r.stream.resident_high_water));
    }
    auto& L = out.per_layer;
    L["imaging.read_ms"] = {self_ms("imaging.read"), "ms"};
    L["imaging.flow_write_ms"] = {self_ms("imaging.flow_write"), "ms"};
    L["shard.tile_compute_ms"] = {1e3 * compute / nn, "ms"};
    L["shard.read_ms"] = {1e3 * read / nn, "ms"};
    L["shard.serial_ms"] = {1e3 * serial / nn, "ms"};
    L["shard.tile_max_over_mean"] = {max_over_mean / nn, "x"};
    L["shard.halo_frac"] = {bytes > 0.0 ? halo / bytes : 0.0, "frac"};
    L["shard.block_reads_per_pair"] = {reads / nn, "count"};
    L["shard.stream_hit_frac"] = {lookups > 0.0 ? hits / lookups : 0.0, "frac"};
    L["shard.resident_high_water_mb"] = {high_water / (1 << 20), "MiB"};
    MatchTally match = tally_delta(match0, ProbeBackend::install().snapshot());
    // Every tile's PruneReport carries the whole-frame seed pass's
    // coarse count (shard/runner.cpp slices the seeds, not the count);
    // the pass ran once per pair.
    match.coarse /= static_cast<std::uint64_t>(kGrid * kGrid);
    const sma::sched::SchedStats sched =
        sched_delta(sched0, sma::sched::ThreadPool::shared().stats());
    add_common_layer_metrics(out, match, sched, window, n, tracer, window);
    add_attribution_table(out, "outofcore_shard", tracer, window, n);
    if (!o.trace_path.empty())
      tracer.write_chrome_trace(o.trace_path, "outofcore_shard");
  }
  return out;
}

}  // namespace perfbench
