// rapidscan_session.cpp — the daemon, in-process, under two tenants.
//
// A serve::Server on loopback (2 workers, batching on, a 2-thread sched
// pool) serves two serve::Client tenants.  Each streams its own
// Hurricane-Luis-analog sequence as SEQ-OPEN, kFrames SEQ-FRAMEs and
// SEQ-CLOSE, then reopens; each waits for a response before sending its
// next frame (closed loop, at most 2 connections).  Distinct sequences
// per tenant keep the amount of work independent of thread timing: no
// cross-tenant dedup or batch coalescing can happen.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "goes/datasets.hpp"
#include "imaging/io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/worker_pool.hpp"

namespace perfbench {

namespace core = sma::core;
namespace imaging = sma::imaging;
namespace serve = sma::serve;

namespace {

constexpr int kTenants = 2;
constexpr int kFrames = 16;
constexpr int kEdge = 64;
constexpr double kMaxSpeedPx = 1.5;  ///< inside the 9x9 search window
constexpr int kWarmupFrames = 4;     ///< per tenant: 3 pairs + open/close

std::string frame_path(const Options& o, int tenant, int k) {
  return o.dir + "/luis_" + std::to_string(tenant) + "_" + std::to_string(k) +
         ".pgm";
}
std::string truth_path(const Options& o, int tenant) {
  return o.dir + "/luis_" + std::to_string(tenant) + "_truth.txt";
}

/// luis_config (search 9x9, template 11x11, fit 5x5) as a wire request.
serve::TrackRequest session_request(int tenant, bool trace) {
  serve::TrackRequest req;
  req.tenant = "tenant-" + std::to_string(tenant);
  req.width = kEdge;
  req.height = kEdge;
  req.model = "cont";
  req.fit_radius = 2;
  req.search_radius = 4;
  req.template_radius = 5;
  req.backend = trace ? ProbeBackend::kName : "vector";
  return req;
}

std::vector<std::uint8_t> to_bytes(const imaging::ImageF& img) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(img.width()) * img.height());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      bytes.push_back(static_cast<std::uint8_t>(img.at(x, y)));
  return bytes;
}

/// A connected tenant: its frames, and the first payload seen per frame
/// index (later responses must be byte-identical to it).
struct Tenant {
  std::vector<std::vector<std::uint8_t>> frames;
  serve::TrackRequest request;
  serve::Client client;
  std::vector<std::string> first;
  long bad = 0;  ///< non-ok or non-identical responses seen
};

struct Sample {
  double latency_s = 0.0;
  double server_ms = 0.0;
  std::size_t payload_bytes = 0;
  long valid = 0;
  int tenant = 0, frame = 0;
  bool ok = false;
};

}  // namespace

void prepare_rapidscan_session(const Options& o) {
  for (int t = 0; t < kTenants; ++t) {
    const sma::goes::RapidScanDataset d = sma::goes::make_luis_analog(
        kEdge, kFrames, o.seed * 7919u + 101u * static_cast<std::uint32_t>(t) + 1u,
        kMaxSpeedPx);
    for (int k = 0; k < kFrames; ++k)
      imaging::write_pgm(d.frames[static_cast<std::size_t>(k)],
                         frame_path(o, t, k));
    imaging::write_flow_text(d.truth, truth_path(o, t));
  }
}

RunResult run_rapidscan_session(const Options& o) {
  if (o.trace) ProbeBackend::install();
  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Tenant& tn = tenants[static_cast<std::size_t>(t)];
    for (int k = 0; k < kFrames; ++k)
      tn.frames.push_back(to_bytes(imaging::read_pgm(frame_path(o, t, k))));
    tn.request = session_request(t, o.trace);
    tn.first.assign(kFrames, std::string());
  }

  serve::ServeOptions sopts;
  sopts.port = 0;
  sopts.workers = 2;
  sopts.backend = "vector";
  sopts.sched_threads = 2;
  sopts.batching = true;

  Tracer tracer(o.trace);
  std::atomic<std::uint64_t> next_id{1};

  // One session pass of tenant t: open, frames [0, limit) until
  // `until`, close.  Frame 0 is buffered (no pair yet); every later
  // frame answers with the flow of (k-1, k).
  auto session = [&](int t, int limit, Clock::time_point until,
                     std::vector<Sample>* samples, bool traced) {
    Tenant& tn = tenants[static_cast<std::size_t>(t)];
    const int tid = t + 1;
    serve::TrackRequest open = tn.request;
    open.id = next_id.fetch_add(1);
    auto a = Clock::now();
    serve::TrackResponse r = tn.client.seq_open(open);
    auto b = Clock::now();
    if (traced) tracer.add("serve.session_open", a, b, open.id, -1, tid);
    if (r.outcome != serve::Outcome::kOk) {
      ++tn.bad;
      return;
    }
    for (int k = 0; k < limit && Clock::now() < until; ++k) {
      const std::uint64_t id = next_id.fetch_add(1);
      a = Clock::now();
      r = tn.client.seq_frame(id, kEdge, kEdge,
                              tn.frames[static_cast<std::size_t>(k)]);
      b = Clock::now();
      const bool ok_outcome = r.outcome == serve::Outcome::kOk;
      if (k == 0) {
        if (traced) tracer.add("serve.frame_buffered", a, b, id, -1, tid);
        if (!ok_outcome) ++tn.bad;
        continue;
      }
      const double latency = seconds_between(a, b);
      if (traced) {
        const int root = tracer.add("e2e.pair", a, b, id, -1, tid);
        // Client latency = wire + queue + decode (serve.wire_queue) then
        // the worker's own wall clock (TrackResponse::wall_ms).
        const double worker_s = std::min(latency, r.wall_ms / 1e3);
        tracer.add_duration("serve.wire_queue", a, latency - worker_s, id,
                            root, tid);
        tracer.add_duration("serve.worker",
                            b - std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(worker_s)),
                            worker_s, id, root, tid);
      }
      std::string& first = tn.first[static_cast<std::size_t>(k)];
      if (first.empty() && ok_outcome) first = r.payload;
      const bool ok = ok_outcome && !r.payload.empty() && r.payload == first;
      if (!ok) ++tn.bad;
      if (samples != nullptr) {
        Sample s;
        s.latency_s = latency;
        s.server_ms = r.wall_ms;
        s.payload_bytes = r.payload.size();
        s.valid = r.valid;
        s.tenant = t;
        s.frame = k;
        s.ok = ok;
        samples->push_back(s);
      }
    }
    const std::uint64_t close_id = next_id.fetch_add(1);
    a = Clock::now();
    r = tn.client.seq_close(close_id);
    b = Clock::now();
    if (traced) tracer.add("serve.session_close", a, b, close_id, -1, tid);
    if (r.outcome != serve::Outcome::kOk) ++tn.bad;
  };

  // Set-up: server construction, listening socket, sched pool resize,
  // two connected clients and a fixed warm-up session per tenant;
  // repeated (server torn down in between) so the figure is a median.
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  auto teardown = [&] {
    for (Tenant& tn : tenants)
      if (tn.client.connected()) tn.client.quit();
    if (server) {
      server->request_drain();
      server->wait();
      server.reset();
    }
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    teardown();
    const auto t0 = Clock::now();
    server = std::make_unique<serve::Server>(sopts);
    server->start();
    server->run_in_thread();
    std::vector<std::thread> warm;
    for (int t = 0; t < kTenants; ++t)
      warm.emplace_back([&, t] {
        Tenant& tn = tenants[static_cast<std::size_t>(t)];
        try {
          tn.client.connect("127.0.0.1", server->port());
          session(t, kWarmupFrames, Clock::time_point::max(), nullptr, false);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "rapidscan_session warm-up %d: %s\n", t,
                       e.what());
          ++tn.bad;
        }
      });
    for (std::thread& th : warm) th.join();
    setup_s.push_back(seconds_since(t0));
  }
  long warmup_bad = 0;
  for (Tenant& tn : tenants) {
    warmup_bad += tn.bad;
    tn.bad = 0;
  }

  // Timed window: both tenants stream sessions until the deadline; a
  // session cut by the deadline is closed before the client stops.
  const sma::sched::SchedStats sched0 = sma::sched::ThreadPool::shared().stats();
  const MatchTally match0 =
      o.trace ? ProbeBackend::install().snapshot() : MatchTally{};
  const core::PipelineStats stats0 = server->pipelines().aggregate_stats();
  std::vector<std::vector<Sample>> samples(kTenants);
  std::vector<double> client_wall(kTenants, 0.0);
  std::atomic<bool> sampling{o.trace};
  double queue_depth_max = 0.0;
  std::thread sampler;
  if (o.trace)
    sampler = std::thread([&] {
      auto& gauge = server->metrics().gauge("serve.queue_depth");
      while (sampling.load()) {
        queue_depth_max = std::max(queue_depth_max, gauge.value());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  const auto start = Clock::now();
  const auto until = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(o.seconds));
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t)
    clients.emplace_back([&, t] {
      auto& mine = samples[static_cast<std::size_t>(t)];
      try {
        while (Clock::now() < until) session(t, kFrames, until, &mine, o.trace);
      } catch (const std::exception& e) {
        // A broken connection ends this tenant; the frame in flight
        // counts as a failed pair.
        std::fprintf(stderr, "rapidscan_session tenant %d: %s\n", t, e.what());
        mine.push_back(Sample{});
        ++tenants[static_cast<std::size_t>(t)].bad;
      }
      client_wall[static_cast<std::size_t>(t)] = seconds_since(start);
    });
  for (std::thread& th : clients) th.join();
  const double window = seconds_since(start);
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  const core::PipelineStats stats1 = server->pipelines().aggregate_stats();
  const sma::sched::SchedStats sched =
      sched_delta(sched0, sma::sched::ThreadPool::shared().stats());
  const MatchTally match =
      o.trace ? tally_delta(match0, ProbeBackend::install().snapshot())
              : MatchTally{};
  teardown();
  const double rss = peak_rss_mb();

  // Sub-pixel criterion on the first payload of every (tenant, frame);
  // every other response was checked byte-identical to it.
  std::vector<std::vector<bool>> rms_ok(kTenants,
                                        std::vector<bool>(kFrames, false));
  double worst_rms = 0.0;
  const int margin =
      interior_margin(serve::PipelineManager::config_from(tenants[0].request));
  for (int t = 0; t < kTenants; ++t) {
    const imaging::FlowField truth = imaging::read_flow_text(truth_path(o, t));
    for (int k = 1; k < kFrames; ++k) {
      const std::string& first = tenants[static_cast<std::size_t>(t)]
                                     .first[static_cast<std::size_t>(k)];
      if (first.empty()) continue;
      // The payload is write_flow_text output: parse it with its reader.
      const std::string path = o.dir + "/luis_payload.txt";
      std::ofstream(path, std::ios::binary) << first;
      const double rms = imaging::rms_endpoint_error(
          imaging::read_flow_text(path), truth, margin);
      worst_rms = std::max(worst_rms, rms);
      rms_ok[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)] =
          rms < kRmsLimitPx;
    }
  }

  std::vector<double> latencies, server_ms, overhead_ms;
  double ok_valid = 0.0, payload = 0.0;
  long ok = 0;
  for (const auto& per : samples)
    for (const Sample& s : per) {
      latencies.push_back(s.latency_s);
      server_ms.push_back(s.server_ms);
      overhead_ms.push_back(1e3 * s.latency_s - s.server_ms);
      payload += static_cast<double>(s.payload_bytes);
      if (s.ok && rms_ok[static_cast<std::size_t>(s.tenant)]
                        [static_cast<std::size_t>(s.frame)]) {
        ++ok;
        ok_valid += static_cast<double>(s.valid);
      }
    }
  long session_bad = 0;
  for (const Tenant& tn : tenants) session_bad += tn.bad;

  RunResult out;
  out.attempted = static_cast<long>(latencies.size());
  out.failed = out.attempted - ok;
  out.correct = out.failed == 0 && warmup_bad == 0 && session_bad == 0;
  auto& E = out.end_to_end;
  E["setup_s"] = {median(setup_s), "s"};
  E["flow_px_per_s"] = {ok_valid / window, "px/s"};
  E["latency_p50_ms"] = {1e3 * median(latencies), "ms"};
  E["ok_frac"] = {out.attempted > 0 ? static_cast<double>(ok) /
                                          static_cast<double>(out.attempted)
                                    : 0.0,
                  "frac"};
  E["peak_rss_mb"] = {rss, "MiB"};
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "samples rapidscan_session: %ld timed pairs in %.2f s (p90 has "
                "%ld beyond it), worst first-payload rms %.3f px",
                out.attempted, window, out.attempted / 10, worst_rms);
  out.notes.push_back(buf);

  if (o.trace) {
    const long n = out.attempted;
    const double nn = static_cast<double>(std::max(n, 1L));
    auto& L = out.per_layer;
    L["surface.fit_ms"] = {
        1e3 * (stats1.surface_fit_seconds - stats0.surface_fit_seconds) / nn,
        "ms"};
    L["surface.derive_ms"] = {
        1e3 * (stats1.geometric_vars_seconds - stats0.geometric_vars_seconds) /
            nn,
        "ms"};
    L["surface.fits_per_pair"] = {
        static_cast<double>(stats1.surface_fits - stats0.surface_fits) / nn,
        "count"};
    L["precompute.build_ms"] = {
        1e3 *
            (stats1.match_precompute_seconds - stats0.match_precompute_seconds) /
            nn,
        "ms"};
    const double hits =
        static_cast<double>(stats1.cache_hits - stats0.cache_hits);
    const double misses =
        static_cast<double>(stats1.cache_misses - stats0.cache_misses);
    L["pipeline.cache_hit_frac"] = {
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "frac"};
    L["serve.server_ms_p50"] = {median(server_ms), "ms"};
    L["serve.overhead_ms_p50"] = {median(overhead_ms), "ms"};
    L["serve.latency_p90_ms"] = {1e3 * percentile(latencies, 0.9), "ms"};
    L["serve.response_kb_per_pair"] = {payload / 1024.0 / nn, "KiB"};
    L["serve.queue_depth_max"] = {queue_depth_max, "count"};

    double traced_wall = 0.0;
    for (double w : client_wall) traced_wall += w;
    add_common_layer_metrics(out, match, sched, window, n, tracer,
                             traced_wall);
    add_attribution_table(out, "rapidscan_session", tracer, traced_wall, n);
    // serve.worker split by the server's own PipelineStats (aggregate
    // over every frame the window served, including buffered ones).
    const double fit = stats1.surface_fit_seconds - stats0.surface_fit_seconds;
    const double derive =
        stats1.geometric_vars_seconds - stats0.geometric_vars_seconds;
    const double pre =
        stats1.match_precompute_seconds - stats0.match_precompute_seconds;
    const double matching = stats1.matching_seconds - stats0.matching_seconds;
    const double products = stats1.products_seconds - stats0.products_seconds;
    const std::map<std::string, double> self = tracer.self_seconds();
    double worker = 0.0;
    if (auto it = self.find("serve.worker"); it != self.end())
      worker = it->second;
    std::snprintf(buf, sizeof(buf),
                  "  serve.worker split (PipelineStats): surface.fit %.1f ms, "
                  "surface.derive %.1f ms, precompute.build %.1f ms, matching "
                  "%.1f ms, products %.1f ms, rest (decode/serialize/cache) "
                  "%.1f ms",
                  1e3 * fit, 1e3 * derive, 1e3 * pre, 1e3 * matching,
                  1e3 * products,
                  1e3 * (worker - fit - derive - pre - matching - products));
    out.notes.push_back(buf);
    if (!o.trace_path.empty())
      tracer.write_chrome_trace(o.trace_path, "rapidscan_session");
  }
  return out;
}

}  // namespace perfbench
