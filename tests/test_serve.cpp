// test_serve.cpp — the serving layer: wire protocol round-trips,
// admission control (queue-full backpressure, per-tenant token buckets),
// deadline expiry mid-stage, graceful drain, cross-tenant cache reuse,
// and a chaos smoke asserting the five-outcome invariant with
// bit-identical `ok` payloads.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/pipeline.hpp"
#include "imaging/flow.hpp"
#include "imaging/image.hpp"
#include "serve/admission.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/error.hpp"
#include "sched/scheduler.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/worker_pool.hpp"

namespace {

using namespace sma;
using serve::Outcome;
using serve::ServeError;

/// Smooth deterministic test pattern; `phase` shifts it so a frame pair
/// carries trackable motion.
std::vector<std::uint8_t> pattern_bytes(int w, int h, double phase) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const double v = 128.0 + 55.0 * std::sin(0.31 * x + phase) *
                                   std::cos(0.23 * y - 0.5 * phase);
      bytes.push_back(static_cast<std::uint8_t>(v));
    }
  return bytes;
}

imaging::ImageF image_from_bytes(int w, int h,
                                 const std::vector<std::uint8_t>& bytes) {
  imaging::ImageF img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.at(x, y) =
          static_cast<float>(bytes[static_cast<std::size_t>(y) * w + x]);
  return img;
}

/// A small, fast request (32x32, 5x5 search, 5x5 template).
serve::TrackRequest small_request(std::uint64_t id,
                                  const std::string& tenant = "default") {
  serve::TrackRequest req;
  req.id = id;
  req.tenant = tenant;
  req.width = 32;
  req.height = 32;
  req.fit_radius = 2;
  req.search_radius = 2;
  req.template_radius = 2;
  req.nss = 1;
  req.nst = 1;
  req.before = pattern_bytes(req.width, req.height, 0.0);
  req.after = pattern_bytes(req.width, req.height, 0.35);
  return req;
}

/// The flow text a one-shot pipeline produces for `req` — the reference
/// for the bit-identity contract (backend-independent by Sec. 5.1).
std::string reference_flow_text(const serve::TrackRequest& req) {
  core::PipelineOptions options;
  options.backend = "sequential";
  options.track.subpixel = req.subpixel;
  options.robust = req.robust;
  core::SmaPipeline pipeline(serve::PipelineManager::config_from(req),
                             options);
  const imaging::ImageF before =
      image_from_bytes(req.width, req.height, req.before);
  const imaging::ImageF after =
      image_from_bytes(req.width, req.height, req.after);
  const core::TrackResult result = pipeline.track_pair(before, after);
  std::ostringstream out;
  imaging::write_flow_text(result.flow, out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Error taxonomy

TEST(ServeError, NamesRoundTrip) {
  for (ServeError code :
       {ServeError::kOk, ServeError::kConfig, ServeError::kIo,
        ServeError::kProtocol, ServeError::kOverloaded,
        ServeError::kRateLimited, ServeError::kShutdown, ServeError::kDeadline,
        ServeError::kInternal})
    EXPECT_EQ(serve::serve_error_from_name(serve::serve_error_name(code)),
              code);
  EXPECT_EQ(serve::serve_error_from_name("no-such-code"),
            ServeError::kInternal);
}

TEST(ServeError, ExitCodesAreDistinctPerClass) {
  EXPECT_EQ(serve::exit_code(ServeError::kOk), 0);
  EXPECT_EQ(serve::exit_code(ServeError::kConfig), 2);
  EXPECT_EQ(serve::exit_code(ServeError::kIo), 3);
  EXPECT_EQ(serve::exit_code(ServeError::kInternal), 4);
  EXPECT_EQ(serve::exit_code(ServeError::kProtocol), 5);
  // The three rejection flavours share the retryable exit code.
  EXPECT_EQ(serve::exit_code(ServeError::kOverloaded), 6);
  EXPECT_EQ(serve::exit_code(ServeError::kRateLimited), 6);
  EXPECT_EQ(serve::exit_code(ServeError::kShutdown), 6);
  EXPECT_EQ(serve::exit_code(ServeError::kDeadline), 7);
}

TEST(ServeError, ClassifiesExceptions) {
  EXPECT_EQ(serve::classify_exception(std::invalid_argument("bad radius")),
            ServeError::kConfig);
  EXPECT_EQ(serve::classify_exception(
                std::runtime_error("read_pgm: cannot open /nope.pgm")),
            ServeError::kIo);
  EXPECT_EQ(serve::classify_exception(
                std::runtime_error("PNM: malformed integer field")),
            ServeError::kIo);
  EXPECT_EQ(serve::classify_exception(std::runtime_error("surprise")),
            ServeError::kInternal);
}

// ---------------------------------------------------------------------------
// Protocol

TEST(Protocol, HexRoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x0f, 0xab, 0xff, 0x42};
  const std::string hex = serve::hex_encode(data.data(), data.size());
  EXPECT_EQ(hex, "000fabff42");
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(serve::hex_decode(hex, back));
  EXPECT_EQ(back, data);
  EXPECT_FALSE(serve::hex_decode("abc", back));   // odd length
  EXPECT_FALSE(serve::hex_decode("zz", back));    // not hex
}

TEST(Protocol, RequestRoundTripInArbitraryChunks) {
  serve::TrackRequest req = small_request(7, "goes-east");
  req.deadline_ms = 1500;
  req.model = "cont";
  req.subpixel = true;
  req.backend = "sequential";
  const std::string wire = serve::format_request(req);

  // Feed in awkward 7-byte chunks to exercise incremental parsing.
  serve::RequestParser parser;
  serve::TrackRequest parsed;
  serve::RequestParser::Event event = serve::RequestParser::Event::kNeedMore;
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    parser.feed(wire.data() + i, std::min<std::size_t>(7, wire.size() - i));
    event = parser.next(parsed);
    if (event != serve::RequestParser::Event::kNeedMore) break;
  }
  ASSERT_EQ(event, serve::RequestParser::Event::kTrack);
  EXPECT_EQ(parsed.id, 7u);
  EXPECT_EQ(parsed.tenant, "goes-east");
  EXPECT_EQ(parsed.width, req.width);
  EXPECT_EQ(parsed.height, req.height);
  EXPECT_EQ(parsed.deadline_ms, 1500);
  EXPECT_EQ(parsed.model, "cont");
  EXPECT_TRUE(parsed.subpixel);
  EXPECT_EQ(parsed.backend, "sequential");
  EXPECT_EQ(parsed.before, req.before);
  EXPECT_EQ(parsed.after, req.after);
  EXPECT_EQ(parsed.config_signature(), req.config_signature());
}

TEST(Protocol, ParsesCommandsAndPipelinedRequests) {
  serve::RequestParser parser;
  serve::TrackRequest parsed;
  const std::string wire = serve::format_request(small_request(1)) +
                           serve::format_request(small_request(2)) + "PING\n";
  parser.feed(wire.data(), wire.size());
  EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kTrack);
  EXPECT_EQ(parsed.id, 1u);
  EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kTrack);
  EXPECT_EQ(parsed.id, 2u);
  EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kPing);
  EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kNeedMore);
}

TEST(Protocol, RejectsMalformedRequests) {
  {
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "NONSENSE\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
    // Poisoned: stays kError.
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
  {
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "TRACK id=1 w=0 h=4\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
  {
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "TRACK id=1 w=2 h=1\nzzzz\nzzzz\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
  {
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "TRACK id=1 w=99999 h=99999\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
}

TEST(Protocol, ResponseRoundTrip) {
  serve::TrackResponse resp;
  resp.id = 42;
  resp.outcome = Outcome::kDegraded;
  resp.code = ServeError::kOk;
  resp.retry_after_ms = 0;
  resp.valid = 900;
  resp.total = 1024;
  resp.wall_ms = 12.625;
  resp.faults = 3;
  resp.message = "repair engaged on two rows";
  resp.payload = "# width 2 height 1 stride 1\n0 0 1 0 0 1\n1 0 0 1 0 1\n";
  const std::string wire = serve::format_response(resp);

  const std::size_t nl = wire.find('\n');
  serve::TrackResponse back;
  std::size_t payload_bytes = 0;
  ASSERT_TRUE(serve::parse_response_header(wire.substr(0, nl), back,
                                           payload_bytes));
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.outcome, Outcome::kDegraded);
  EXPECT_EQ(back.code, ServeError::kOk);
  EXPECT_EQ(back.valid, 900);
  EXPECT_EQ(back.total, 1024);
  EXPECT_DOUBLE_EQ(back.wall_ms, 12.625);
  EXPECT_EQ(back.faults, 3);
  EXPECT_EQ(back.message, "repair engaged on two rows");
  ASSERT_EQ(payload_bytes, resp.payload.size());
  EXPECT_EQ(wire.substr(nl + 1), resp.payload);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(TokenBucket, EnforcesRateWithSyntheticClock) {
  serve::TokenBucket bucket(10.0, 2.0);  // 10/s, burst 2
  auto now = serve::TokenBucket::Clock::now();
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_FALSE(bucket.try_acquire(now));  // burst spent
  const int wait_ms = bucket.millis_until_available(now);
  EXPECT_GT(wait_ms, 0);
  EXPECT_LE(wait_ms, 100);  // one token at 10/s
  now += std::chrono::milliseconds(100);
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_FALSE(bucket.try_acquire(now));
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  serve::TokenBucket bucket(0.0, 0.0);
  const auto now = serve::TokenBucket::Clock::now();
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_EQ(bucket.millis_until_available(now), 0);
}

TEST(BoundedQueue, RejectsWhenFullAndDrainsOnStop) {
  serve::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full -> backpressure
  queue.stop();
  EXPECT_FALSE(queue.try_push(4));  // stopped -> rejected
  // Queued items are still drained after stop (graceful-drain contract).
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_FALSE(queue.pop().has_value());
}

// ---------------------------------------------------------------------------
// Chaos engine

TEST(Chaos, DeterministicAndDisabledByDefault) {
  serve::ChaosOptions options;
  options.enabled = true;
  options.seed = 1234;
  options.frame_fault_rate = 0.5;
  options.stall_rate = 0.5;
  options.slow_read_rate = 0.5;
  const serve::ChaosEngine a(options), b(options);
  int corrupted = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    EXPECT_EQ(a.corrupt_frames(id), b.corrupt_frames(id));
    EXPECT_EQ(a.stall(id), b.stall(id));
    EXPECT_EQ(a.throttle_connection(id), b.throttle_connection(id));
    EXPECT_EQ(a.fault_spec(id).seed, b.fault_spec(id).seed);
    corrupted += a.corrupt_frames(id) ? 1 : 0;
  }
  // Rate 0.5 over 200 draws: comfortably away from 0 and 200.
  EXPECT_GT(corrupted, 50);
  EXPECT_LT(corrupted, 150);

  const serve::ChaosEngine off;  // enabled = false
  for (std::uint64_t id = 0; id < 50; ++id) {
    EXPECT_FALSE(off.corrupt_frames(id));
    EXPECT_FALSE(off.stall(id));
    EXPECT_FALSE(off.throttle_connection(id));
  }
}

// ---------------------------------------------------------------------------
// Worker pool outcome taxonomy (no sockets)

struct PoolFixture {
  serve::PipelineManager pipelines{"sequential", 16};
  serve::ChaosEngine chaos{};
  serve::WorkerPool pool{1, 4, pipelines, chaos, nullptr};
};

TEST(WorkerPool, OkRequestMatchesOneShotPipeline) {
  PoolFixture fx;
  serve::Job job;
  job.request = small_request(1);
  const serve::TrackResponse resp = fx.pool.process(job);
  EXPECT_EQ(resp.outcome, Outcome::kOk);
  EXPECT_EQ(resp.code, ServeError::kOk);
  EXPECT_EQ(resp.total, 32 * 32);
  EXPECT_GT(resp.valid, 0);
  EXPECT_EQ(resp.payload, reference_flow_text(job.request));
}

TEST(WorkerPool, ExpiredDeadlineFailsFastBeforeWork) {
  PoolFixture fx;
  serve::Job job;
  job.request = small_request(2);
  job.cancel = std::make_shared<core::CancelToken>();
  job.cancel->set_deadline_after(std::chrono::milliseconds(0));
  const serve::TrackResponse resp = fx.pool.process(job);
  EXPECT_EQ(resp.outcome, Outcome::kDeadline);
  EXPECT_EQ(resp.code, ServeError::kDeadline);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(WorkerPool, DeadlineExpiresMidStage) {
  PoolFixture fx;
  serve::Job job;
  // A 64x64 pair with the default 13x13/9x9 windows runs for hundreds of
  // milliseconds; a 20 ms deadline must fire at a stage checkpoint.
  job.request = small_request(3);
  job.request.width = 64;
  job.request.height = 64;
  job.request.search_radius = 3;
  job.request.template_radius = 4;
  job.request.nst = 2;
  job.request.before = pattern_bytes(64, 64, 0.0);
  job.request.after = pattern_bytes(64, 64, 0.35);
  job.cancel = std::make_shared<core::CancelToken>();
  job.cancel->set_deadline_after(std::chrono::milliseconds(20));
  const serve::TrackResponse resp = fx.pool.process(job);
  EXPECT_EQ(resp.outcome, Outcome::kDeadline);
  EXPECT_EQ(resp.code, ServeError::kDeadline);
  // The CancelledError names the stage that observed expiry.
  EXPECT_NE(resp.message.find("stage"), std::string::npos);
}

TEST(WorkerPool, InvalidConfigIsAConfigError) {
  PoolFixture fx;
  serve::Job job;
  job.request = small_request(4);
  job.request.fit_radius = 0;  // SmaConfig::validate rejects
  const serve::TrackResponse resp = fx.pool.process(job);
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kConfig);
}

TEST(WorkerPool, UnknownBackendIsAConfigError) {
  PoolFixture fx;
  serve::Job job;
  job.request = small_request(5);
  job.request.backend = "no-such-backend";
  const serve::TrackResponse resp = fx.pool.process(job);
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kConfig);
}

TEST(WorkerPool, ChaosCorruptionDegradesButAnswers) {
  serve::ChaosOptions options;
  options.enabled = true;
  options.frame_fault_rate = 1.0;  // every request corrupted
  options.fault_intensity = 0.08;
  serve::PipelineManager pipelines{"sequential", 16};
  serve::ChaosEngine chaos{options};
  serve::WorkerPool pool{1, 4, pipelines, chaos, nullptr};

  serve::Job job;
  job.request = small_request(6);
  const serve::TrackResponse resp = pool.process(job);
  EXPECT_EQ(resp.outcome, Outcome::kDegraded);
  EXPECT_EQ(resp.code, ServeError::kOk);
  EXPECT_GT(resp.faults, 0);
  EXPECT_FALSE(resp.payload.empty());
}

TEST(PipelineManager, SharesPipelinesByConfigSignature) {
  serve::PipelineManager manager{"sequential", 8};
  const serve::TrackRequest a = small_request(1, "tenant-a");
  serve::TrackRequest b = small_request(2, "tenant-b");
  EXPECT_EQ(&manager.pipeline_for(a), &manager.pipeline_for(b));
  EXPECT_EQ(manager.pipeline_count(), 1u);
  b.search_radius = 3;  // different config -> different pipeline
  EXPECT_NE(&manager.pipeline_for(a), &manager.pipeline_for(b));
  EXPECT_EQ(manager.pipeline_count(), 2u);

  // Empty backend and the explicit default resolve to one pipeline.
  serve::TrackRequest c = small_request(3);
  c.backend = "sequential";
  EXPECT_EQ(&manager.pipeline_for(a), &manager.pipeline_for(c));
}

// ---------------------------------------------------------------------------
// Server end-to-end (sockets)

serve::ServeOptions test_options() {
  serve::ServeOptions options;
  options.port = 0;  // ephemeral
  options.workers = 2;
  options.drain_flush_ms = 500;
  return options;
}

TEST(Server, TracksPingsAndReportsStats) {
  serve::Server server(test_options());
  server.start();
  server.run_in_thread();

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  EXPECT_EQ(client.ping(), "PONG");

  const serve::TrackRequest req = small_request(11, "goes-west");
  const serve::TrackResponse resp = client.track(req);
  EXPECT_EQ(resp.outcome, Outcome::kOk);
  EXPECT_EQ(resp.payload, reference_flow_text(req));

  const std::string stats = client.stats();
  EXPECT_NE(stats.find("requests=1"), std::string::npos);
  EXPECT_NE(stats.find(" ok=1"), std::string::npos);
  client.quit();

  server.request_drain();
  server.wait();
  EXPECT_EQ(server.outcome_count(Outcome::kOk), 1.0);
}

TEST(Server, CrossTenantRequestsShareGeometryCache) {
  serve::Server server(test_options());
  server.start();
  server.run_in_thread();

  const serve::TrackRequest req_a = small_request(1, "tenant-a");
  serve::TrackRequest req_b = small_request(2, "tenant-b");
  req_b.before = req_a.before;  // same frame content, different tenant
  req_b.after = req_a.after;

  serve::Client a, b;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());
  const serve::TrackResponse ra = a.track(req_a);
  const serve::TrackResponse rb = b.track(req_b);
  EXPECT_EQ(ra.outcome, Outcome::kOk);
  EXPECT_EQ(rb.outcome, Outcome::kOk);
  EXPECT_EQ(ra.payload, rb.payload);
  a.quit();
  b.quit();

  server.request_drain();
  server.wait();

  // Tenant B's frames decode into fresh buffers with tenant A's pixels,
  // so the shared pipeline's content-keyed geometry cache HIT both
  // frames: 2 misses (A's fits) + 2 hits (B's reuse), and only 2
  // surface fits across 2 tenants.
  const core::PipelineStats stats = server.pipelines().aggregate_stats();
  EXPECT_EQ(stats.surface_fits, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(Server, QueueFullBackpressureRejectsWithRetryAfter) {
  serve::ServeOptions options = test_options();
  options.workers = 1;
  options.admission.queue_capacity = 1;
  options.admission.retry_after_ms = 250;
  // Every job stalls 300 ms so the queue fills deterministically.
  options.chaos.enabled = true;
  options.chaos.stall_rate = 1.0;
  options.chaos.stall_ms = 300;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  // Fire 4 concurrent requests.  With 1 worker (stalled 300 ms) and
  // queue depth 1, at least one must bounce with code=overloaded.
  serve::TrackResponse responses[4];
  serve::Client clients[4];
  for (int i = 0; i < 4; ++i) clients[i].connect("127.0.0.1", server.port());
  std::thread senders[4];
  for (int i = 0; i < 4; ++i)
    senders[i] = std::thread([&, i] {
      responses[i] = clients[i].track(
          small_request(static_cast<std::uint64_t>(i + 1), "burst"));
    });
  for (auto& t : senders) t.join();
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    if (responses[i].outcome == Outcome::kRejected) {
      ++rejected;
      EXPECT_EQ(responses[i].code, ServeError::kOverloaded);
      EXPECT_EQ(responses[i].retry_after_ms, 250);
      EXPECT_TRUE(responses[i].payload.empty());
    }
  }
  EXPECT_GE(rejected, 1);
  for (auto& c : clients) c.quit();

  server.request_drain();
  server.wait();
  // Every request resolved to exactly one outcome.
  const double total =
      server.metrics().counter("serve.requests_total").value();
  double sum = 0.0;
  for (Outcome o : {Outcome::kOk, Outcome::kDegraded, Outcome::kRejected,
                    Outcome::kDeadline, Outcome::kError})
    sum += server.outcome_count(o);
  EXPECT_EQ(total, 4.0);
  EXPECT_EQ(sum, total);
}

TEST(Server, PerTenantRateLimitRejectsOnlyTheNoisyTenant) {
  serve::ServeOptions options = test_options();
  options.admission.tenant_rate = 0.001;  // effectively: burst only
  options.admission.tenant_burst = 2.0;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  serve::Client noisy, quiet;
  noisy.connect("127.0.0.1", server.port());
  quiet.connect("127.0.0.1", server.port());
  int noisy_rejected = 0;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const serve::TrackResponse r = noisy.track(small_request(id, "noisy"));
    if (r.outcome == Outcome::kRejected) {
      ++noisy_rejected;
      EXPECT_EQ(r.code, ServeError::kRateLimited);
      EXPECT_GT(r.retry_after_ms, 0);
    }
  }
  EXPECT_EQ(noisy_rejected, 2);  // burst of 2, then limited
  // The quiet tenant's bucket is untouched.
  EXPECT_EQ(quiet.track(small_request(9, "quiet")).outcome, Outcome::kOk);
  noisy.quit();
  quiet.quit();
  server.request_drain();
  server.wait();
}

TEST(Server, DrainFinishesInFlightAndRejectsNew) {
  serve::ServeOptions options = test_options();
  options.workers = 1;
  options.chaos.enabled = true;
  options.chaos.stall_rate = 1.0;
  options.chaos.stall_ms = 200;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  serve::Client slow;
  slow.connect("127.0.0.1", server.port());
  serve::TrackResponse slow_resp;
  std::thread slow_thread([&] {
    slow_resp = slow.track(small_request(1, "inflight"));
  });
  // Let the request reach the worker, then drain mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  serve::Client late;
  late.connect("127.0.0.1", server.port());
  server.request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const serve::TrackResponse late_resp =
      late.track(small_request(2, "late"));
  EXPECT_EQ(late_resp.outcome, Outcome::kRejected);
  EXPECT_EQ(late_resp.code, ServeError::kShutdown);

  slow_thread.join();
  // The in-flight request finished normally despite the drain.
  EXPECT_EQ(slow_resp.outcome, Outcome::kOk);
  slow.quit();
  late.quit();
  server.wait();

  // Invariant: both requests accounted, exactly once each.
  EXPECT_EQ(server.metrics().counter("serve.requests_total").value(), 2.0);
  EXPECT_EQ(server.outcome_count(Outcome::kOk), 1.0);
  EXPECT_EQ(server.outcome_count(Outcome::kRejected), 1.0);
}

TEST(Server, ProtocolErrorAnswersAndCloses) {
  serve::Server server(test_options());
  server.start();
  server.run_in_thread();

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  // Client has no raw-send; a malformed TRACK header is enough: w=0.
  // Send through a hand-rolled request via format_request abuse is not
  // possible (it validates nothing), so forge one:
  serve::TrackRequest bad = small_request(1);
  bad.width = 0;  // format_request emits w=0; server parser rejects
  bad.before.clear();
  bad.after.clear();
  bool threw = false;
  try {
    const serve::TrackResponse resp = client.track(bad);
    EXPECT_EQ(resp.outcome, Outcome::kError);
    EXPECT_EQ(resp.code, ServeError::kProtocol);
  } catch (const std::exception&) {
    // Server may close before the client finishes reading; either a
    // parsed protocol-error response or a clean close is acceptable.
    threw = true;
  }
  (void)threw;
  server.request_drain();
  server.wait();
  EXPECT_EQ(server.metrics().counter("serve.protocol_errors").value(), 1.0);
}

// ---------------------------------------------------------------------------
// Chaos smoke: the five-outcome invariant under adversity

TEST(ChaosSmoke, NoCrashNoHangNoWrongAnswer) {
  serve::ServeOptions options = test_options();
  options.workers = 2;
  options.admission.queue_capacity = 4;
  options.chaos.enabled = true;
  options.chaos.seed = 99;
  options.chaos.frame_fault_rate = 0.4;
  options.chaos.fault_intensity = 0.06;
  options.chaos.stall_rate = 0.3;
  options.chaos.stall_ms = 40;
  options.chaos.slow_read_rate = 0.3;
  options.chaos.slow_read_bytes = 1024;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  const serve::TrackRequest base = small_request(0, "chaos");
  const std::string reference = reference_flow_text(base);

  const int kRequests = 16;
  int outcomes[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < kRequests; ++i) {
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    serve::TrackRequest req = small_request(
        static_cast<std::uint64_t>(i + 1),
        i % 2 == 0 ? "chaos" : "chaos-b");
    // Half the requests carry a deadline tight enough for chaos stalls
    // to trip but generous enough for clean requests to finish.
    if (i % 2 == 1) req.deadline_ms = 2000;
    const serve::TrackResponse resp = client.track(req);
    ++outcomes[static_cast<int>(resp.outcome)];
    if (resp.outcome == Outcome::kOk) {
      // THE invariant: an `ok` under chaos is bit-identical to the
      // one-shot pipeline output for the same input.
      EXPECT_EQ(resp.payload, reference) << "request " << i;
    }
    if (resp.outcome == Outcome::kDegraded) {
      EXPECT_GT(resp.faults, 0);
      EXPECT_FALSE(resp.payload.empty());
    }
    client.quit();
  }

  server.request_drain();
  server.wait();

  const double total =
      server.metrics().counter("serve.requests_total").value();
  double sum = 0.0;
  for (Outcome o : {Outcome::kOk, Outcome::kDegraded, Outcome::kRejected,
                    Outcome::kDeadline, Outcome::kError})
    sum += server.outcome_count(o);
  EXPECT_EQ(total, static_cast<double>(kRequests));
  EXPECT_EQ(sum, total);
  // With frame_fault_rate 0.4 over 16 requests, both clean and degraded
  // outcomes occur (seeded, so this is deterministic, not flaky).
  EXPECT_GT(outcomes[static_cast<int>(Outcome::kOk)], 0);
  EXPECT_GT(outcomes[static_cast<int>(Outcome::kDegraded)], 0);
  EXPECT_EQ(outcomes[static_cast<int>(Outcome::kError)], 0);
}

// ---------------------------------------------------------------------------
// Serve x scheduler: one shared tile-execution budget

// Three request workers running vector tracking concurrently must share
// the sched_threads=2 pool instead of multiplying it: workers submit
// tiles and BLOCK, so the number of threads busy in tile work can never
// exceed the budget.  Verified through the sched.* metrics the server
// flushes at drain (max_busy is the pool's concurrency high-water).
TEST(Server, VectorTrackingSharesSchedulerBudget) {
  serve::ServeOptions options = test_options();
  options.workers = 3;
  options.sched_threads = 2;  // process-wide tile budget < workers
  serve::Server server(options);
  server.start();  // resizes the shared pool => stats reset is honest
  sched::ThreadPool::shared().reset_stats();
  server.run_in_thread();

  const serve::TrackRequest base = small_request(0, "budget");
  const std::string reference = reference_flow_text(base);

  // Concurrent clients so all three workers are busy at once.
  std::vector<std::thread> clients;
  std::vector<serve::TrackResponse> responses(6);
  for (int i = 0; i < 6; ++i)
    clients.emplace_back([&, i] {
      serve::Client client;
      client.connect("127.0.0.1", server.port());
      serve::TrackRequest req =
          small_request(static_cast<std::uint64_t>(i + 1), "budget");
      req.backend = "vector";
      responses[static_cast<std::size_t>(i)] = client.track(req);
      client.quit();
    });
  for (std::thread& t : clients) t.join();

  server.request_drain();
  server.wait();

  for (const serve::TrackResponse& resp : responses) {
    EXPECT_EQ(resp.outcome, Outcome::kOk);
    // Budgeted vector tracking still answers bit-identically (Sec. 5.1).
    EXPECT_EQ(resp.payload, reference);
  }
  EXPECT_EQ(server.metrics().gauge("sched.threads").value(), 2.0);
  EXPECT_GT(server.metrics().gauge("sched.tiles").value(), 0.0);
  EXPECT_LE(server.metrics().gauge("sched.max_busy").value(), 2.0)
      << "tile concurrency exceeded the sched_threads budget";
}

// The chaos contract holds with the vector backend in the mix: every
// request gets exactly one outcome, and every `ok` payload is
// bit-identical to the one-shot sequential pipeline.
TEST(ChaosSmoke, VectorBackendKeepsExactlyOneOutcomeInvariant) {
  serve::ServeOptions options = test_options();
  options.workers = 2;
  options.sched_threads = 2;
  options.admission.queue_capacity = 4;
  options.chaos.enabled = true;
  options.chaos.seed = 1234;
  options.chaos.frame_fault_rate = 0.4;
  options.chaos.fault_intensity = 0.06;
  options.chaos.stall_rate = 0.25;
  options.chaos.stall_ms = 30;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  const serve::TrackRequest base = small_request(0, "chaos-vector");
  const std::string reference = reference_flow_text(base);

  const int kRequests = 10;
  for (int i = 0; i < kRequests; ++i) {
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    serve::TrackRequest req =
        small_request(static_cast<std::uint64_t>(i + 1), "chaos-vector");
    req.backend = "vector";
    const serve::TrackResponse resp = client.track(req);
    if (resp.outcome == Outcome::kOk) {
      EXPECT_EQ(resp.payload, reference) << "request " << i;
    }
    client.quit();
  }

  server.request_drain();
  server.wait();

  const double total =
      server.metrics().counter("serve.requests_total").value();
  double sum = 0.0;
  for (Outcome o : {Outcome::kOk, Outcome::kDegraded, Outcome::kRejected,
                    Outcome::kDeadline, Outcome::kError})
    sum += server.outcome_count(o);
  EXPECT_EQ(total, static_cast<double>(kRequests));
  EXPECT_EQ(sum, total) << "a request was lost or double-counted";
}

}  // namespace
