// test_serve_session.cpp — sequence sessions and cross-request batching
// in the serving layer: SEQ wire protocol round-trips and fuzzing,
// session lifecycle (open / frame stream / close), mid-session deadline
// abort without a pipeline-slot leak, drain with an open session, chaos
// corruption on a session frame and its sticky taint, the admission
// order of each message kind, the golden equivalence pack (streamed
// session == in-process track_sequence == T-1 one-shot TRACKs, across
// backends and batching modes), batching coalesce determinism, and a
// seeded stress test racing session frames against batched TRACKs on
// one pool (the TSan leg).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/fault.hpp"
#include "core/pipeline.hpp"
#include "imaging/flow.hpp"
#include "imaging/image.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/error.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/worker_pool.hpp"

namespace {

using namespace sma;
using serve::Outcome;
using serve::ServeError;

/// Smooth deterministic test pattern; `phase` shifts it so consecutive
/// frames carry trackable motion.
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

/// A small, fast session config (32x32, 5x5 windows).
serve::TrackRequest session_config(std::uint64_t id,
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
  return req;
}

/// T frames of drifting pattern, the session's input stream.
std::vector<std::vector<std::uint8_t>> frame_stream(int w, int h, int count) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k)
    frames.push_back(pattern_bytes(w, h, 0.35 * k));
  return frames;
}

/// The flow texts an in-process track_sequence produces for the stream —
/// the golden reference the streamed session must match byte for byte.
std::vector<std::string> reference_sequence_flows(
    const serve::TrackRequest& config,
    const std::vector<std::vector<std::uint8_t>>& frames) {
  core::PipelineOptions options;
  options.backend = "sequential";
  options.track.subpixel = config.subpixel;
  options.robust = config.robust;
  core::SmaPipeline pipeline(serve::PipelineManager::config_from(config),
                             options);
  std::vector<imaging::ImageF> images;
  images.reserve(frames.size());
  for (const auto& bytes : frames)
    images.push_back(image_from_bytes(config.width, config.height, bytes));
  const core::SequenceResult result = pipeline.track_sequence(images);
  std::vector<std::string> flows;
  for (const imaging::FlowField& flow : result.flows) {
    std::ostringstream out;
    imaging::write_flow_text(flow, out);
    flows.push_back(out.str());
  }
  return flows;
}

serve::ServeOptions test_options() {
  serve::ServeOptions options;
  options.port = 0;  // ephemeral
  options.workers = 2;
  options.drain_flush_ms = 500;
  return options;
}

void expect_invariant(serve::Server& server) {
  const double total =
      server.metrics().counter("serve.requests_total").value();
  double sum = 0.0;
  for (Outcome o : {Outcome::kOk, Outcome::kDegraded, Outcome::kRejected,
                    Outcome::kDeadline, Outcome::kError})
    sum += server.outcome_count(o);
  EXPECT_EQ(sum, total) << "a message was lost or double-counted";
}

// ---------------------------------------------------------------------------
// SEQ wire protocol

TEST(SeqProtocol, RoundTripInArbitraryChunks) {
  serve::TrackRequest config = session_config(5, "goes-east");
  config.deadline_ms = 1500;
  config.subpixel = true;
  const std::vector<std::uint8_t> frame = pattern_bytes(32, 32, 0.0);
  const std::string wire = serve::format_seq_open(config) +
                           serve::format_seq_frame(6, 32, 32, frame) +
                           serve::format_seq_close(7);

  // Feed in awkward 7-byte chunks to exercise incremental parsing.
  serve::RequestParser parser;
  serve::TrackRequest parsed;
  std::vector<serve::RequestParser::Event> events;
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    parser.feed(wire.data() + i, std::min<std::size_t>(7, wire.size() - i));
    while (true) {
      const auto event = parser.next(parsed);
      if (event == serve::RequestParser::Event::kNeedMore) break;
      events.push_back(event);
      if (event == serve::RequestParser::Event::kSeqOpen) {
        EXPECT_EQ(parsed.id, 5u);
        EXPECT_EQ(parsed.tenant, "goes-east");
        EXPECT_EQ(parsed.deadline_ms, 1500);
        EXPECT_TRUE(parsed.subpixel);
        EXPECT_TRUE(parsed.before.empty());
        EXPECT_EQ(parsed.config_signature(), config.config_signature());
      }
      if (event == serve::RequestParser::Event::kSeqFrame) {
        EXPECT_EQ(parsed.id, 6u);
        EXPECT_EQ(parsed.width, 32);
        EXPECT_EQ(parsed.height, 32);
        EXPECT_EQ(parsed.before, frame);
      }
      if (event == serve::RequestParser::Event::kSeqClose) {
        EXPECT_EQ(parsed.id, 7u);
      }
    }
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], serve::RequestParser::Event::kSeqOpen);
  EXPECT_EQ(events[1], serve::RequestParser::Event::kSeqFrame);
  EXPECT_EQ(events[2], serve::RequestParser::Event::kSeqClose);
}

TEST(SeqProtocol, FuzzRejectsMalformedMessages) {
  {
    // Zero dims on a frame header.
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "SEQ-FRAME id=1 w=0 h=4\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
    // Poisoned: stays kError.
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
  {
    // Allocation-cap guard, same as TRACK's.
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "SEQ-FRAME id=1 w=99999 h=99999\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
  {
    // Bad hex payload.
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "SEQ-FRAME id=1 w=2 h=1\nzzzz\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
  {
    // Wrong payload length.
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "SEQ-FRAME id=1 w=2 h=1\nab\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
  {
    // Zero dims on an open.
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire = "SEQ-OPEN id=1 w=0 h=32\n";
    parser.feed(wire.data(), wire.size());
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kError);
  }
  {
    // Truncated frame: needs more, never errors, completes when the
    // rest arrives.
    serve::RequestParser parser;
    serve::TrackRequest parsed;
    const std::string wire =
        serve::format_seq_frame(9, 4, 1, {1, 2, 3, 4});
    parser.feed(wire.data(), wire.size() - 3);
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kNeedMore);
    parser.feed(wire.data() + wire.size() - 3, 3);
    EXPECT_EQ(parser.next(parsed), serve::RequestParser::Event::kSeqFrame);
    EXPECT_EQ(parsed.before, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  }
}

// ---------------------------------------------------------------------------
// Batching sweep primitive

TEST(BoundedQueue, TryPopMatchingTakesUpToMaxPreservingOrder) {
  serve::BoundedQueue<int> queue(8);
  for (int v : {1, 2, 3, 4, 5, 6}) ASSERT_TRUE(queue.try_push(v));
  std::vector<int> taken;
  const std::size_t n =
      queue.try_pop_matching([](int v) { return v % 2 == 0; }, 2, taken);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(taken, (std::vector<int>{2, 4}));  // front-to-back, capped
  // Remaining items keep their relative order (6 was over the cap).
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 3);
  EXPECT_EQ(queue.pop().value(), 5);
  EXPECT_EQ(queue.pop().value(), 6);
  EXPECT_EQ(queue.try_pop_matching([](int) { return true; }, 4, taken), 0u);
}

// ---------------------------------------------------------------------------
// Session lifecycle (sockets)

TEST(ServeSession, OpenFrameCloseRoundTrip) {
  serve::Server server(test_options());
  server.start();
  server.run_in_thread();

  const auto frames = frame_stream(32, 32, 4);
  const serve::TrackRequest config = session_config(1, "goes");
  const auto reference = reference_sequence_flows(config, frames);

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  const serve::TrackResponse open = client.seq_open(config);
  EXPECT_EQ(open.outcome, Outcome::kOk);
  EXPECT_NE(open.message.find("session open"), std::string::npos);

  for (std::size_t k = 0; k < frames.size(); ++k) {
    const serve::TrackResponse resp =
        client.seq_frame(10 + k, 32, 32, frames[k]);
    ASSERT_EQ(resp.outcome, Outcome::kOk) << "frame " << k;
    if (k == 0) {
      EXPECT_TRUE(resp.payload.empty());
      EXPECT_NE(resp.message.find("frame buffered"), std::string::npos);
    } else {
      // Each streamed pair is bit-identical to the batch reference.
      EXPECT_EQ(resp.payload, reference[k - 1]) << "pair " << k;
    }
  }

  const serve::TrackResponse close = client.seq_close(99);
  EXPECT_EQ(close.outcome, Outcome::kOk);
  EXPECT_NE(close.message.find("frames=4"), std::string::npos);
  client.quit();

  server.request_drain();
  server.wait();
  // open + 4 frames + close = 6 messages, each with exactly one outcome.
  EXPECT_EQ(server.metrics().counter("serve.requests_total").value(), 6.0);
  expect_invariant(server);
  // T fits for a T-frame stream: the tentpole's cache economy.
  EXPECT_EQ(server.pipelines().aggregate_stats().surface_fits, 4u);
}

TEST(ServeSession, StreamedSendsAheadDrainInOrder) {
  serve::Server server(test_options());
  server.start();
  server.run_in_thread();

  const auto frames = frame_stream(32, 32, 5);
  const serve::TrackRequest config = session_config(1, "pump");
  const auto reference = reference_sequence_flows(config, frames);

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_EQ(client.seq_open(config).outcome, Outcome::kOk);

  // Pump every frame plus the close without reading a single response:
  // the server parks out-of-turn frames per session and must answer in
  // message order, so the drain below sees frame 0..4 then the close.
  for (std::size_t k = 0; k < frames.size(); ++k)
    client.seq_frame_send(10 + k, 32, 32, frames[k]);
  client.seq_close_send(99);

  for (std::size_t k = 0; k < frames.size(); ++k) {
    const serve::TrackResponse resp = client.read_response();
    ASSERT_EQ(resp.outcome, Outcome::kOk) << "frame " << k;
    if (k == 0) {
      EXPECT_TRUE(resp.payload.empty());
    } else {
      // Streaming ahead must not change a single output byte.
      EXPECT_EQ(resp.payload, reference[k - 1]) << "pair " << k;
    }
  }
  const serve::TrackResponse close = client.read_response();
  EXPECT_EQ(close.outcome, Outcome::kOk);
  EXPECT_NE(close.message.find("frames=5"), std::string::npos);
  client.quit();

  server.request_drain();
  server.wait();
  // open + 5 frames + close = 7 messages, each answered exactly once.
  EXPECT_EQ(server.metrics().counter("serve.requests_total").value(), 7.0);
  expect_invariant(server);
  EXPECT_EQ(server.pipelines().aggregate_stats().surface_fits, 5u);
}

TEST(ServeSession, FrameBeforeOpenAndDoubleCloseAreProtocolErrors) {
  serve::Server server(test_options());
  server.start();
  server.run_in_thread();

  serve::Client client;
  client.connect("127.0.0.1", server.port());

  // Frame before open: error, connection stays usable.
  const auto frames = frame_stream(32, 32, 2);
  serve::TrackResponse resp = client.seq_frame(1, 32, 32, frames[0]);
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kProtocol);

  // Close without a session: same.
  resp = client.seq_close(2);
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kProtocol);

  // The connection survived: a real session works.
  EXPECT_EQ(client.seq_open(session_config(3)).outcome, Outcome::kOk);
  EXPECT_EQ(client.seq_frame(4, 32, 32, frames[0]).outcome, Outcome::kOk);
  EXPECT_EQ(client.seq_close(5).outcome, Outcome::kOk);

  // Double close: the second has no session left.
  resp = client.seq_close(6);
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kProtocol);

  // A second open on one connection is fine after close; two at once
  // are not.
  EXPECT_EQ(client.seq_open(session_config(7)).outcome, Outcome::kOk);
  resp = client.seq_open(session_config(8));
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kProtocol);

  client.quit();
  server.request_drain();
  server.wait();
  expect_invariant(server);
}

TEST(ServeSession, DimsMismatchMidStreamIsAProtocolError) {
  serve::Server server(test_options());
  server.start();
  server.run_in_thread();

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_EQ(client.seq_open(session_config(1)).outcome, Outcome::kOk);
  const serve::TrackResponse resp =
      client.seq_frame(2, 16, 16, pattern_bytes(16, 16, 0.0));
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kProtocol);
  // The session itself is still open and usable at the right dims.
  EXPECT_EQ(client.seq_frame(3, 32, 32, pattern_bytes(32, 32, 0.0)).outcome,
            Outcome::kOk);
  EXPECT_EQ(client.seq_close(4).outcome, Outcome::kOk);
  client.quit();
  server.request_drain();
  server.wait();
  expect_invariant(server);
}

TEST(ServeSession, MidSessionDeadlineAbortsWithoutLeakingSlot) {
  serve::ServeOptions options = test_options();
  options.workers = 1;
  options.admission.max_sessions = 1;  // a leaked slot would wedge reopen
  // Every frame stalls 300 ms against a 50 ms session deadline.
  options.chaos.enabled = true;
  options.chaos.stall_rate = 1.0;
  options.chaos.stall_ms = 300;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  serve::TrackRequest config = session_config(1, "late");
  config.deadline_ms = 50;

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_EQ(client.seq_open(config).outcome, Outcome::kOk);

  const auto frames = frame_stream(32, 32, 2);
  serve::TrackResponse resp = client.seq_frame(2, 32, 32, frames[0]);
  EXPECT_EQ(resp.outcome, Outcome::kDeadline);
  EXPECT_EQ(resp.code, ServeError::kDeadline);

  // The deadline aborted the session: exactly one taxonomy outcome for
  // the failed frame, and the next frame finds no session.
  resp = client.seq_frame(3, 32, 32, frames[1]);
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kProtocol);

  // The slot was released: with max_sessions=1 a reopen must succeed.
  serve::TrackRequest retry = session_config(4, "late");  // no deadline
  EXPECT_EQ(client.seq_open(retry).outcome, Outcome::kOk);
  EXPECT_EQ(client.seq_close(5).outcome, Outcome::kOk);
  client.quit();

  server.request_drain();
  server.wait();
  EXPECT_EQ(server.outcome_count(Outcome::kDeadline), 1.0);
  expect_invariant(server);
}

TEST(ServeSession, SessionCapRejectsOverloadedAndReleases) {
  serve::ServeOptions options = test_options();
  options.admission.max_sessions = 1;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  serve::Client a, b;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());
  ASSERT_EQ(a.seq_open(session_config(1, "a")).outcome, Outcome::kOk);

  // Second concurrent session: bounced with the overload taxonomy.
  serve::TrackResponse resp = b.seq_open(session_config(2, "b"));
  EXPECT_EQ(resp.outcome, Outcome::kRejected);
  EXPECT_EQ(resp.code, ServeError::kOverloaded);

  // Closing A's session frees the slot for B.
  EXPECT_EQ(a.seq_close(3).outcome, Outcome::kOk);
  EXPECT_EQ(b.seq_open(session_config(4, "b")).outcome, Outcome::kOk);
  EXPECT_EQ(b.seq_close(5).outcome, Outcome::kOk);
  a.quit();
  b.quit();
  server.request_drain();
  server.wait();
  expect_invariant(server);
}

TEST(ServeSession, DrainWithOpenSessionFinishesCleanly) {
  serve::ServeOptions options = test_options();
  options.workers = 1;
  options.chaos.enabled = true;
  options.chaos.stall_rate = 1.0;
  options.chaos.stall_ms = 200;  // keeps the frame in flight across drain
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  const auto frames = frame_stream(32, 32, 2);
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_EQ(client.seq_open(session_config(1, "drain")).outcome,
            Outcome::kOk);

  // First frame is in flight (stalled 200 ms) when the drain lands.
  serve::TrackResponse first;
  std::thread sender([&] { first = client.seq_frame(2, 32, 32, frames[0]); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server.request_drain();
  sender.join();
  // The in-flight frame finished normally despite the drain; the
  // completion pump then aborted the session (shutdown).
  EXPECT_EQ(first.outcome, Outcome::kOk);

  // SIGTERM-style drain must terminate with the session open — no hang,
  // no lost accounting.
  server.wait();
  expect_invariant(server);
}

TEST(ServeSession, ChaosCorruptionDegradesStreamNotHangs) {
  serve::ServeOptions options = test_options();
  options.chaos.enabled = true;
  options.chaos.seed = 7;
  options.chaos.frame_fault_rate = 1.0;  // every frame corrupted
  options.chaos.fault_intensity = 0.06;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  const auto frames = frame_stream(32, 32, 3);
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_EQ(client.seq_open(session_config(1, "chaos")).outcome,
            Outcome::kOk);
  int degraded = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const serve::TrackResponse resp =
        client.seq_frame(2 + k, 32, 32, frames[k]);
    ASSERT_EQ(resp.code, ServeError::kOk) << "frame " << k;
    if (resp.outcome == Outcome::kDegraded) ++degraded;
    if (k > 0 && resp.outcome == Outcome::kDegraded) {
      EXPECT_FALSE(resp.payload.empty());
    }
  }
  // Corruption on a session frame degrades the stream instead of
  // hanging or erroring; once repaired input enters the chain the taint
  // is sticky.
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(client.seq_close(9).outcome, Outcome::kOk);
  client.quit();
  server.request_drain();
  server.wait();
  expect_invariant(server);
}

TEST(ServeSession, ChaosDegradedIsSticky) {
  serve::ServeOptions options = test_options();
  options.chaos.enabled = true;
  options.chaos.seed = 7;
  options.chaos.frame_fault_rate = 0.5;
  options.chaos.fault_intensity = 0.06;
  const auto frames = frame_stream(32, 32, 4);

  // Frame ids picked with the server's own chaos decisions: frames 0, 1
  // and 3 clean, frame 2 corrupted with at least one injected fault.
  const serve::ChaosEngine chaos(options.chaos);
  const auto faults_injected = [&](std::uint64_t id, std::size_t k) {
    imaging::ImageF img = image_from_bytes(32, 32, frames[k]);
    core::FaultLog log;
    core::FaultInjector(chaos.fault_spec(id)).corrupt_frame(img, 0, &log);
    return !log.empty();
  };
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 100; ids.size() < frames.size(); ++id) {
    const bool corrupt = chaos.corrupt_frames(id);
    if (ids.size() == 2 ? corrupt && faults_injected(id, 2) : !corrupt)
      ids.push_back(id);
  }

  serve::Server server(options);
  server.start();
  server.run_in_thread();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_EQ(client.seq_open(session_config(1, "sticky")).outcome,
            Outcome::kOk);
  // The repaired frame 2 becomes pair 3's before frame, so the taint
  // outlives it: clean frame 3 still answers degraded.
  const Outcome expected[] = {Outcome::kOk, Outcome::kOk, Outcome::kDegraded,
                              Outcome::kDegraded};
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const serve::TrackResponse resp =
        client.seq_frame(ids[k], 32, 32, frames[k]);
    EXPECT_EQ(resp.outcome, expected[k]) << "frame " << k;
    EXPECT_EQ(resp.code, ServeError::kOk) << "frame " << k;
    EXPECT_EQ(resp.payload.empty(), k == 0) << "frame " << k;
  }
  EXPECT_EQ(client.seq_close(9).outcome, Outcome::kOk);
  client.quit();
  server.request_drain();
  server.wait();
  EXPECT_EQ(server.outcome_count(Outcome::kDegraded), 2.0);
  expect_invariant(server);
}

TEST(ServeSession, AdmissionOrderPerMessageKind) {
  // One token per tenant that does not refill within the test, and one
  // session slot: each message kind meets the checks in its own order.
  serve::ServeOptions options = test_options();
  options.admission.tenant_rate = 0.001;
  options.admission.tenant_burst = 1;
  options.admission.max_sessions = 1;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  const auto frames = frame_stream(32, 32, 3);
  serve::Client a, b;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());

  // The first SEQ-OPEN spends the tenant's only token.
  ASSERT_EQ(a.seq_open(session_config(1, "metered")).outcome, Outcome::kOk);
  // A second open on the same connection is misuse, caught before the
  // empty bucket.
  serve::TrackResponse resp = a.seq_open(session_config(2, "metered"));
  EXPECT_EQ(resp.outcome, Outcome::kError);
  EXPECT_EQ(resp.code, ServeError::kProtocol);
  // The session's frames ride on the open's admission.
  for (std::size_t k = 0; k < frames.size(); ++k)
    EXPECT_EQ(a.seq_frame(3 + k, 32, 32, frames[k]).outcome, Outcome::kOk)
        << "frame " << k;
  // A TRACK from the same tenant meets the empty bucket.
  serve::TrackRequest track = session_config(10, "metered");
  track.before = frames[0];
  track.after = frames[1];
  resp = b.track(track);
  EXPECT_EQ(resp.outcome, Outcome::kRejected);
  EXPECT_EQ(resp.code, ServeError::kRateLimited);
  // A SEQ-OPEN from another connection meets the session cap first.
  resp = b.seq_open(session_config(11, "metered"));
  EXPECT_EQ(resp.outcome, Outcome::kRejected);
  EXPECT_EQ(resp.code, ServeError::kOverloaded);

  EXPECT_EQ(a.seq_close(20).outcome, Outcome::kOk);
  a.quit();
  b.quit();
  server.request_drain();
  server.wait();
  expect_invariant(server);
}

TEST(ServeSession, InterleavedTenantsKeepIndependentStreams) {
  serve::Server server(test_options());
  server.start();
  server.run_in_thread();

  // Two tenants with DIFFERENT motion, interleaved frame by frame on
  // two connections; each stream must match its own reference.
  const auto frames_a = frame_stream(32, 32, 3);
  std::vector<std::vector<std::uint8_t>> frames_b;
  for (int k = 0; k < 3; ++k)
    frames_b.push_back(pattern_bytes(32, 32, 1.7 + 0.5 * k));
  const serve::TrackRequest config_a = session_config(1, "tenant-a");
  const serve::TrackRequest config_b = session_config(2, "tenant-b");
  const auto ref_a = reference_sequence_flows(config_a, frames_a);
  const auto ref_b = reference_sequence_flows(config_b, frames_b);

  serve::Client a, b;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());
  ASSERT_EQ(a.seq_open(config_a).outcome, Outcome::kOk);
  ASSERT_EQ(b.seq_open(config_b).outcome, Outcome::kOk);
  for (int k = 0; k < 3; ++k) {
    const serve::TrackResponse ra = a.seq_frame(10 + k, 32, 32, frames_a[k]);
    const serve::TrackResponse rb = b.seq_frame(20 + k, 32, 32, frames_b[k]);
    ASSERT_EQ(ra.outcome, Outcome::kOk);
    ASSERT_EQ(rb.outcome, Outcome::kOk);
    if (k > 0) {
      EXPECT_EQ(ra.payload, ref_a[k - 1]) << "tenant-a pair " << k;
      EXPECT_EQ(rb.payload, ref_b[k - 1]) << "tenant-b pair " << k;
    }
  }
  EXPECT_EQ(a.seq_close(30).outcome, Outcome::kOk);
  EXPECT_EQ(b.seq_close(31).outcome, Outcome::kOk);
  a.quit();
  b.quit();
  server.request_drain();
  server.wait();
  expect_invariant(server);
}

// ---------------------------------------------------------------------------
// Golden equivalence: session == track_sequence == T-1 one-shot TRACKs,
// across backends, with batching on and off.

TEST(GoldenSession, BitIdenticalAcrossBackendsAndBatchingModes) {
  const int kFrames = 6;
  const auto frames = frame_stream(32, 32, kFrames);
  const serve::TrackRequest config = session_config(1, "golden");
  // One sequential in-process reference; Sec 5.1 bit-identity makes it
  // the oracle for every backend.
  const auto reference = reference_sequence_flows(config, frames);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kFrames - 1));

  for (const std::string& backend :
       {std::string("sequential"), std::string("vector")}) {
    for (const bool batching : {true, false}) {
      serve::ServeOptions options = test_options();
      options.backend = backend;
      options.batching = batching;
      serve::Server server(options);
      server.start();
      server.run_in_thread();

      // Streamed session.
      serve::Client session;
      session.connect("127.0.0.1", server.port());
      serve::TrackRequest open = config;
      ASSERT_EQ(session.seq_open(open).outcome, Outcome::kOk)
          << backend << " batching=" << batching;
      for (int k = 0; k < kFrames; ++k) {
        const serve::TrackResponse resp =
            session.seq_frame(10 + k, 32, 32, frames[k]);
        ASSERT_EQ(resp.outcome, Outcome::kOk)
            << backend << " batching=" << batching << " frame " << k;
        if (k > 0) {
          EXPECT_EQ(resp.payload, reference[k - 1])
              << backend << " batching=" << batching << " pair " << k;
        }
      }
      EXPECT_EQ(session.seq_close(30).outcome, Outcome::kOk);
      session.quit();

      // The same pairs as T-1 one-shot TRACKs on the same server.
      serve::Client oneshot;
      oneshot.connect("127.0.0.1", server.port());
      for (int k = 1; k < kFrames; ++k) {
        serve::TrackRequest req = config;
        req.id = 40 + static_cast<std::uint64_t>(k);
        req.before = frames[k - 1];
        req.after = frames[k];
        const serve::TrackResponse resp = oneshot.track(req);
        ASSERT_EQ(resp.outcome, Outcome::kOk);
        EXPECT_EQ(resp.payload, reference[k - 1])
            << backend << " batching=" << batching << " oneshot pair " << k;
      }
      oneshot.quit();

      server.request_drain();
      server.wait();
      expect_invariant(server);
    }
  }
}

// ---------------------------------------------------------------------------
// Batching (no sockets: deterministic queue construction)

TEST(Batching, CoalescesIdenticalQueuedTracks) {
  serve::PipelineManager pipelines{"sequential", 16};
  serve::ChaosEngine chaos{};
  obs::MetricsRegistry metrics;

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, serve::TrackResponse>> done;
  auto on_complete = [&](const serve::Job& job, serve::TrackResponse resp) {
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(job.request.id, std::move(resp));
  };

  // A heavy leader occupies the single worker while four identical
  // small TRACKs queue behind it; the next pop sweeps and coalesces.
  serve::TrackRequest heavy = session_config(1, "heavy");
  heavy.width = 64;
  heavy.height = 64;
  heavy.search_radius = 3;
  heavy.template_radius = 4;
  heavy.nst = 2;
  heavy.before = pattern_bytes(64, 64, 0.0);
  heavy.after = pattern_bytes(64, 64, 0.35);

  serve::WorkerPool pool{1, 8, pipelines, chaos, on_complete,
                         serve::BatchOptions{true, 8}, &metrics};
  serve::Job lead;
  lead.request = heavy;
  ASSERT_TRUE(pool.submit(std::move(lead)));
  for (std::uint64_t id = 2; id <= 5; ++id) {
    serve::Job job;
    job.request = session_config(id, "small");
    job.request.before = pattern_bytes(32, 32, 0.0);
    job.request.after = pattern_bytes(32, 32, 0.35);
    ASSERT_TRUE(pool.submit(std::move(job)));
  }
  pool.drain();

  ASSERT_EQ(done.size(), 5u);
  const serve::WorkerPool::BatchStats stats = pool.batch_stats();
  // One sweep for the heavy leader (alone), one for the small leader
  // with three coalesced members.
  EXPECT_EQ(stats.sweeps, 2.0);
  EXPECT_EQ(stats.batches, 1.0);
  EXPECT_EQ(stats.batched_requests, 3.0);
  EXPECT_EQ(stats.coalesce_hits, 3.0);

  // All four small responses are ok and byte-identical; the coalesced
  // members say so.
  std::string small_payload;
  int coalesced = 0;
  for (const auto& [id, resp] : done) {
    EXPECT_EQ(resp.outcome, Outcome::kOk) << "id " << id;
    if (id >= 2) {
      if (small_payload.empty()) small_payload = resp.payload;
      EXPECT_EQ(resp.payload, small_payload) << "id " << id;
      if (resp.message == "coalesced") ++coalesced;
    }
  }
  EXPECT_EQ(coalesced, 3);
  // The histogram saw both sweeps, one of size 1 and one of size 4.
  const auto snap = metrics.snapshot();
  const obs::MetricSnapshot* hist =
      obs::find_metric(snap, "serve.batch.size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);
  EXPECT_EQ(hist->value, 5.0);  // sum of observed sizes: 1 + 4
  // Five requests cost two pipeline runs: the heavy leader and the
  // small leader (the three coalesced members ran nothing).
  EXPECT_EQ(pipelines.aggregate_stats().pairs_tracked, 2u);
}

TEST(Batching, DifferentConfigsOrFramesDoNotCoalesce) {
  serve::PipelineManager pipelines{"sequential", 16};
  serve::ChaosEngine chaos{};
  obs::MetricsRegistry metrics;

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, serve::TrackResponse>> done;
  auto on_complete = [&](const serve::Job& job, serve::TrackResponse resp) {
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(job.request.id, std::move(resp));
  };

  serve::TrackRequest heavy = session_config(1, "heavy");
  heavy.width = 64;
  heavy.height = 64;
  heavy.search_radius = 3;
  heavy.template_radius = 4;
  heavy.nst = 2;
  heavy.before = pattern_bytes(64, 64, 0.0);
  heavy.after = pattern_bytes(64, 64, 0.35);

  serve::WorkerPool pool{1, 8, pipelines, chaos, on_complete,
                         serve::BatchOptions{true, 8}, &metrics};
  serve::Job lead;
  lead.request = heavy;
  ASSERT_TRUE(pool.submit(std::move(lead)));

  // Same before frame but a different search radius: config-ineligible.
  serve::Job other_cfg;
  other_cfg.request = session_config(2, "small");
  other_cfg.request.search_radius = 1;
  other_cfg.request.before = pattern_bytes(32, 32, 0.0);
  other_cfg.request.after = pattern_bytes(32, 32, 0.35);

  // Same config but a different after frame: swept into the batch, runs
  // its own fit, must NOT copy the leader's payload.
  serve::Job other_after;
  other_after.request = session_config(3, "small");
  other_after.request.before = pattern_bytes(32, 32, 0.0);
  other_after.request.after = pattern_bytes(32, 32, 0.9);

  serve::Job base;
  base.request = session_config(4, "small");
  base.request.before = pattern_bytes(32, 32, 0.0);
  base.request.after = pattern_bytes(32, 32, 0.35);

  ASSERT_TRUE(pool.submit(std::move(base)));
  serve::Job cfg_job = std::move(other_cfg);
  ASSERT_TRUE(pool.submit(std::move(cfg_job)));
  serve::Job after_job = std::move(other_after);
  ASSERT_TRUE(pool.submit(std::move(after_job)));
  pool.drain();

  ASSERT_EQ(done.size(), 4u);
  const serve::WorkerPool::BatchStats stats = pool.batch_stats();
  // id=3 (same config+before, different after) may ride in id=4's batch
  // but must not coalesce; id=2 (different config) never joins.
  EXPECT_EQ(stats.coalesce_hits, 0.0);
  std::string p3, p4;
  for (const auto& [id, resp] : done) {
    EXPECT_EQ(resp.outcome, Outcome::kOk);
    if (id == 3) p3 = resp.payload;
    if (id == 4) p4 = resp.payload;
  }
  EXPECT_NE(p3, p4) << "different after frames must yield different flows";
}

// ---------------------------------------------------------------------------
// Seeded stress: session frames racing batched TRACKs on one pool.
// Small and deterministic — this is the TSan leg's main course.

TEST(ServeStress, SessionsRaceBatchedTracksOnOnePool) {
  serve::ServeOptions options = test_options();
  options.workers = 2;
  options.batching = true;
  serve::Server server(options);
  server.start();
  server.run_in_thread();

  const int kFrames = 4;
  const auto frames = frame_stream(32, 32, kFrames);
  const serve::TrackRequest config = session_config(1, "stream");
  const auto reference = reference_sequence_flows(config, frames);

  std::vector<std::thread> workers;
  std::vector<std::string> errors(4);

  // Two session streams...
  for (int s = 0; s < 2; ++s)
    workers.emplace_back([&, s] {
      serve::Client client;
      client.connect("127.0.0.1", server.port());
      serve::TrackRequest open = config;
      open.id = static_cast<std::uint64_t>(100 * (s + 1));
      open.tenant = "stream-" + std::to_string(s);
      if (client.seq_open(open).outcome != Outcome::kOk) {
        errors[static_cast<std::size_t>(s)] = "open failed";
        return;
      }
      for (int k = 0; k < kFrames; ++k) {
        const serve::TrackResponse resp = client.seq_frame(
            open.id + 1 + static_cast<std::uint64_t>(k), 32, 32, frames[k]);
        if (resp.outcome != Outcome::kOk) {
          errors[static_cast<std::size_t>(s)] = "frame failed";
          return;
        }
        if (k > 0 && resp.payload != reference[k - 1]) {
          errors[static_cast<std::size_t>(s)] = "stream diverged";
          return;
        }
      }
      if (client.seq_close(open.id + 50).outcome != Outcome::kOk)
        errors[static_cast<std::size_t>(s)] = "close failed";
      client.quit();
    });

  // ...racing two TRACK clients posting identical batchable pairs.
  for (int t = 0; t < 2; ++t)
    workers.emplace_back([&, t] {
      serve::Client client;
      client.connect("127.0.0.1", server.port());
      for (int n = 0; n < 6; ++n) {
        serve::TrackRequest req = config;
        req.id = static_cast<std::uint64_t>(1000 + 100 * t + n);
        req.tenant = "batch";
        req.before = frames[0];
        req.after = frames[1];
        const serve::TrackResponse resp = client.track(req);
        if (resp.outcome != Outcome::kOk) {
          errors[2 + static_cast<std::size_t>(t)] = "track failed";
          return;
        }
        if (resp.payload != reference[0]) {
          errors[2 + static_cast<std::size_t>(t)] = "track diverged";
          return;
        }
      }
      client.quit();
    });

  for (std::thread& t : workers) t.join();
  for (const std::string& err : errors) EXPECT_EQ(err, "");

  server.request_drain();
  server.wait();
  // 2 * (open + 4 frames + close) + 2 * 6 tracks = 24 messages.
  EXPECT_EQ(server.metrics().counter("serve.requests_total").value(), 24.0);
  expect_invariant(server);
}

}  // namespace
