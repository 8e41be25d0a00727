// server.hpp — sma_serve's poll()-based IO loop and request lifecycle.
//
// One IO thread owns every socket: it accepts connections, feeds bytes
// to per-connection RequestParsers, runs ADMISSION on each parsed
// message, and writes responses back as the worker pool completes them.
// Admission is three shared helpers: count_request counts every TRACK
// and SEQ message (and gates TRACK and SEQ-OPEN on drain), spend_token
// charges the tenant's token bucket (TRACK, SEQ-OPEN), and answer
// builds, accounts and queues every answer given without a worker.  A
// TRACK runs drain -> token bucket -> bounded queue; a SEQ-OPEN runs
// drain -> one session per connection -> session cap -> token bucket.
// Workers never touch sockets; completions cross back to the IO thread
// through a mutex-guarded batch plus a self-pipe wakeup, the same pipe a
// signal handler pokes via the async-signal-safe request_drain().
//
// Request lifecycle invariant (the chaos contract): every parsed TRACK
// and SEQ message is accounted exactly once — answered at admission
// (shutdown / rate-limited / overloaded rejections, protocol misuse,
// session open and close) or completed by a worker (ok / degraded /
// deadline / error) — whether or not its connection is still alive to
// receive the response.  serve.requests_total therefore always equals
// the sum of the serve.outcome.* counters; tests/test_serve.cpp and the
// chaos smoke assert exactly that.
//
// Graceful drain: request_drain() (SIGTERM/SIGINT) stops the listener,
// rejects new TRACKs with code=shutdown, lets queued and in-flight work
// finish, flushes response buffers (bounded by drain_flush_ms so a
// stalled client cannot wedge shutdown), then flushes metrics to
// metrics_path and returns from run().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/chaos.hpp"
#include "serve/frame_store.hpp"
#include "serve/protocol.hpp"
#include "serve/worker_pool.hpp"

namespace sma::serve {

struct ServeOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; Server::port() reports the bound port after start().
  int port = 0;
  std::size_t workers = 2;
  /// Default tracking backend for requests that name none.
  std::string backend = "sequential";
  /// Deadline imposed on requests that carry none; 0 = unlimited.
  int default_deadline_ms = 0;
  std::size_t frame_cache_capacity = 64;
  std::size_t geometry_cache_capacity = 16;
  AdmissionOptions admission;
  ChaosOptions chaos;
  /// Width of the process-wide tiled-scheduler pool
  /// (sched::ThreadPool::shared()) the daemon resizes to at start():
  /// the TOTAL tile-execution budget every request worker's tracking
  /// shares — workers submit tiles and block, so `workers` concurrent
  /// requests never occupy more than this many compute threads.
  /// 0 = leave the pool at its default (SMA_THREADS or hardware).
  int sched_threads = 0;
  /// Metrics CSV written when the server drains ("" = none).
  std::string metrics_path;
  /// Grace for flushing response buffers after the last job completes.
  int drain_flush_ms = 2000;
  /// Cross-request batching: workers sweep queued TRACKs sharing a
  /// pipeline key and before frame and run them together (see
  /// worker_pool.hpp).  Off = every job processed individually.
  bool batching = true;
  /// Jobs one batch sweep runs together, leader included.
  std::size_t batch_max = 8;
};

class Server {
 public:
  /// Throws std::invalid_argument on nonsense options.
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens.  Throws std::system_error on socket failure
  /// (classified as an I/O error by the CLI).
  void start();

  /// The bound port (after start()).
  int port() const { return port_; }

  /// Runs the IO loop until a drain completes.  Call from one thread.
  void run();

  /// start()ed servers only: runs the IO loop on a background thread
  /// (tests drive the server and a client from one process this way).
  void run_in_thread();
  /// Joins the run_in_thread() thread.
  void wait();

  /// Requests a graceful drain.  Async-signal-safe: an atomic store and
  /// one write() to the self-pipe.  Idempotent, any thread.
  void request_drain() noexcept;

  obs::MetricsRegistry& metrics() { return metrics_; }
  PipelineManager& pipelines() { return pipelines_; }
  FrameStore& frames() { return frames_; }

  /// Current value of one serve.outcome.* counter.
  double outcome_count(Outcome outcome);

  /// The STATS response line (exposed so tests parse one source of
  /// truth).  Includes p50/p99 from the request-latency histogram.
  std::string stats_line();

 private:
  struct Connection;
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string tenant;
    JobKind kind = JobKind::kTrack;
    TrackResponse response;
  };

  void io_pass(int timeout_ms);
  void accept_ready();
  void process_completions();
  /// False = close the connection.
  bool read_ready(Connection& conn);
  bool write_ready(Connection& conn);
  bool handle_message(Connection& conn, RequestParser::Event event,
                      TrackRequest& request);
  void admit(Connection& conn, TrackRequest request);
  void close_connection(std::uint64_t conn_id);
  void wake() noexcept;
  void flush_metrics();

  // Admission helpers shared by the message handlers (IO thread only).
  /// Counts one TRACK or SEQ message in serve.requests_total and its
  /// tenant's requests.  With `drain_gate` (TRACK, SEQ-OPEN) a draining
  /// server answers it rejected/shutdown and the call returns false.
  bool count_request(Connection& conn, std::uint64_t id,
                     const std::string& tenant, bool drain_gate);
  /// Spends one of the tenant's rate-limit tokens (TRACK, SEQ-OPEN); an
  /// empty bucket answers rejected/rate-limited and returns false.
  bool spend_token(Connection& conn, std::uint64_t id,
                   const std::string& tenant);
  /// Builds, accounts and queues one answer the IO thread gives itself
  /// (every handler answer but the parse error, which is no request).
  /// A rejection also counts serve.rejected.<code>, a protocol error
  /// serve.protocol_errors.
  void answer(Connection& conn, std::uint64_t id, const std::string& tenant,
              Outcome outcome, ServeError code, std::string message,
              int retry_after_ms = 0);
  void reject(Connection& conn, std::uint64_t id, const std::string& tenant,
              ServeError code, int retry_after_ms);
  void account(const TrackResponse& response, const std::string& tenant);
  /// An admitted request's job, its token armed with `deadline_ms` (the
  /// server default when <= 0).
  Job make_job(const Connection& conn, TrackRequest request, int deadline_ms);

  // Sequence-session lifecycle (IO thread only).  Every SEQ message is
  // counted in serve.requests_total and resolves to exactly one outcome,
  // like a TRACK; a session abort releases the slot exactly once.
  void seq_open(Connection& conn, TrackRequest request);
  void seq_frame(Connection& conn, TrackRequest request);
  void seq_close(Connection& conn, std::uint64_t id);
  /// Out-of-session SEQ misuse: outcome=error code=protocol, connection
  /// stays usable.
  void seq_error(Connection& conn, std::uint64_t id,
                 const std::string& tenant, const std::string& message);
  /// Tears the session down: cancels the control token, flushes pending
  /// frames (and a pending close) as rejected, releases the slot.
  void abort_session(Connection& conn, ServeError code,
                     const std::string& message);
  void finish_close(Connection& conn);

  ServeOptions options_;
  obs::MetricsRegistry metrics_;
  PipelineManager pipelines_;
  FrameStore frames_;
  ChaosEngine chaos_;
  std::unique_ptr<WorkerPool> pool_;

  int listen_fd_ = -1;
  int port_ = 0;
  int wake_read_ = -1;
  /// Write end of the self-pipe, atomic so request_drain() may run from
  /// a signal handler while the IO thread (re)reads it.
  std::atomic<int> wake_write_{-1};

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  bool drain_grace_armed_ = false;
  std::chrono::steady_clock::time_point drain_grace_until_{};

  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::map<std::string, TokenBucket> buckets_;
  /// Open sequence sessions (IO thread only; capped by
  /// admission.max_sessions).
  std::size_t open_sessions_ = 0;

  /// Jobs handed to the pool minus completions processed — maintained
  /// only on the IO thread, so the drain-done check cannot race a
  /// worker between queue-pop and completion.
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  std::thread run_thread_;
};

}  // namespace sma::serve
