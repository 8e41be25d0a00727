#include "serve/server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/obs_bridge.hpp"
#include "obs/report.hpp"

namespace sma::serve {

namespace {

/// Latency buckets for serve.request_seconds, millisecond-scale tracking
/// requests up through paper-scale multi-second searches.
const std::vector<double> kLatencyBounds = {
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25,  0.5,    1.0,   2.5,  5.0,   10.0};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

/// Per-connection IO state, owned by the IO thread exclusively.
struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  RequestParser parser;
  std::string outbox;
  /// QUIT or a protocol error: stop reading, flush, then close.
  bool close_after_flush = false;
  bool stop_reading = false;
  /// Chaos slow-read mode caps bytes consumed per IO pass.
  bool throttled = false;

  /// The connection's open sequence session (at most one).  The server
  /// serializes frames per session: exactly one frame job in flight
  /// (seq_busy), later arrivals parked in seq_pending.  The invariant
  /// `seq_pending nonempty => seq_busy => a frame is in flight` keeps
  /// the drain predicate (submitted_ == completed_) sufficient.
  std::shared_ptr<SeqSession> session;
  std::deque<Job> seq_pending;
  bool seq_busy = false;
  /// SEQ-CLOSE received; its response is deferred until the stream
  /// idles (finish_close).
  bool seq_closing = false;
  std::uint64_t seq_close_id = 0;

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      pipelines_(options_.backend, options_.geometry_cache_capacity),
      frames_(options_.frame_cache_capacity),
      chaos_(options_.chaos) {
  if (options_.workers == 0)
    throw std::invalid_argument("Server: workers >= 1 required");
  if (options_.admission.queue_capacity == 0)
    throw std::invalid_argument("Server: queue_capacity >= 1 required");
  // Pre-register the invariant counters so exports show explicit zeros.
  metrics_.counter("serve.requests_total");
  metrics_.counter("serve.connections_total");
  metrics_.counter("serve.protocol_errors");
  for (Outcome o : {Outcome::kOk, Outcome::kDegraded, Outcome::kRejected,
                    Outcome::kDeadline, Outcome::kError})
    metrics_.counter(std::string("serve.outcome.") + outcome_name(o));
  for (ServeError code : {ServeError::kOverloaded, ServeError::kRateLimited,
                          ServeError::kShutdown})
    metrics_.counter(std::string("serve.rejected.") + serve_error_name(code));
  metrics_.histogram("serve.request_seconds", kLatencyBounds);
  metrics_.gauge("serve.queue_depth");
  metrics_.gauge("serve.in_flight");
  metrics_.gauge("serve.frame_dedup_hits");
  metrics_.gauge("serve.frame_dedup_misses");

  pool_ = std::make_unique<WorkerPool>(
      options_.workers, options_.admission.queue_capacity, pipelines_,
      frames_, chaos_,
      [this](const Job& job, TrackResponse response) {
        {
          std::lock_guard<std::mutex> lock(completions_mutex_);
          completions_.push_back(Completion{job.conn_id, job.request.tenant,
                                            job.kind, std::move(response)});
        }
        wake();
      },
      BatchOptions{options_.batching, options_.batch_max}, &metrics_);
}

Server::~Server() {
  request_drain();
  wait();
  pool_->drain();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  const int w = wake_write_.exchange(-1);
  if (w >= 0) ::close(w);
}

void Server::start() {
  // Resize the process-wide tile-execution budget BEFORE any request is
  // in flight (ThreadPool::resize must not race run() calls).  Workers
  // submitting tiles block rather than compute, so `workers` concurrent
  // requests share these threads instead of multiplying them.
  if (options_.sched_threads > 0)
    sched::ThreadPool::shared().resize(options_.sched_threads);

  int pipefd[2];
  if (::pipe(pipefd) != 0) throw_errno("Server: pipe");
  wake_read_ = pipefd[0];
  set_nonblocking(wake_read_);
  set_nonblocking(pipefd[1]);
  wake_write_.store(pipefd[1]);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("Server: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw std::invalid_argument("Server: bad host " + options_.host);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw_errno("Server: bind");
  if (::listen(listen_fd_, 64) != 0) throw_errno("Server: listen");
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0)
    throw_errno("Server: getsockname");
  port_ = ntohs(bound.sin_port);
}

void Server::run_in_thread() {
  run_thread_ = std::thread([this] { run(); });
}

void Server::wait() {
  if (run_thread_.joinable()) run_thread_.join();
}

void Server::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  wake();
}

void Server::wake() noexcept {
  const int fd = wake_write_.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void Server::run() {
  while (true) {
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }

    process_completions();

    if (draining_ && submitted_ == completed_) {
      const auto now = std::chrono::steady_clock::now();
      if (!drain_grace_armed_) {
        drain_grace_armed_ = true;
        drain_grace_until_ =
            now + std::chrono::milliseconds(options_.drain_flush_ms);
      }
      bool flushed = true;
      for (const auto& [id, conn] : conns_)
        if (!conn->outbox.empty()) flushed = false;
      if (flushed || now >= drain_grace_until_) break;
    }

    io_pass(draining_ ? 20 : 100);
  }

  pool_->drain();
  process_completions();
  flush_metrics();
  conns_.clear();
}

void Server::io_pass(int timeout_ms) {
  // Close connections whose flush finished.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = *it->second;
    if (c.close_after_flush && c.outbox.empty()) {
      // QUIT / protocol-error close: the session slot must not leak.
      abort_session(c, ServeError::kShutdown, "connection closed");
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }

  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;  // 0 = listener / wake pipe
  fds.reserve(conns_.size() + 2);
  ids.reserve(conns_.size() + 2);

  if (listen_fd_ >= 0) {
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    ids.push_back(0);
  }
  fds.push_back(pollfd{wake_read_, POLLIN, 0});
  ids.push_back(0);

  for (const auto& [id, conn] : conns_) {
    short events = 0;
    if (!conn->stop_reading) events |= POLLIN;
    if (!conn->outbox.empty()) events |= POLLOUT;
    if (events == 0) continue;
    fds.push_back(pollfd{conn->fd, events, 0});
    ids.push_back(id);
  }

  if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
    if (errno != EINTR) throw_errno("Server: poll");
    return;
  }

  for (std::size_t i = 0; i < fds.size(); ++i) {
    const pollfd& p = fds[i];
    if (p.revents == 0) continue;
    if (p.fd == wake_read_) {
      char buf[256];
      while (::read(wake_read_, buf, sizeof(buf)) > 0) {
      }
      continue;
    }
    if (p.fd == listen_fd_) {
      accept_ready();
      continue;
    }
    const std::uint64_t id = ids[i];
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    bool keep = true;
    if ((p.revents & (POLLERR | POLLNVAL)) != 0) keep = false;
    if (keep && (p.revents & POLLIN) != 0) keep = read_ready(conn);
    if (keep && (p.revents & POLLOUT) != 0) keep = write_ready(conn);
    if (keep && (p.revents & POLLHUP) != 0 && conn.outbox.empty())
      keep = false;
    if (!keep) close_connection(id);
  }
}

void Server::accept_ready() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN, or a racing drain closed the listener
    set_nonblocking(fd);
    // Responses are written header-then-payload as the outbox drains;
    // without TCP_NODELAY, Nagle holds the small trailing segment until
    // the client ACKs (delayed up to 40ms) — a pure-idle stall per
    // message that dwarfs the compute on short requests.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->throttled = chaos_.throttle_connection(conn->id);
    metrics_.counter("serve.connections_total").inc();
    conns_.emplace(conn->id, std::move(conn));
  }
}

bool Server::read_ready(Connection& conn) {
  char buf[65536];
  std::size_t budget = sizeof(buf);
  if (conn.throttled)
    budget = std::max<std::size_t>(
        1, std::min(budget, options_.chaos.slow_read_bytes));
  const ssize_t n = ::read(conn.fd, buf, budget);
  if (n == 0) return false;  // peer closed
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;

  conn.parser.feed(buf, static_cast<std::size_t>(n));
  TrackRequest request;
  while (!conn.stop_reading) {
    const RequestParser::Event event = conn.parser.next(request);
    if (event == RequestParser::Event::kNeedMore) break;
    if (!handle_message(conn, event, request)) break;
  }
  return true;
}

bool Server::write_ready(Connection& conn) {
  const ssize_t n =
      ::write(conn.fd, conn.outbox.data(), conn.outbox.size());
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  conn.outbox.erase(0, static_cast<std::size_t>(n));
  return true;
}

bool Server::handle_message(Connection& conn, RequestParser::Event event,
                            TrackRequest& request) {
  switch (event) {
    case RequestParser::Event::kPing:
      conn.outbox += "PONG\n";
      return true;
    case RequestParser::Event::kStats:
      conn.outbox += stats_line();
      return true;
    case RequestParser::Event::kQuit:
      conn.close_after_flush = true;
      conn.stop_reading = true;
      return false;
    case RequestParser::Event::kError: {
      metrics_.counter("serve.protocol_errors").inc();
      TrackResponse resp;
      resp.outcome = Outcome::kError;
      resp.code = ServeError::kProtocol;
      resp.message = conn.parser.error();
      conn.outbox += format_response(resp);
      conn.close_after_flush = true;
      conn.stop_reading = true;
      return false;
    }
    case RequestParser::Event::kTrack:
      admit(conn, std::move(request));
      return true;
    case RequestParser::Event::kSeqOpen:
      seq_open(conn, std::move(request));
      return true;
    case RequestParser::Event::kSeqFrame:
      seq_frame(conn, std::move(request));
      return true;
    case RequestParser::Event::kSeqClose:
      seq_close(conn, request.id);
      return true;
    case RequestParser::Event::kNeedMore:
      return false;
  }
  return false;
}

bool Server::count_request(Connection& conn, std::uint64_t id,
                           const std::string& tenant, bool drain_gate) {
  metrics_.counter("serve.requests_total").inc();
  metrics_.counter("serve.tenant." + tenant + ".requests").inc();
  if (!drain_gate || !draining_) return true;
  reject(conn, id, tenant, ServeError::kShutdown,
         options_.admission.retry_after_ms);
  return false;
}

bool Server::spend_token(Connection& conn, std::uint64_t id,
                         const std::string& tenant) {
  if (options_.admission.tenant_rate <= 0.0) return true;
  auto [it, inserted] = buckets_.try_emplace(
      tenant, options_.admission.tenant_rate, options_.admission.tenant_burst);
  const auto now = TokenBucket::Clock::now();
  if (it->second.try_acquire(now)) return true;
  reject(conn, id, tenant, ServeError::kRateLimited,
         std::max(1, it->second.millis_until_available(now)));
  return false;
}

void Server::answer(Connection& conn, std::uint64_t id,
                    const std::string& tenant, Outcome outcome,
                    ServeError code, std::string message,
                    int retry_after_ms) {
  TrackResponse resp;
  resp.id = id;
  resp.outcome = outcome;
  resp.code = code;
  resp.retry_after_ms = retry_after_ms;
  resp.message = std::move(message);
  if (outcome == Outcome::kRejected)
    metrics_.counter(std::string("serve.rejected.") + serve_error_name(code))
        .inc();
  if (code == ServeError::kProtocol)
    metrics_.counter("serve.protocol_errors").inc();
  account(resp, tenant);
  conn.outbox += format_response(resp);
}

void Server::reject(Connection& conn, std::uint64_t id,
                    const std::string& tenant, ServeError code,
                    int retry_after_ms) {
  answer(conn, id, tenant, Outcome::kRejected, code, serve_error_name(code),
         retry_after_ms);
}

void Server::seq_error(Connection& conn, std::uint64_t id,
                       const std::string& tenant,
                       const std::string& message) {
  answer(conn, id, tenant, Outcome::kError, ServeError::kProtocol, message);
}

void Server::account(const TrackResponse& response,
                     const std::string& tenant) {
  metrics_
      .counter(std::string("serve.outcome.") + outcome_name(response.outcome))
      .inc();
  metrics_
      .counter("serve.tenant." + tenant + ".outcome." +
               outcome_name(response.outcome))
      .inc();
}

Job Server::make_job(const Connection& conn, TrackRequest request,
                     int deadline_ms) {
  Job job;
  job.conn_id = conn.id;
  job.cancel = std::make_shared<core::CancelToken>();
  if (deadline_ms <= 0) deadline_ms = options_.default_deadline_ms;
  if (deadline_ms > 0)
    job.cancel->set_deadline_after(std::chrono::milliseconds(deadline_ms));
  job.request = std::move(request);
  return job;
}

void Server::admit(Connection& conn, TrackRequest request) {
  const std::uint64_t id = request.id;
  const std::string tenant = request.tenant;
  if (!count_request(conn, id, tenant, /*drain_gate=*/true) ||
      !spend_token(conn, id, tenant))
    return;

  const int deadline_ms = request.deadline_ms;
  if (!pool_->submit(make_job(conn, std::move(request), deadline_ms))) {
    reject(conn, id, tenant, ServeError::kOverloaded,
           options_.admission.retry_after_ms);
    return;
  }
  ++submitted_;
}

void Server::seq_open(Connection& conn, TrackRequest request) {
  const std::uint64_t id = request.id;
  const std::string tenant = request.tenant;
  if (!count_request(conn, id, tenant, /*drain_gate=*/true)) return;
  if (conn.session != nullptr) {
    seq_error(conn, id, tenant, "session already open on this connection");
    return;
  }
  if (options_.admission.max_sessions > 0 &&
      open_sessions_ >= options_.admission.max_sessions) {
    reject(conn, id, tenant, ServeError::kOverloaded,
           options_.admission.retry_after_ms);
    return;
  }
  // The token bucket charges the OPEN only; the session's frames ride
  // on that admission (they are serialized anyway).
  if (!spend_token(conn, id, tenant)) return;

  try {
    core::SmaPipeline& pipeline = pipelines_.pipeline_for(request);
    conn.session = std::make_shared<SeqSession>(std::move(request), pipeline);
  } catch (const std::exception& e) {
    answer(conn, id, tenant, Outcome::kError, classify_exception(e), e.what());
    return;
  }
  ++open_sessions_;
  answer(conn, id, tenant, Outcome::kOk, ServeError::kOk, "session open");
}

void Server::seq_frame(Connection& conn, TrackRequest request) {
  const std::string tenant =
      conn.session != nullptr ? conn.session->config.tenant : request.tenant;
  const std::uint64_t id = request.id;
  count_request(conn, id, tenant, /*drain_gate=*/false);

  if (conn.session == nullptr) {
    seq_error(conn, id, tenant, "no open session");
    return;
  }
  if (conn.seq_closing) {
    seq_error(conn, id, tenant, "frame after close");
    return;
  }
  if (request.width != conn.session->config.width ||
      request.height != conn.session->config.height) {
    seq_error(conn, id, tenant, "frame dimensions mismatch session");
    return;
  }
  if (draining_) {
    reject(conn, id, tenant, ServeError::kShutdown,
           options_.admission.retry_after_ms);
    return;
  }

  request.tenant = tenant;
  Job job = make_job(conn, std::move(request),
                     conn.session->config.deadline_ms);
  job.kind = JobKind::kSeqFrame;
  job.session = conn.session;
  // The per-frame deadline chains to the session-wide control token; the
  // parent link is set before the token crosses threads.
  job.cancel->set_parent(conn.session->control);

  if (conn.seq_busy) {
    // One frame in flight per session; park the rest, bounded like the
    // worker queue.
    if (conn.seq_pending.size() >= options_.admission.queue_capacity) {
      reject(conn, id, tenant, ServeError::kOverloaded,
             options_.admission.retry_after_ms);
      return;
    }
    conn.seq_pending.push_back(std::move(job));
    return;
  }
  if (!pool_->submit(std::move(job))) {
    // The pool cannot take the frame: this frame is lost, so the pair
    // chain is broken — reject it and abort the session rather than
    // silently skipping a frame.
    reject(conn, id, tenant, ServeError::kOverloaded,
           options_.admission.retry_after_ms);
    abort_session(conn, ServeError::kOverloaded, "session aborted: overload");
    return;
  }
  ++submitted_;
  conn.seq_busy = true;
}

void Server::seq_close(Connection& conn, std::uint64_t id) {
  const std::string tenant =
      conn.session != nullptr ? conn.session->config.tenant : "default";
  count_request(conn, id, tenant, /*drain_gate=*/false);

  if (conn.session == nullptr) {
    seq_error(conn, id, tenant, "no open session");  // covers double-close
    return;
  }
  if (conn.seq_closing) {
    seq_error(conn, id, tenant, "session already closing");
    return;
  }
  conn.seq_closing = true;
  conn.seq_close_id = id;
  if (!conn.seq_busy) finish_close(conn);
}

void Server::abort_session(Connection& conn, ServeError code,
                           const std::string& message) {
  if (conn.session == nullptr) return;
  // Cancelling the control token unwinds a still-running in-flight
  // frame at its next checkpoint; its completion is accounted normally.
  conn.session->control->cancel();
  for (const Job& pending : conn.seq_pending)
    answer(conn, pending.request.id, pending.request.tenant,
           Outcome::kRejected, code, message,
           options_.admission.retry_after_ms);
  conn.seq_pending.clear();
  if (conn.seq_closing) {
    answer(conn, conn.seq_close_id, conn.session->config.tenant,
           Outcome::kRejected, code, message);
    conn.seq_closing = false;
  }
  conn.session.reset();
  --open_sessions_;
}

void Server::finish_close(Connection& conn) {
  // Not busy, so no worker touches the stream: reading it is safe.
  answer(conn, conn.seq_close_id, conn.session->config.tenant, Outcome::kOk,
         ServeError::kOk,
         "session closed frames=" +
             std::to_string(conn.session->stream.frames_pushed()));
  conn.seq_closing = false;
  conn.session.reset();
  --open_sessions_;
}

void Server::process_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& comp : batch) {
    ++completed_;
    account(comp.response, comp.tenant);
    metrics_.histogram("serve.request_seconds", kLatencyBounds)
        .observe(comp.response.wall_ms / 1000.0);
    auto it = conns_.find(comp.conn_id);
    // A vanished connection drops the bytes, never the accounting.
    if (it != conns_.end())
      it->second->outbox += format_response(comp.response);

    if (comp.kind != JobKind::kSeqFrame || it == conns_.end()) continue;
    // Session pump: the in-flight slot just freed.  A failed frame
    // (deadline / error) aborts the whole session — the pair chain is
    // broken — otherwise the next parked frame goes out, or a deferred
    // close resolves.  The connection closing mid-stream was already
    // handled in close_connection (the completion found no conn).
    Connection& conn = *it->second;
    conn.seq_busy = false;
    if (conn.session == nullptr) continue;
    const bool failed = comp.response.outcome == Outcome::kDeadline ||
                        comp.response.outcome == Outcome::kError;
    if (failed) {
      abort_session(conn, ServeError::kShutdown, "session aborted");
    } else if (draining_) {
      abort_session(conn, ServeError::kShutdown, "shutting down");
    } else if (!conn.seq_pending.empty()) {
      Job next = std::move(conn.seq_pending.front());
      conn.seq_pending.pop_front();
      const std::uint64_t next_id = next.request.id;
      const std::string next_tenant = next.request.tenant;
      if (pool_->submit(std::move(next))) {
        ++submitted_;
        conn.seq_busy = true;
      } else {
        reject(conn, next_id, next_tenant, ServeError::kOverloaded,
               options_.admission.retry_after_ms);
        abort_session(conn, ServeError::kOverloaded,
                      "session aborted: overload");
      }
    } else if (conn.seq_closing) {
      finish_close(conn);
    }
  }
  metrics_.gauge("serve.queue_depth")
      .set(static_cast<double>(pool_->queue_depth()));
  metrics_.gauge("serve.in_flight")
      .set(static_cast<double>(submitted_ - completed_));
}

void Server::close_connection(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // A dying connection takes its session with it: pending frames and a
  // deferred close are accounted as rejected (bytes go nowhere — the
  // accounting is the contract), the in-flight frame is cancelled via
  // the control token and completes later against a vanished conn_id.
  abort_session(*it->second, ServeError::kShutdown, "connection closed");
  conns_.erase(it);
}

double Server::outcome_count(Outcome outcome) {
  return metrics_
      .counter(std::string("serve.outcome.") + outcome_name(outcome))
      .value();
}

std::string Server::stats_line() {
  const auto snap = metrics_.snapshot();
  const auto value = [&](const std::string& name) {
    const obs::MetricSnapshot* s = obs::find_metric(snap, name);
    return s != nullptr ? s->value : 0.0;
  };
  const obs::MetricSnapshot* latency =
      obs::find_metric(snap, "serve.request_seconds");
  const double p50 =
      latency != nullptr ? obs::histogram_quantile(*latency, 0.5) : 0.0;
  const double p99 =
      latency != nullptr ? obs::histogram_quantile(*latency, 0.99) : 0.0;
  const core::PipelineStats agg = pipelines_.aggregate_stats();

  std::ostringstream out;
  out << "STATS requests=" << static_cast<long>(value("serve.requests_total"))
      << " ok=" << static_cast<long>(value("serve.outcome.ok"))
      << " degraded=" << static_cast<long>(value("serve.outcome.degraded"))
      << " rejected=" << static_cast<long>(value("serve.outcome.rejected"))
      << " deadline=" << static_cast<long>(value("serve.outcome.deadline"))
      << " error=" << static_cast<long>(value("serve.outcome.error"))
      << " queue_depth=" << pool_->queue_depth()
      << " in_flight=" << (submitted_ - completed_)
      << " dedup_hits=" << frames_.hits()
      << " dedup_misses=" << frames_.misses()
      << " pipelines=" << pipelines_.pipeline_count()
      << " geometry_hits=" << agg.cache_hits
      << " surface_fits=" << agg.surface_fits
      << " open_sessions=" << open_sessions_
      << " batch_sweeps=" << static_cast<long>(value("serve.batch.sweeps"))
      << " batches=" << static_cast<long>(value("serve.batch.batches"))
      << " batched=" << static_cast<long>(value("serve.batch.batched_requests"))
      << " coalesced=" << static_cast<long>(value("serve.batch.coalesce_hits"))
      << " p50_ms=" << p50 * 1000.0
      << " p99_ms=" << p99 * 1000.0 << "\n";
  return out.str();
}

void Server::flush_metrics() {
  metrics_.gauge("serve.frame_dedup_hits")
      .set(static_cast<double>(frames_.hits()));
  metrics_.gauge("serve.frame_dedup_misses")
      .set(static_cast<double>(frames_.misses()));
  metrics_.gauge("serve.queue_depth").set(0.0);
  metrics_.gauge("serve.in_flight")
      .set(static_cast<double>(submitted_ - completed_));
  // Aggregate pipeline counters ride along under the standard
  // "pipeline.*" names (core/obs_bridge.hpp scheme), and the shared
  // tile scheduler's counters under "sched.*" — max_busy is the
  // concurrency-budget witness the serve tests assert on.
  core::publish_metrics(pipelines_.aggregate_stats(), metrics_);
  core::publish_metrics(sched::ThreadPool::shared().stats(), metrics_);
  if (!options_.metrics_path.empty())
    metrics_.write_csv(options_.metrics_path);
}

}  // namespace sma::serve
