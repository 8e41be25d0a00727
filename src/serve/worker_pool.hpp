// worker_pool.hpp — the compute side of sma_serve: shared pipelines
// keyed by config signature, and the worker threads that run admitted
// requests to one of the five terminal outcomes.
//
// PipelineManager is the multi-tenant heart of the daemon: every
// request whose config_signature() matches shares ONE SmaPipeline — and
// therefore one geometry cache — no matter which tenant or connection
// it arrived on.  The cache keys on frame content, so two tenants
// posting the same GOES frame under the same config hit the same cached
// surface fit although each request decodes its own buffer.
// SmaPipeline::track_pair is thread-safe for exactly this use (see
// pipeline.hpp's state_mutex_ contract).
//
// WorkerPool::process() is the one job lifecycle for both job kinds and
// the one function that enforces the outcome taxonomy: deadline check,
// chaos stall, frame decode (with chaos corrupt-and-repair), then the flow
// step (a TRACK tracks its pair, a SEQ-FRAME pushes its frame through
// its session stream), payload write and catch ladder.  Whatever happens
// inside, the job leaves as exactly one TrackResponse whose outcome is
// ok / degraded / deadline / error (rejections never reach a worker; the
// server bounces them at admission).
//
// Two extensions ride on that contract:
//
//   * SEQUENCE SESSIONS (SeqSession + JobKind::kSeqFrame): a tenant's
//     frame stream runs through one pinned core::SequenceStream so each
//     frame is fitted once and trajectories chain across pairs.  The
//     server serializes frames per session (at most one in flight), so
//     the stream itself needs no locking.
//   * CROSS-REQUEST BATCHING: when a worker pops an eligible TRACK it
//     sweeps queued TRACKs sharing the same pipeline key and before
//     frame out of the queue and runs them as one batch; members whose
//     after frame also matches coalesce onto the leader's result (the
//     response is byte-identical to processing them individually — the
//     pipeline is deterministic, so equal inputs give equal flows).
//     Chaos-targeted jobs (stall / frame corruption) are never batched,
//     keeping fault injection per-request deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/chaos.hpp"
#include "serve/protocol.hpp"

namespace sma::serve {

/// One SmaPipeline per distinct config signature, created on first use.
/// Thread-safe; pipeline references stay valid for the manager's
/// lifetime (pipelines are never evicted — config cardinality is tiny
/// in practice, one or two presets per tenant fleet).
class PipelineManager {
 public:
  explicit PipelineManager(std::string default_backend = "sequential",
                           std::size_t geometry_cache_capacity = 16)
      : default_backend_(std::move(default_backend)),
        geometry_cache_capacity_(geometry_cache_capacity) {}

  /// The shared pipeline for this request's config.  Throws
  /// std::invalid_argument on an invalid config or unknown backend
  /// (mapped to a config-error outcome by the caller).
  core::SmaPipeline& pipeline_for(const TrackRequest& request);

  /// The manager's map key for this request: config_signature() plus
  /// the RESOLVED backend.  Requests with equal keys share a pipeline —
  /// the batching layer's config-compatibility test.
  std::string pipeline_key(const TrackRequest& request) const;

  /// Builds the SmaConfig a request describes (exposed so sma_cli parity
  /// checks and tests construct the exact served config).
  static core::SmaConfig config_from(const TrackRequest& request);

  std::size_t pipeline_count() const;

  /// Sum of PipelineStats over every managed pipeline — the aggregate
  /// the server publishes as pipeline.* metrics.
  core::PipelineStats aggregate_stats() const;

  const std::string& default_backend() const { return default_backend_; }

 private:
  const std::string default_backend_;
  const std::size_t geometry_cache_capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<core::SmaPipeline>> pipelines_;
};

/// Server-side state of one open sequence session: the fixed config
/// (dims, tenant, deadline, tracking parameters from SEQ-OPEN), the
/// pinned pipeline and the incremental stream.  The server serializes
/// frames per session — at most one in flight — so the stream needs no
/// lock; `control` is the session-wide cancel token each frame job's
/// own token chains to (CancelToken::set_parent), so aborting the
/// session unwinds the in-flight frame cooperatively without touching
/// per-frame deadlines.
struct SeqSession {
  TrackRequest config;
  core::SmaPipeline* pipeline = nullptr;
  core::SequenceStream stream;
  std::shared_ptr<core::CancelToken> control;
  /// Sticky: once chaos corruption forced a repair, every later pair of
  /// the stream is reported degraded (its before frame was repaired, so
  /// the trajectory chain is tainted from that point on).
  bool degraded = false;

  SeqSession(TrackRequest cfg, core::SmaPipeline& p)
      : config(std::move(cfg)), pipeline(&p), stream(p),
        control(std::make_shared<core::CancelToken>()) {}
};

enum class JobKind { kTrack, kSeqFrame };

/// One admitted request in flight: the parsed request, the connection
/// to answer on, and the cancellation token armed with its deadline.
struct Job {
  JobKind kind = JobKind::kTrack;
  TrackRequest request;
  std::uint64_t conn_id = 0;
  std::shared_ptr<core::CancelToken> cancel;
  /// The session a kSeqFrame belongs to; null for kTrack.
  std::shared_ptr<SeqSession> session;
};

/// Batched-dispatch knobs (see the file comment).
struct BatchOptions {
  bool enabled = true;
  /// Jobs one sweep runs together, leader included.
  std::size_t max_batch = 8;
};

/// Fixed-size worker pool draining a bounded queue of Jobs.  Completion
/// is delivered through a callback (the server's completion queue +
/// self-pipe); the callback runs on the worker thread and must be
/// cheap and thread-safe.
class WorkerPool {
 public:
  using Completion =
      std::function<void(const Job& job, TrackResponse response)>;

  /// `metrics` (may be null) receives the serve.batch.* instruments:
  /// the per-sweep size histogram and the batches / batched_requests /
  /// coalesce_hits counters.  Metric addresses are stable, so they are
  /// resolved once here and inc'd lock-free from the workers.
  WorkerPool(std::size_t workers, std::size_t queue_capacity,
             PipelineManager& pipelines, const ChaosEngine& chaos,
             Completion on_complete, BatchOptions batching = {},
             obs::MetricsRegistry* metrics = nullptr);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// False when the queue is full or draining — the caller rejects.
  bool submit(Job job);

  /// Graceful drain: stops intake, lets queued + in-flight jobs finish,
  /// joins the workers.  Idempotent.
  void drain();

  std::size_t queue_depth() const { return queue_.size(); }

  /// Runs one job of either kind to a terminal response (public for the
  /// unit tests, which exercise the taxonomy without sockets or
  /// threads).
  TrackResponse process(const Job& job);

  /// Lifetime batching tallies (counter values; zero without a metrics
  /// registry).
  struct BatchStats {
    double sweeps = 0;            ///< eligible leaders popped
    double batches = 0;           ///< sweeps that found >= 2 jobs
    double batched_requests = 0;  ///< member jobs swept behind a leader
    double coalesce_hits = 0;     ///< member responses copied from leader
  };
  BatchStats batch_stats() const;

 private:
  void worker_main();
  /// A job the batching sweep may lead or join: a plain TRACK with no
  /// chaos targeting (stall / corruption stay per-request).
  bool batch_eligible(const Job& job) const;
  void run_batch(Job leader);

  /// A job's frame as its flow step sees it: the decoded raster, or —
  /// when chaos corrupts the request — its repaired version and, when
  /// the repair masked something, its validity mask.
  struct JobFrame {
    std::shared_ptr<const imaging::ImageF> image;
    std::shared_ptr<const imaging::ImageU8> validity;
    bool repaired = false;  ///< the repair changed the corrupted frame
  };
  /// Decodes `bytes`; under chaos corruption, corrupts the decoded frame
  /// as frame `index` of the request's fault spec (events appended to
  /// `log`) and repairs it.
  JobFrame load_frame(const TrackRequest& req,
                      const std::vector<std::uint8_t>& bytes, int index,
                      core::FaultLog& log) const;

  PipelineManager& pipelines_;
  const ChaosEngine& chaos_;
  Completion on_complete_;
  BoundedQueue<Job> queue_;
  BatchOptions batching_;
  std::vector<std::thread> threads_;
  std::once_flag drained_;

  // serve.batch.* instruments (null without a registry).
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* batch_sweeps_ = nullptr;
  obs::Counter* batch_batches_ = nullptr;
  obs::Counter* batch_members_ = nullptr;
  obs::Counter* batch_coalesce_ = nullptr;
};

}  // namespace sma::serve
