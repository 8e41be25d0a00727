#include "serve/worker_pool.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "imaging/flow.hpp"
#include "imaging/repair.hpp"
#include "serve/error.hpp"

namespace sma::serve {

core::SmaConfig PipelineManager::config_from(const TrackRequest& request) {
  core::SmaConfig config;
  config.model = request.model == "cont" ? core::MotionModel::kContinuous
                                         : core::MotionModel::kSemiFluid;
  config.surface_fit_radius = request.fit_radius;
  config.z_search_radius = request.search_radius;
  config.z_template_radius = request.template_radius;
  config.semifluid_search_radius = request.nss;
  config.semifluid_template_radius = request.nst;
  if (request.search_mode == "pruned")
    config.search_mode = core::SearchMode::kPruned;
  config.validate();
  return config;
}

std::string PipelineManager::pipeline_key(const TrackRequest& request) const {
  const std::string backend =
      request.backend.empty() ? default_backend_ : request.backend;
  return request.config_signature() + ";backend=" + backend;
}

core::SmaPipeline& PipelineManager::pipeline_for(const TrackRequest& request) {
  const std::string backend =
      request.backend.empty() ? default_backend_ : request.backend;
  const std::string key = pipeline_key(request);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pipelines_.find(key);
  if (it != pipelines_.end()) return *it->second;

  core::PipelineOptions options;
  options.backend = backend;
  options.track.subpixel = request.subpixel;
  options.robust = request.robust;
  options.geometry_cache_capacity = geometry_cache_capacity_;
  auto pipeline = std::make_unique<core::SmaPipeline>(config_from(request),
                                                      options);
  core::SmaPipeline& ref = *pipeline;
  pipelines_.emplace(key, std::move(pipeline));
  return ref;
}

std::size_t PipelineManager::pipeline_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pipelines_.size();
}

core::PipelineStats PipelineManager::aggregate_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  core::PipelineStats total;
  for (const auto& [key, pipeline] : pipelines_) {
    const core::PipelineStats& s = pipeline->stats();
    total.pairs_tracked += s.pairs_tracked;
    total.surface_fits += s.surface_fits;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_evictions += s.cache_evictions;
    total.precompute_builds += s.precompute_builds;
    total.precompute_reuses += s.precompute_reuses;
    total.surface_fit_seconds += s.surface_fit_seconds;
    total.geometric_vars_seconds += s.geometric_vars_seconds;
    total.match_precompute_seconds += s.match_precompute_seconds;
    total.matching_seconds += s.matching_seconds;
    total.postprocess_seconds += s.postprocess_seconds;
    total.products_seconds += s.products_seconds;
  }
  return total;
}

WorkerPool::WorkerPool(std::size_t workers, std::size_t queue_capacity,
                       PipelineManager& pipelines, FrameStore& frames,
                       const ChaosEngine& chaos, Completion on_complete,
                       BatchOptions batching, obs::MetricsRegistry* metrics)
    : pipelines_(pipelines), frames_(frames), chaos_(chaos),
      on_complete_(std::move(on_complete)), queue_(queue_capacity),
      batching_(batching) {
  if (batching_.max_batch < 1) batching_.max_batch = 1;
  if (metrics != nullptr) {
    batch_size_hist_ =
        &metrics->histogram("serve.batch.size", {1.0, 2.0, 4.0, 8.0, 16.0});
    batch_sweeps_ = &metrics->counter("serve.batch.sweeps");
    batch_batches_ = &metrics->counter("serve.batch.batches");
    batch_members_ = &metrics->counter("serve.batch.batched_requests");
    batch_coalesce_ = &metrics->counter("serve.batch.coalesce_hits");
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_main(); });
}

WorkerPool::~WorkerPool() { drain(); }

bool WorkerPool::submit(Job job) { return queue_.try_push(std::move(job)); }

void WorkerPool::drain() {
  std::call_once(drained_, [this] {
    queue_.stop();
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  });
}

void WorkerPool::worker_main() {
  while (auto job = queue_.pop()) {
    if (batching_.enabled && batch_eligible(*job)) {
      run_batch(std::move(*job));
      continue;
    }
    TrackResponse response = process(*job);
    if (on_complete_) on_complete_(*job, std::move(response));
  }
}

bool WorkerPool::batch_eligible(const Job& job) const {
  return job.kind == JobKind::kTrack && !chaos_.stall(job.request.id) &&
         !chaos_.corrupt_frames(job.request.id);
}

void WorkerPool::run_batch(Job leader) {
  const std::string key = pipelines_.pipeline_key(leader.request);

  // Sweep queued TRACKs that would run on the same pipeline with the
  // same interned before frame — the work the leader's surface fit
  // already covers.  Byte-equality of `before` implies FrameStore
  // interning maps them to the same canonical frame.
  std::vector<Job> members;
  if (batching_.max_batch > 1) {
    queue_.try_pop_matching(
        [&](const Job& j) {
          return j.kind == JobKind::kTrack && batch_eligible(j) &&
                 j.request.width == leader.request.width &&
                 j.request.height == leader.request.height &&
                 j.request.before == leader.request.before &&
                 pipelines_.pipeline_key(j.request) == key;
        },
        batching_.max_batch - 1, members);
  }

  if (batch_sweeps_ != nullptr) batch_sweeps_->inc();
  // Every eligible pop is one observation, so the size histogram also
  // records the unbatched (size 1) baseline.
  if (batch_size_hist_ != nullptr)
    batch_size_hist_->observe(1.0 + static_cast<double>(members.size()));
  if (!members.empty()) {
    if (batch_batches_ != nullptr) batch_batches_->inc();
    if (batch_members_ != nullptr)
      batch_members_->inc(static_cast<double>(members.size()));
  }

  TrackResponse lead_resp = process(leader);

  // Members whose after frame also matches coalesce onto the leader's
  // flow: the pipeline is deterministic, so equal (config, before,
  // after) means byte-equal payloads.  A member with an expired
  // deadline still fails as `deadline` — coalescing must not resurrect
  // a request admission would have killed.
  std::vector<std::pair<Job*, TrackResponse>> member_resps;
  member_resps.reserve(members.size());
  for (Job& m : members) {
    const bool coalesce = lead_resp.outcome == Outcome::kOk &&
                          m.request.after == leader.request.after &&
                          (m.cancel == nullptr || !m.cancel->expired());
    if (coalesce) {
      TrackResponse resp = lead_resp;
      resp.id = m.request.id;
      resp.message = "coalesced";
      if (batch_coalesce_ != nullptr) batch_coalesce_->inc();
      member_resps.emplace_back(&m, std::move(resp));
    } else {
      member_resps.emplace_back(&m, process(m));
    }
  }

  // Leader first: its completion carries the batch's fresh result, and
  // ordered delivery keeps per-connection response order stable when a
  // member shares the leader's connection.
  if (on_complete_) {
    on_complete_(leader, std::move(lead_resp));
    for (auto& [job, resp] : member_resps)
      on_complete_(*job, std::move(resp));
  }
}

WorkerPool::BatchStats WorkerPool::batch_stats() const {
  BatchStats stats;
  if (batch_sweeps_ != nullptr) stats.sweeps = batch_sweeps_->value();
  if (batch_batches_ != nullptr) stats.batches = batch_batches_->value();
  if (batch_members_ != nullptr)
    stats.batched_requests = batch_members_->value();
  if (batch_coalesce_ != nullptr)
    stats.coalesce_hits = batch_coalesce_->value();
  return stats;
}

TrackResponse WorkerPool::process(const Job& job) {
  const auto start = std::chrono::steady_clock::now();
  const TrackRequest& req = job.request;
  const core::CancelToken* cancel = job.cancel.get();

  TrackResponse resp;
  resp.id = req.id;
  resp.total = static_cast<long>(req.width) * req.height;

  auto finish = [&](Outcome outcome, ServeError code, std::string message) {
    resp.outcome = outcome;
    resp.code = code;
    resp.message = std::move(message);
    resp.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return resp;
  };

  try {
    // A job that sat in the queue past its deadline fails fast, before
    // any pipeline work.
    if (cancel != nullptr) cancel->check("admission");

    if (chaos_.stall(req.id)) {
      // Cooperative stall: sleep in slices so an armed deadline turns a
      // chaos stall into a `deadline` outcome, never a hang.
      const auto until =
          start + std::chrono::milliseconds(chaos_.options().stall_ms);
      while (std::chrono::steady_clock::now() < until) {
        if (cancel != nullptr && cancel->expired()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (cancel != nullptr) cancel->check("chaos_stall");
    }

    // A TRACK resolves its pipeline (or config error) before it touches
    // the frame store; a SEQ-FRAME's pipeline is its session's.
    const bool seq = job.kind == JobKind::kSeqFrame;
    core::SmaPipeline* pipeline = seq ? nullptr : &pipelines_.pipeline_for(req);
    core::FaultLog log;
    const JobFrame before = load_frame(req, req.before, 0, log);
    const JobFrame after =
        seq ? JobFrame{} : load_frame(req, req.after, 1, log);
    resp.faults = static_cast<long>(log.size());
    const bool repaired = !log.empty() || before.repaired || after.repaired;

    // The flow step, the one part that differs by job kind.
    std::optional<imaging::FlowField> flow;
    bool degraded = repaired;
    if (seq) {
      // A repaired frame taints the rest of the stream — it becomes the
      // next pair's before frame — so the session's flag is sticky.
      SeqSession& session = *job.session;
      session.degraded = session.degraded || repaired;
      degraded = session.degraded;
      auto r = session.stream.push(before.image, before.validity, cancel);
      if (r) flow = std::move(r->flow);
    } else {
      core::TrackerInput input;
      input.intensity_before = input.surface_before = before.image.get();
      input.intensity_after = input.surface_after = after.image.get();
      input.validity_before = before.validity.get();
      input.validity_after = after.validity.get();
      flow = pipeline->track_pair(input, cancel).flow;
    }

    const Outcome outcome = degraded ? Outcome::kDegraded : Outcome::kOk;
    // First frame of a stream: buffered, no pair to track yet.
    if (!flow) return finish(outcome, ServeError::kOk, "frame buffered");
    resp.valid = static_cast<long>(flow->count_valid());
    std::ostringstream payload;
    write_flow_text(*flow, payload);
    resp.payload = payload.str();
    return finish(outcome, ServeError::kOk, degraded ? "repair engaged" : "");
  } catch (const core::CancelledError& e) {
    return finish(Outcome::kDeadline, ServeError::kDeadline, e.what());
  } catch (const std::exception& e) {
    return finish(Outcome::kError, classify_exception(e), e.what());
  } catch (...) {
    return finish(Outcome::kError, ServeError::kInternal,
                  "unknown exception");
  }
}

WorkerPool::JobFrame WorkerPool::load_frame(
    const TrackRequest& req, const std::vector<std::uint8_t>& bytes,
    int index, core::FaultLog& log) const {
  JobFrame frame{frames_.intern(req.width, req.height, bytes)};
  if (!chaos_.corrupt_frames(req.id)) return frame;
  // Corrupt a COPY — the interned frame must stay pristine for other
  // requests sharing it — then repair it like telemetry ingest would.
  imaging::ImageF dirty = *frame.image;
  core::FaultInjector(chaos_.fault_spec(req.id))
      .corrupt_frame(dirty, index, &log);
  imaging::RepairReport rep = imaging::repair_frame(dirty);
  frame.repaired = !rep.clean();
  frame.image = std::make_shared<imaging::ImageF>(std::move(rep.image));
  frame.validity = std::make_shared<imaging::ImageU8>(std::move(rep.validity));
  return frame;
}

}  // namespace sma::serve
