#include "core/pipeline.hpp"

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/cancel.hpp"
#include "core/match_precompute.hpp"
#include "core/obs_bridge.hpp"
#include "core/postprocess.hpp"
#include "core/trajectory.hpp"
#include "obs/trace.hpp"

namespace sma::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void check_cancel(const CancelToken* cancel, const char* stage) {
  if (cancel != nullptr) cancel->check(stage);
}

}  // namespace

// ---------------------------------------------------------------------------
// GeometryCache — LRU of per-frame GeometricFields, keyed on content.
//
// A pipeline's surface-fit radius is fixed at construction, so a frame's
// geometry depends on its pixels alone, and this cache is the one place
// that decides whether two frames are the same.  Each entry keeps a copy
// of the pixels it fitted (4 B/px), and a lookup hits only when its frame
// is bitwise equal to that copy.  The key — dimensions and an FNV-1a over
// every pixel's bits — only narrows the search: FNV-1a is not collision
// resistant (two 3-pixel blocks that leave it in the same state are
// cheap to find), so a matching key alone never counts.  Equal content
// in any buffer shares one fit (a tenant re-posting another's frame, a
// sequence's repeated frames), and different content never does, also
// when it is rewritten in place at a cached frame's address.  The hash
// costs about 1.5 ns per pixel on a 4-core AVX-512 Xeon host (0.4 ms for
// a 512² frame, about 1% of its fit); a hit adds one memcmp.
// ---------------------------------------------------------------------------

class GeometryCache {
 public:
  struct Key {
    int width, height;
    std::uint64_t fingerprint;

    bool operator==(const Key&) const = default;
  };

  static Key make_key(const imaging::ImageF& img) {
    // FNV-1a over the pixels' bit patterns.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const float* p = img.data();
    for (std::size_t i = 0; i < img.size(); ++i)
      h = (h ^ std::bit_cast<std::uint32_t>(p[i])) * 0x100000001b3ull;
    return {img.width(), img.height(), h};
  }

  explicit GeometryCache(std::size_t capacity) : capacity_(capacity) {}

  struct Entry {
    Key key;
    imaging::ImageF pixels;  ///< the fitted frame, compared on every hit
    std::shared_ptr<const surface::GeometricField> geom;
  };

  /// The entry fitted from exactly `img`'s pixels, or null; promotes hits
  /// to the front.
  Entry* find(const Key& key, const imaging::ImageF& img) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->key == key &&
          (img.empty() || std::memcmp(it->pixels.data(), img.data(),
                                      img.size() * sizeof(float)) == 0)) {
        entries_.splice(entries_.begin(), entries_, it);
        return &entries_.front();
      }
    return nullptr;
  }

  void insert(Entry entry, PipelineStats& stats) {
    entries_.push_front(std::move(entry));
    while (entries_.size() > capacity_) {
      entries_.pop_back();
      ++stats.cache_evictions;
    }
  }

  void clear() { entries_.clear(); }

 private:
  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
};

SmaPipeline::SmaPipeline(SmaConfig config, PipelineOptions options)
    : config_(config), options_(std::move(options)) {
  config_.validate();
  if (options_.geometry_cache_capacity < 2)
    throw std::invalid_argument(
        "SmaPipeline: geometry_cache_capacity must hold at least one pair");
  backend_ = &BackendRegistry::instance().get(options_.backend);
  cache_ = std::make_unique<GeometryCache>(options_.geometry_cache_capacity);
  // Per-pair latency distribution, registered up front so exports carry
  // explicit zero buckets before the first pair.
  metrics_.histogram("pipeline.pair_seconds",
                     {0.001, 0.01, 0.1, 1.0, 10.0, 100.0});
  publish_metrics(stats_, metrics_);
}

obs::MetricsRegistry& SmaPipeline::metrics() {
  PipelineStats snapshot;
  {
    std::scoped_lock lock(state_mutex_);
    snapshot = stats_;
  }
  publish_metrics(snapshot, metrics_);
  return metrics_;
}

obs::RunReport SmaPipeline::run_report() {
  obs::RunReport report = obs::build_run_report("sma_pipeline", metrics());
  report.config = config_.describe();
  report.backend = backend_->name();
  return report;
}

SmaPipeline::~SmaPipeline() = default;

void SmaPipeline::clear_cache() {
  std::scoped_lock lock(state_mutex_);
  cache_->clear();
}

SmaPipeline::GeomLookup SmaPipeline::frame_geometry(
    const imaging::ImageF& img) {
  const GeometryCache::Key key = GeometryCache::make_key(img);
  {
    std::scoped_lock lock(state_mutex_);
    if (GeometryCache::Entry* hit = cache_->find(key, img)) {
      ++stats_.cache_hits;
      return {hit->geom, 0.0, 0.0};
    }
    // Count the miss (and the fit about to happen) before releasing the
    // lock: the invariant is "every fit performed is a counted miss",
    // even if a concurrent caller races us to the insert below.
    ++stats_.cache_misses;
    ++stats_.surface_fits;
  }

  surface::GeometryOptions gopts;
  gopts.patch_radius = config_.surface_fit_radius;
  gopts.parallel = backend_->capabilities().host_parallel;

  GeomLookup out;
  auto t0 = Clock::now();
  {
    obs::TraceSpan span("pipeline", "surface_fit");
    const surface::DerivativeField d = surface::fit_derivatives(img, gopts);
    out.fit_seconds = seconds_since(t0);
    span.finish();
    t0 = Clock::now();
    obs::TraceSpan derive_span("pipeline", "geometric_vars");
    out.geom = std::make_shared<surface::GeometricField>(
        surface::derive_geometry(d, gopts.parallel));
    out.derive_seconds = seconds_since(t0);
  }

  GeometryCache::Entry entry{key, img, out.geom};  // copied outside the lock
  std::scoped_lock lock(state_mutex_);
  stats_.surface_fit_seconds += out.fit_seconds;
  stats_.geometric_vars_seconds += out.derive_seconds;
  // A concurrent caller may have inserted the same frame while we were
  // fitting; keep the incumbent and drop our duplicate.
  if (GeometryCache::Entry* raced = cache_->find(key, img)) {
    out.geom = raced->geom;
    return out;
  }
  cache_->insert(std::move(entry), stats_);
  return out;
}

std::shared_ptr<const surface::GeometricField> SmaPipeline::peek_geometry(
    const imaging::ImageF& img) {
  const GeometryCache::Key key = GeometryCache::make_key(img);
  std::scoped_lock lock(state_mutex_);
  GeometryCache::Entry* entry = cache_->find(key, img);
  return entry != nullptr ? entry->geom : nullptr;
}

void SmaPipeline::reseed_geometry(
    const imaging::ImageF& img,
    const std::shared_ptr<const surface::GeometricField>& geom) {
  if (geom == nullptr) return;
  const GeometryCache::Key key = GeometryCache::make_key(img);
  std::scoped_lock lock(state_mutex_);
  if (cache_->find(key, img) != nullptr) return;  // still resident — no-op
  cache_->insert({key, img, geom}, stats_);
}

TrackResult SmaPipeline::track_pair(const TrackerInput& input) {
  return track_pair(input, nullptr);
}

TrackResult SmaPipeline::track_pair(const TrackerInput& input,
                                    const CancelToken* cancel) {
  obs::TraceSpan pair_span("pipeline", "track_pair");
  validate_tracker_input(input, "SmaPipeline");
  check_cancel(cancel, "ingest");

  // --- Stages: surface fit + geometric variables (through the cache).
  const auto t_start = Clock::now();
  const bool semifluid = config_.model == MotionModel::kSemiFluid &&
                         config_.semifluid_search_radius > 0;

  check_cancel(cancel, "surface_fit");
  const GeomLookup l0 = frame_geometry(*input.surface_before);
  check_cancel(cancel, "surface_fit");
  const GeomLookup l1 = frame_geometry(*input.surface_after);
  const auto& g0 = l0.geom;
  const auto& g1 = l1.geom;
  double fit_seconds = l0.fit_seconds + l1.fit_seconds;
  double derive_seconds = l0.derive_seconds + l1.derive_seconds;
  std::shared_ptr<const surface::GeometricField> gi0, gi1;
  if (semifluid) {
    check_cancel(cancel, "geometric_vars");
    // Monocular aliasing short-circuits without a cache lookup, so the
    // hit/miss counters describe distinct rasters only.
    if (input.intensity_before == input.surface_before) {
      gi0 = g0;
    } else {
      const GeomLookup li = frame_geometry(*input.intensity_before);
      gi0 = li.geom;
      fit_seconds += li.fit_seconds;
      derive_seconds += li.derive_seconds;
    }
    if (input.intensity_after == input.surface_after) {
      gi1 = g1;
    } else {
      const GeomLookup li = frame_geometry(*input.intensity_after);
      gi1 = li.geom;
      fit_seconds += li.fit_seconds;
      derive_seconds += li.derive_seconds;
    }
  }

  MatchInput mi;
  mi.before = g0.get();
  mi.after = g1.get();
  mi.disc_before = semifluid ? &gi0->disc : nullptr;
  mi.disc_after = semifluid ? &gi1->disc : nullptr;
  mi.mask_before = input.validity_before;
  mi.mask_after = input.validity_after;
  // Raw z-surface frames for the pruned mode's coarse seeding pyramid,
  // plus the optional externally computed seed slice (shard runner).
  mi.raw_before = input.surface_before;
  mi.raw_after = input.surface_after;
  mi.prune_seeds = input.prune_seeds;

  // --- Stage: match precompute (built for this pair, dropped with it).
  check_cancel(cancel, "match_precompute");
  std::optional<MatchPrecompute> pre;
  double pre_seconds = 0.0;
  if (resolve_precompute(config_, mi) == PrecomputeDecision::kFast) {
    const auto t0 = Clock::now();
    obs::TraceSpan span("pipeline", "match_precompute");
    mi.precompute = &pre.emplace(*g0, backend_->capabilities().host_parallel);
    span.finish();
    pre_seconds = seconds_since(t0);
    std::scoped_lock lock(state_mutex_);
    ++stats_.precompute_builds;
    stats_.match_precompute_seconds += pre_seconds;
  }

  // --- Stage: hypothesis matching (delegated to the backend).
  check_cancel(cancel, "matching");
  obs::TraceSpan match_span("pipeline", "matching");
  TrackResult result = backend_->match(mi, config_, options_.track);
  match_span.finish();
  result.timings.match_precompute += pre_seconds;
  result.timings.surface_fit = fit_seconds;
  result.timings.geometric_vars = derive_seconds;
  {
    std::scoped_lock lock(state_mutex_);
    stats_.matching_seconds += result.timings.semifluid_mapping +
                               result.timings.hypothesis_matching +
                               result.timings.subpixel_refine;
  }

  // --- Stage: postprocess.
  check_cancel(cancel, "postprocess");
  if (options_.robust) {
    const auto t0 = Clock::now();
    obs::TraceSpan span("pipeline", "postprocess");
    result.flow = robust_postprocess(result.flow);
    const double seconds = seconds_since(t0);
    std::scoped_lock lock(state_mutex_);
    stats_.postprocess_seconds += seconds;
  }

  result.timings.total = seconds_since(t_start);
  {
    std::scoped_lock lock(state_mutex_);
    ++stats_.pairs_tracked;
  }
  metrics_.histogram("pipeline.pair_seconds", {})
      .observe(result.timings.total);
  return result;
}

TrackResult SmaPipeline::track_pair(const imaging::ImageF& before,
                                    const imaging::ImageF& after) {
  TrackerInput in;
  in.intensity_before = in.surface_before = &before;
  in.intensity_after = in.surface_after = &after;
  return track_pair(in);
}

SequenceResult SmaPipeline::track_sequence(
    const std::vector<imaging::ImageF>& frames,
    const std::vector<std::pair<double, double>>& seeds,
    const CancelToken* cancel) {
  if (frames.size() < 2)
    throw std::invalid_argument(
        "SmaPipeline::track_sequence: need at least two frames");
  check_cancel(cancel, "ingest");

  SequenceResult result;
  result.flows.reserve(frames.size() - 1);
  result.timings.reserve(frames.size() - 1);

  // The batch path is the streaming path: push every frame through a
  // SequenceStream (non-owning aliases — the frames outlive the loop)
  // so the two stay bit-identical by construction.
  SequenceStream stream(*this, seeds);
  for (const imaging::ImageF& f : frames) {
    std::shared_ptr<const imaging::ImageF> frame(std::shared_ptr<void>(), &f);
    std::optional<TrackResult> r =
        stream.push(std::move(frame), nullptr, cancel);
    if (r.has_value()) {
      result.timings.push_back(r->timings);
      result.flows.push_back(std::move(r->flow));
    }
  }
  result.trajectories = stream.trajectories();
  return result;
}

// ---------------------------------------------------------------------------
// SequenceStream
// ---------------------------------------------------------------------------

SequenceStream::SequenceStream(
    SmaPipeline& pipeline, const std::vector<std::pair<double, double>>& seeds)
    : pipeline_(&pipeline), tracker_(seeds) {}

std::optional<TrackResult> SequenceStream::push(
    std::shared_ptr<const imaging::ImageF> frame,
    std::shared_ptr<const imaging::ImageU8> validity,
    const CancelToken* cancel) {
  if (frame == nullptr)
    throw std::invalid_argument("SequenceStream: null frame");
  if (prev_ != nullptr && (frame->width() != prev_->width() ||
                           frame->height() != prev_->height()))
    throw std::invalid_argument(
        "SequenceStream: frame dimensions changed mid-stream");
  check_cancel(cancel, "sequence_pair");
  ++frames_;
  if (prev_ == nullptr) {
    prev_ = std::move(frame);
    prev_mask_ = std::move(validity);
    return std::nullopt;
  }

  // Restore the previous frame's geometry if concurrent tenants evicted
  // it since the last push — this pin is what keeps a streamed T-frame
  // sequence at exactly T surface fits no matter what else shares the
  // pipeline.  A no-op (and counter-neutral) when the entry is resident.
  pipeline_->reseed_geometry(*prev_, prev_geom_);

  TrackerInput in;
  in.intensity_before = in.surface_before = prev_.get();
  in.intensity_after = in.surface_after = frame.get();
  in.validity_before = prev_mask_.get();
  in.validity_after = validity.get();
  TrackResult r = pipeline_->track_pair(in, cancel);

  // --- Stage: products (trajectory chaining).
  const auto t0 = Clock::now();
  obs::TraceSpan span("pipeline", "products");
  tracker_.advance(r.flow);
  const double seconds = seconds_since(t0);
  {
    std::scoped_lock lock(pipeline_->state_mutex_);
    pipeline_->stats_.products_seconds += seconds;
  }

  prev_geom_ = pipeline_->peek_geometry(*frame);
  prev_ = std::move(frame);
  prev_mask_ = std::move(validity);
  return r;
}

}  // namespace sma::core
