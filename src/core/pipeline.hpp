// pipeline.hpp — the staged SMA pipeline with cross-frame geometry caching.
//
// The paper's production runs are SEQUENCES (Frederic T=4, Florida 49
// frames, Hurricane Luis 490 frames).  Tracking a T-frame sequence as
// independent pairs fits every frame's quadratic patches TWICE: frame t
// is the "after" image of pair (t-1, t) and the "before" image of pair
// (t, t+1).  The per-pixel least-squares patch fit is the paper's
// "Surface fit" phase — "over one million separate Gaussian
// eliminations" per image (Sec. 3) — so the duplication is half of that
// phase's work across a long sequence.
//
// SmaPipeline decomposes tracking into explicit stages
//
//   surface fit -> geometric variables -> match precompute
//       -> hypothesis matching -> postprocess -> products
//
// and owns a per-frame GEOMETRY CACHE over the fit stages: the fitted
// GeometricField of each distinct frame is computed once and reused by
// every pair (and every spectral channel, every coupled-stereo iteration
// and every daemon tenant) whose frame has the same pixels, in whatever
// buffer they arrive.  The cache is the one judge of frame identity: it
// keys on the content and counts a hit only when the pixels are bitwise
// equal to the copy it fitted.  It holds geometry only: the 352 B/px match-precompute planes are built for each pair
// and dropped when it returns, since a stream makes each frame the
// BEFORE frame once (DESIGN §11 "Caching").  It is the ONE orchestrator:
// every pair — CLI, daemon, shard tile, pruned seed pass, MasPar
// simulation — runs fit -> geometry -> precompute here, and only the
// matching stage is delegated to a TrackerBackend selected by name, so
// the same pipeline drives the sequential baseline, the thread- and
// lane-parallel vector backend or the MasPar simulation — with
// bit-identical flow fields (Sec. 5.1 contract).
//
// Frames arrive as given: callers that repair telemetry defects
// (sma_cli --inject-faults, chaos requests in sma_serve) do so upstream
// and pass the validity masks in through TrackerInput, attaching one
// only when repair masked something (imaging::RepairReport::masked()).
//
// Cache invariant: for a T-frame monocular sequence the pipeline
// performs exactly T surface fits (one per distinct frame) versus
// 2(T-1) on the pre-pipeline path; every further lookup of a cached
// frame is a hit.  test_backend.cpp asserts the exact hit/miss counts
// and bench_luis_sequence reports the measured fit-work ratio (~0.5 for
// long sequences).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/tracker.hpp"
#include "core/trajectory.hpp"
#include "imaging/image.hpp"
#include "obs/report.hpp"

namespace sma::core {

class CancelToken;  // core/cancel.hpp

struct PipelineOptions {
  /// Registry name of the matching backend ("sequential", "vector",
  /// "maspar-sim", ...).  Parallelism is a backend capability, not a
  /// per-call flag.
  std::string backend = "sequential";
  /// Matching-stage options.
  TrackOptions track{};
  /// Postprocess stage: robust_postprocess every per-pair flow field.
  bool robust = false;
  /// Frames the geometry cache retains (LRU), each as its geometry plus
  /// a 4 B/px copy of its pixels.  Consecutive-pair streaming needs 2;
  /// the default leaves headroom for multispectral and coupled-stereo
  /// reuse patterns.
  std::size_t geometry_cache_capacity = 8;
};

/// Per-pair results of SmaPipeline::track_sequence.
struct SequenceResult {
  std::vector<imaging::FlowField> flows;  ///< one per consecutive pair
  std::vector<TrackTimings> timings;      ///< matching `flows`
  std::vector<Trajectory> trajectories;   ///< one per seed (may be empty)

  double total_seconds() const {
    double t = 0.0;
    for (const auto& tt : timings) t += tt.total;
    return t;
  }
};

/// Counters and per-stage wall-clock of everything a pipeline ran.
struct PipelineStats {
  std::size_t pairs_tracked = 0;
  std::size_t surface_fits = 0;      ///< frames fitted (== cache misses)
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  /// Hypothesis-invariant match precomputes built (match_precompute.hpp):
  /// one per pair the precompute admits, dropped when the pair returns,
  /// so this counter is independent of the geometry hit/miss invariant
  /// above.
  std::size_t precompute_builds = 0;

  double surface_fit_seconds = 0.0;  ///< patch fits (cache misses only)
  double geometric_vars_seconds = 0.0;
  double match_precompute_seconds = 0.0;  ///< invariant-plane builds
  double matching_seconds = 0.0;     ///< semifluid mapping + hypothesis search
  double postprocess_seconds = 0.0;  ///< robust_postprocess
  double products_seconds = 0.0;     ///< trajectory chaining etc.

  double total_seconds() const {
    return surface_fit_seconds + geometric_vars_seconds +
           match_precompute_seconds + matching_seconds + postprocess_seconds +
           products_seconds;
  }
};

class GeometryCache;  // pipeline.cpp
class SequenceStream;

class SmaPipeline {
 public:
  /// Throws std::invalid_argument on an unknown backend name or an
  /// invalid config.
  explicit SmaPipeline(SmaConfig config, PipelineOptions options = {});
  ~SmaPipeline();

  SmaPipeline(const SmaPipeline&) = delete;
  SmaPipeline& operator=(const SmaPipeline&) = delete;

  /// Tracks one pair through the stages, reusing cached geometry for
  /// any frame whose pixels the pipeline has fitted before.
  TrackResult track_pair(const TrackerInput& input);

  /// Cancellable variant: `cancel` (may be null) is polled at the
  /// checkpoints between stages; a fired token unwinds the call with
  /// core::CancelledError before the next stage starts.  Work already
  /// committed to the shared cache stays valid.
  TrackResult track_pair(const TrackerInput& input, const CancelToken* cancel);

  /// Monocular convenience: intensity doubles as the surface.
  TrackResult track_pair(const imaging::ImageF& before,
                         const imaging::ImageF& after);

  /// Tracks every consecutive pair of a monocular sequence; each frame's
  /// geometry is fitted once.  Optional seeds are chained into
  /// Lagrangian trajectories (products stage).  Throws on fewer than
  /// two frames.  A non-null `cancel` is checked once per pair on top of
  /// the per-stage checkpoints.
  SequenceResult track_sequence(
      const std::vector<imaging::ImageF>& frames,
      const std::vector<std::pair<double, double>>& seeds = {},
      const CancelToken* cancel = nullptr);

  const SmaConfig& config() const { return config_; }

  const TrackerBackend& backend() const { return *backend_; }
  const PipelineOptions& options() const { return options_; }

  const PipelineStats& stats() const { return stats_; }

  /// The pipeline's metrics registry with the current PipelineStats
  /// freshly published (obs_bridge name scheme, "pipeline.*").  External
  /// layers may publish additional metrics into the same registry (the
  /// CLI adds fault and backend-extras gauges) and they ride along in
  /// run_report() / exports.
  obs::MetricsRegistry& metrics();

  /// One RunReport of everything this pipeline ran: backend + config
  /// identity and the metrics() snapshot.
  obs::RunReport run_report();

  /// Drops all cached geometry and the pixel copies it is keyed on.
  void clear_cache();

 private:
  friend class SequenceStream;

  /// Per-call products of a cached geometry lookup: the field plus the
  /// seconds THIS call spent fitting (zero on a hit), so concurrent
  /// callers attribute their own work without reading global deltas.
  struct GeomLookup {
    std::shared_ptr<const surface::GeometricField> geom;
    double fit_seconds = 0.0;
    double derive_seconds = 0.0;
  };

  /// Geometry of one frame's pixels via the cache (surface fit +
  /// geometric variables stages).
  GeomLookup frame_geometry(const imaging::ImageF& img);

  /// Cache peek without touching the hit/miss counters: the geometry of
  /// `img` if currently cached, else null.  SequenceStream pins the
  /// previous frame's field through this so a multi-tenant cache storm
  /// cannot force a refit between frames of one stream.
  std::shared_ptr<const surface::GeometricField> peek_geometry(
      const imaging::ImageF& img);

  /// Re-inserts a previously peeked geometry after an eviction.  No-op
  /// when `geom` is null or the entry is still cached, so in the
  /// no-eviction case the documented hit/miss invariant is untouched
  /// (no fit happens, so no miss is counted; evictions it causes are
  /// counted as usual).
  void reseed_geometry(
      const imaging::ImageF& img,
      const std::shared_ptr<const surface::GeometricField>& geom);

  const SmaConfig config_;
  PipelineOptions options_;
  const TrackerBackend* backend_ = nullptr;  // owned by the registry
  PipelineStats stats_;
  std::unique_ptr<GeometryCache> cache_;
  /// Guards cache_ and stats_ so a worker pool may call track_pair
  /// concurrently on one pipeline (src/serve/).  Compute runs OUTSIDE
  /// the lock; only lookups, inserts and counter merges hold it, so
  /// critical sections are microseconds.  Two threads missing the same
  /// frame simultaneously both fit it (both counted — the "one miss per
  /// distinct frame" invariant is exact single-threaded, an upper bound
  /// under contention); the loser's entry is discarded on insert.
  std::mutex state_mutex_;
  obs::MetricsRegistry metrics_;
};

/// Incremental, push-one-frame-at-a-time view of track_sequence: the
/// streaming primitive behind sma_serve's SEQ sessions, where frames
/// arrive over a socket and the full sequence never exists in memory.
///
/// Each push after the first tracks the pair (previous, frame) through
/// the shared pipeline and chains the optional seed trajectories — so a
/// T-frame stream performs exactly the T surface fits the batch
/// track_sequence would (the previous frame's geometry is PINNED here
/// and reseeded into the cache if concurrent tenants evicted it).  The
/// flows are bit-identical to both the batch path and T-1 independent
/// track_pair calls on the same pipeline.
///
/// Not thread-safe: one stream is one logical caller (the serving layer
/// runs at most one in-flight frame per session).  The underlying
/// pipeline may be shared with concurrent callers as usual.
class SequenceStream {
 public:
  explicit SequenceStream(
      SmaPipeline& pipeline,
      const std::vector<std::pair<double, double>>& seeds = {});

  /// Pushes the next frame (with an optional validity mask from the
  /// repair layer).  Returns nullopt for the first frame — no pair
  /// exists yet — and the TrackResult of (previous, frame) afterwards.
  /// Throws std::invalid_argument on a null frame or a dimension change
  /// mid-stream, and CancelledError via the usual checkpoints.  The
  /// frame pointer is retained until the next push.
  std::optional<TrackResult> push(
      std::shared_ptr<const imaging::ImageF> frame,
      std::shared_ptr<const imaging::ImageU8> validity = nullptr,
      const CancelToken* cancel = nullptr);

  /// Frames accepted so far (pairs tracked == frames_pushed() - 1).
  std::size_t frames_pushed() const { return frames_; }

  /// Trajectories of the seeds through every pair pushed so far.
  const std::vector<Trajectory>& trajectories() const {
    return tracker_.trajectories();
  }

 private:
  SmaPipeline* pipeline_;
  TrajectoryTracker tracker_;
  std::size_t frames_ = 0;
  std::shared_ptr<const imaging::ImageF> prev_;
  std::shared_ptr<const imaging::ImageU8> prev_mask_;
  /// Pin on the previous frame's fitted geometry (see push()).
  std::shared_ptr<const surface::GeometricField> prev_geom_;
};

}  // namespace sma::core
