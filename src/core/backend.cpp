#include "core/backend.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/match_precompute.hpp"
#include "core/match_prune.hpp"
#include "core/match_vector.hpp"
#include "obs/trace.hpp"

namespace sma::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The host substrates share everything but the parallel toggle: the
// sequential baseline runs the pixel plane as one inline tile, the
// parallel flavor submits cache-blocked tiles to the shared
// work-stealing pool (sched/scheduler.hpp).  Both are bit-identical at
// every thread count — each tile writes only its own pixels.
class HostBackend final : public TrackerBackend {
 public:
  HostBackend(std::string name, bool parallel)
      : name_(std::move(name)), parallel_(parallel) {}

  std::string name() const override { return name_; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.host_parallel = parallel_;
    return caps;
  }

  TrackResult match(const MatchInput& in, const SmaConfig& config,
                    const TrackOptions& options) const override {
    TrackResult result;
    // Pruned runs get the accounting report attached as extras; full
    // runs stay extras-free (the historical contract for host backends).
    std::shared_ptr<PruneBackendExtras> prune_extras;
    PruneReport* prune = nullptr;
    if (config.search_mode == SearchMode::kPruned) {
      prune_extras = std::make_shared<PruneBackendExtras>();
      prune = &prune_extras->report;
    }
    std::vector<PixelBest> best =
        run_hypothesis_search(in, config, parallel_, result.timings,
                              result.peak_mapping_bytes, prune);
    if (options.subpixel)
      refine_subpixel(in, config, parallel_, best, result.timings);
    collect_track_result(in, config, options, best, result);
    result.timings.total = result.timings.match_precompute +
                           result.timings.semifluid_mapping +
                           result.timings.hypothesis_matching;
    if (prune_extras != nullptr) result.extras = std::move(prune_extras);
    return result;
  }

 private:
  std::string name_;
  bool parallel_;
};

}  // namespace

TrackResult TrackerBackend::track(const TrackerInput& input,
                                  const SmaConfig& config,
                                  const TrackOptions& options) const {
  config.validate();
  validate_tracker_input(input, "track_pair");

  const auto t_start = Clock::now();
  obs::TraceSpan track_span("backend", "track");
  const bool parallel = capabilities().host_parallel;
  const bool semifluid = config.model == MotionModel::kSemiFluid &&
                         config.semifluid_search_radius > 0;

  obs::TraceSpan geometry_span("backend", "frame_geometry");
  const FrameGeometry fg0 =
      compute_frame_geometry(*input.surface_before, input.intensity_before,
                             config, parallel, semifluid);
  const FrameGeometry fg1 =
      compute_frame_geometry(*input.surface_after, input.intensity_after,
                             config, parallel, semifluid);
  geometry_span.finish();

  MatchInput mi;
  mi.before = &fg0.geom;
  mi.after = &fg1.geom;
  mi.disc_before = fg0.has_disc ? &fg0.disc : nullptr;
  mi.disc_after = fg1.has_disc ? &fg1.disc : nullptr;
  mi.mask_before = input.validity_before;
  mi.mask_after = input.validity_after;
  // Raw z-surface frames for the pruned mode's coarse seeding pyramid,
  // plus the optional externally computed seed slice (shard runner).
  mi.raw_before = input.surface_before;
  mi.raw_after = input.surface_after;
  mi.prune_seeds = input.prune_seeds;

  // Hypothesis-invariant matching precompute: built once per pair here
  // so every backend's match() — host or SIMD — shares the fast path.
  std::optional<MatchPrecompute> pre;
  double pre_seconds = 0.0;
  if (resolve_precompute(config, mi) == PrecomputeDecision::kFast) {
    const auto t0 = Clock::now();
    obs::TraceSpan span("backend", "match_precompute");
    pre.emplace(fg0.geom, parallel);
    pre_seconds = seconds_since(t0);
    mi.precompute = &*pre;
  }

  obs::TraceSpan match_span("backend", "matching");
  TrackResult result = match(mi, config, options);
  match_span.finish();
  result.timings.surface_fit = fg0.fit_seconds + fg1.fit_seconds;
  result.timings.geometric_vars = fg0.derive_seconds + fg1.derive_seconds;
  result.timings.match_precompute += pre_seconds;
  result.timings.total = seconds_since(t_start);
  return result;
}

BackendRegistry::BackendRegistry() {
  backends_["sequential"] =
      std::make_unique<HostBackend>("sequential", /*parallel=*/false);
  // `tiled` is the thread-parallel host backend: staged kernels over
  // work-stealing pixel tiles.  `openmp` is a RETIRED alias kept so
  // existing configs/scripts keep resolving — the per-row OpenMP splits
  // it once named were replaced by the tiled scheduler, and both names
  // now run the identical implementation (same results bit-for-bit).
  backends_["tiled"] =
      std::make_unique<HostBackend>("tiled", /*parallel=*/true);
  backends_["openmp"] =
      std::make_unique<HostBackend>("openmp", /*parallel=*/true);
  // SIMD lanes over pixels x work-stealing threads over tiles;
  // bit-identical to the host backends on every lane implementation
  // (match_vector.hpp).
  backends_["vector"] = make_vector_backend();
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(
    std::unique_ptr<TrackerBackend> backend) {
  if (backend == nullptr)
    throw std::invalid_argument("register_backend: null backend");
  const std::string name = backend->name();
  if (name.empty())
    throw std::invalid_argument("register_backend: empty backend name");
  std::lock_guard<std::mutex> lock(mutex_);
  backends_[name] = std::move(backend);
}

const TrackerBackend* BackendRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = backends_.find(name);
  return it != backends_.end() ? it->second.get() : nullptr;
}

const TrackerBackend& BackendRegistry::get(const std::string& name) const {
  const TrackerBackend* backend = find(name);
  if (backend == nullptr) {
    std::string known;
    for (const auto& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("unknown tracker backend '" + name +
                                "' (registered: " + known + ")");
  }
  return *backend;
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& [name, backend] : backends_) out.push_back(name);
  return out;
}

const char* backend_name_for(ExecutionPolicy policy) {
  return policy == ExecutionPolicy::kParallel ? "openmp" : "sequential";
}

}  // namespace sma::core
