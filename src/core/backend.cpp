#include "core/backend.hpp"

#include <stdexcept>
#include <utility>

#include "core/match_prune.hpp"
#include "core/match_vector.hpp"

namespace sma::core {

namespace {

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

BackendRegistry::BackendRegistry() {
  backends_["sequential"] =
      std::make_unique<HostBackend>("sequential", /*parallel=*/false);
  // The thread-parallel host backend: staged kernels over work-stealing
  // pixel tiles.
  backends_["tiled"] =
      std::make_unique<HostBackend>("tiled", /*parallel=*/true);
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

}  // namespace sma::core
