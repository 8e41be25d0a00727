#include "core/backend.hpp"

#include <stdexcept>
#include <utility>

#include "core/match_prune.hpp"
#include "core/match_vector.hpp"

namespace sma::core {

namespace {

// The sequential baseline: the matching stage with the staged kernels
// over the pixel plane as one inline tile, never touching the sched pool.
class HostBackend final : public TrackerBackend {
 public:
  std::string name() const override { return "sequential"; }

  BackendCapabilities capabilities() const override { return {}; }

  TrackResult match(const MatchInput& in, const SmaConfig& config,
                    const TrackOptions& options) const override {
    // Pruned runs get the accounting report attached as extras; full
    // runs stay extras-free (the baseline's historical contract).
    std::shared_ptr<PruneBackendExtras> prune_extras;
    if (config.search_mode == SearchMode::kPruned)
      prune_extras = std::make_shared<PruneBackendExtras>();
    TrackResult result = run_matching_stage(
        in, config, options, /*parallel=*/false,
        [&](const MatchSegment& seg) {
          scan_segment(in, config, /*parallel=*/false, seg);
        },
        prune_extras != nullptr ? &prune_extras->report : nullptr);
    result.extras = std::move(prune_extras);
    return result;
  }
};

}  // namespace

BackendRegistry::BackendRegistry() {
  backends_["sequential"] = std::make_unique<HostBackend>();
  // SIMD lanes over pixels x work-stealing threads over tiles;
  // bit-identical to "sequential" on every lane implementation
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
