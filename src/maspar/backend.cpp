#include "maspar/backend.hpp"

#include <memory>
#include <utility>

namespace sma::maspar {

core::TrackResult MasParSimBackend::match(
    const core::MatchInput& in, const core::SmaConfig& config,
    const core::TrackOptions& options) const {
  auto extras = std::make_shared<MasParBackendExtras>();
  core::TrackResult result = executor_.run_matching(
      in, config, image_count_, options, extras->report, &extras->prune);
  result.extras = std::move(extras);
  return result;
}

void register_maspar_backend(MachineSpec spec, int image_count) {
  core::BackendRegistry::instance().register_backend(
      std::make_unique<MasParSimBackend>(spec, image_count));
}

}  // namespace sma::maspar
