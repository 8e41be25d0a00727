// backend.hpp — the "maspar-sim" TrackerBackend adapter.
//
// Wraps MasParExecutor behind the core backend registry so the MP-2
// simulation is selectable wherever a backend name is accepted
// (`--backend maspar-sim`, SmaPipeline, the equivalence sweep).  The
// executor's full SimdRunReport — modeled MP-2 phase times, PE memory
// check, mesh traffic — rides along on TrackResult::extras:
//
//   maspar::register_maspar_backend(spec, image_count);
//   core::SmaPipeline pipeline(config, {.backend = "maspar-sim"});
//   const core::TrackResult result = pipeline.track_pair(f0, f1);
//   const auto* mx = dynamic_cast<const maspar::MasParBackendExtras*>(
//       result.extras.get());
//   if (mx != nullptr) use(mx->report);
//
// Registration is explicit (the core library cannot depend on this
// layer).
#pragma once

#include "core/backend.hpp"
#include "maspar/sma_simd.hpp"

namespace sma::maspar {

/// TrackResult::extras payload of the maspar-sim backend (the pruned
/// search's accounting is the inherited `prune`).
struct MasParBackendExtras : core::BackendExtras {
  SimdRunReport report;
};

class MasParSimBackend final : public core::TrackerBackend {
 public:
  /// `image_count` feeds the modeled phase times (Sec. 3: four images —
  /// two intensity + two surface — for the stereo product).
  explicit MasParSimBackend(MachineSpec spec = {}, int image_count = 4)
      : executor_(spec), image_count_(image_count) {}

  std::string name() const override { return "maspar-sim"; }

  core::BackendCapabilities capabilities() const override { return {}; }

  core::TrackResult match(const core::MatchInput& in,
                          const core::SmaConfig& config,
                          const core::TrackOptions& options) const override;

  const MasParExecutor& executor() const { return executor_; }

 private:
  MasParExecutor executor_;
  int image_count_;
};

/// Registers "maspar-sim" with the given machine and image count.  Each
/// call replaces — and destroys — the previously registered maspar-sim
/// backend, so a pipeline must be built after the registration it uses
/// and must not outlive a later one.
void register_maspar_backend(MachineSpec spec = {}, int image_count = 4);

}  // namespace sma::maspar
