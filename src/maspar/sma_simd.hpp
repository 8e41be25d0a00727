// sma_simd.hpp — the SMA algorithm executed in the MP-2's SIMD order.
//
// Sec. 4: "The parallel implementation was designed to track all pixels
// in the mem-th memory layer in parallel and then repeat the process for
// each layer."  MasParExecutor follows exactly that schedule: pixels are
// visited layer by layer through the 2-D hierarchical mapping, with all
// PEs (conceptually) advancing in lock step within a layer, and the
// hypothesis search segmented by rows when the PE memory budget demands
// it (Sec. 4.3).
//
// Functional contract (the paper's own validation, Sec. 5.1: "The
// parallel algorithm obtained the same result as the sequential
// implementation"): the flow field produced here is identical to the
// "sequential" backend's.  On top of the functional run the executor
// reports the modeled MP-2 wall-clock (cost_model.hpp), the PE memory
// footprint and the mesh traffic of the neighborhood gathers.  It runs
// as the "maspar-sim" backend (maspar/backend.hpp) behind SmaPipeline,
// which supplies the per-frame geometry.
#pragma once

#include <cstdint>

#include "core/tracker.hpp"
#include "maspar/cost_model.hpp"
#include "maspar/data_mapping.hpp"
#include "maspar/plural.hpp"
#include "obs/metrics.hpp"

namespace sma::maspar {

struct SimdRunReport {
  imaging::FlowField flow;          ///< identical to the sequential tracker
  int layers = 0;                   ///< xvr * yvr memory layers executed
  int segment_rows = 0;             ///< hypothesis-row chunk height used
  bool fits_pe_memory = false;      ///< Sec. 4.3 budget check at this Z
  std::uint64_t pe_bytes = 0;       ///< modeled bytes per PE
  PhaseTimes modeled;               ///< modeled MP-2 phase times
  double modeled_sgi_total = 0.0;   ///< modeled sequential comparator
  double modeled_speedup = 0.0;
  CommCounters comm;                ///< template-gather mesh traffic
  double host_seconds = 0.0;        ///< actual time of the matching simulation
};

/// Publishes the whole SimdRunReport under "maspar.*": the Sec. 4.3
/// memory plan (layers, segment_rows, pe_bytes, fits_pe_memory), the
/// modeled Table 2/4 phase rows ("maspar.modeled.*"), the modeled SGI
/// comparator + speedup, the X-net/router traffic tallies and the host
/// simulation time — so the MasPar substrate's report rides in the same
/// RunReport/CSV exports as the host pipeline's.
void publish_metrics(const SimdRunReport& report, obs::MetricsRegistry& reg);

class MasParExecutor {
 public:
  explicit MasParExecutor(MachineSpec spec = {}) : spec_(spec) {}

  /// Matching stages in SIMD layer order, on precomputed per-frame
  /// geometry (the staged-kernel seam of core/tracker.hpp): memory
  /// planning, the layer-ordered hypothesis search, the shared sub-pixel
  /// and products stages, and the modeled machine costs.  If
  /// config.segment_rows is 0 and the unsegmented footprint exceeds PE
  /// memory, the largest fitting Z is chosen automatically (the Sec. 4.3
  /// scheme); if even Z=1 does not fit, the run proceeds and
  /// `fits_pe_memory` is false.  When `track_out` is non-null it
  /// receives the full TrackResult (flow, matching-phase timings, peak
  /// cost-layer bytes, optional ParamsField) — this is what the
  /// "maspar-sim" TrackerBackend adapter drives.
  SimdRunReport run_matching(const core::MatchInput& in,
                             const core::SmaConfig& config, int image_count,
                             const core::TrackOptions& options = {},
                             core::TrackResult* track_out = nullptr) const;

  const MachineSpec& spec() const { return spec_; }

 private:
  MachineSpec spec_;
};

}  // namespace sma::maspar
