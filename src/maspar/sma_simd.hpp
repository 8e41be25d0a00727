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
// The executor is one pixel visit of the shared matching stage
// (core::run_matching_stage), which owns the segment loop, the
// correspondence tables, the pruned search, sub-pixel refinement and
// products.  Functional contract (the paper's own validation, Sec. 5.1:
// "The parallel algorithm obtained the same result as the sequential
// implementation"): the flow field produced here is identical to the
// "sequential" backend's, full and pruned search alike.  On top of the
// functional run the executor reports the modeled MP-2 wall-clock
// (cost_model.hpp), the PE memory footprint and the mesh traffic of the
// neighborhood gathers.  It runs as the "maspar-sim" backend
// (maspar/backend.hpp) behind SmaPipeline, which supplies the per-frame
// geometry.
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
  double host_seconds = 0.0;        ///< host time of the matching stage
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

  /// The matching stage (core::run_matching_stage) with pixels visited
  /// in SIMD layer order, on precomputed per-frame geometry, plus the
  /// Sec. 4.3 memory plan and the modeled machine costs in `report`.  If
  /// config.segment_rows is 0, the semi-fluid remap is active and the
  /// unsegmented footprint exceeds PE memory, the largest fitting Z is
  /// chosen automatically (the Sec. 4.3 scheme); if even Z=1 does not
  /// fit, the run proceeds and `fits_pe_memory` is false.  `prune`, when
  /// non-null, receives the pruned search's accounting.  Returns the
  /// TrackResult (flow, matching-phase timings, peak mapping bytes,
  /// optional ParamsField) the "maspar-sim" TrackerBackend adapter hands
  /// back.
  core::TrackResult run_matching(const core::MatchInput& in,
                                 const core::SmaConfig& config,
                                 int image_count,
                                 const core::TrackOptions& options,
                                 SimdRunReport& report,
                                 core::PruneReport* prune = nullptr) const;

  const MachineSpec& spec() const { return spec_; }

 private:
  MachineSpec spec_;
};

}  // namespace sma::maspar
