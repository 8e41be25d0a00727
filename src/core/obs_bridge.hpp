// obs_bridge.hpp — publishes the core layer's ad-hoc telemetry structs
// (PipelineStats, TrackTimings, SubpixelProbeCount, FaultLog, ...) into an
// obs::MetricsRegistry.
//
// The structs stay the in-process API (cheap, typed, no lookups on hot
// paths); the bridge is the single place their fields are mapped onto
// registry names, so every exporter (RunReport JSON, --metrics CSV, the
// benches) sees the same numbers under the same names.  The name lists
// are exported for tests/test_obs.cpp's completeness check: a field
// added to a struct without a matching publish + list entry trips a
// static_assert in obs_bridge.cpp, and a name registered but never
// published trips the test — counters cannot silently fall out of the
// export again.
//
// Naming scheme: "<layer>.<field>" with the struct's own field names
// ("pipeline.cache_hits", "track.surface_fit_seconds"); fault events use
// the fault_kind_name() strings ("fault.line-repaired").  Struct fields
// are mirrored as gauges (an idempotent re-publish of a cumulative
// snapshot), event counts as gauges of the log's current totals.
#pragma once

#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/pipeline.hpp"
#include "core/tracker.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"

namespace sma::core {

/// Registers/updates every PipelineStats field under "pipeline.*", plus
/// the derived "pipeline.total_seconds" and "pipeline.cache_hit_rate".
void publish_metrics(const PipelineStats& stats, obs::MetricsRegistry& reg);

/// Registers/updates every TrackTimings field under "track.*".
void publish_metrics(const TrackTimings& timings, obs::MetricsRegistry& reg);

/// Registers/updates the sub-pixel probe counts under
/// "track.subpixel_probes_*".
void publish_metrics(const SubpixelProbeCount& count,
                     obs::MetricsRegistry& reg);

/// Registers/updates one gauge per FaultKind under "fault.*" (all kinds
/// are registered, so an empty log still exports explicit zeros).
void publish_metrics(const FaultLog& log, obs::MetricsRegistry& reg);

/// Registers/updates every PruneReport field under "pruning.*", plus the
/// derived "pruning.reduction" and "pruning.seed_hit_rate".
void publish_metrics(const PruneReport& report, obs::MetricsRegistry& reg);

/// Registers/updates the tiled scheduler's counters under "sched.*"
/// (sched::ThreadPool::stats()).  The per-thread busy times are folded
/// into min/max/total gauges — the load-imbalance signal — rather than
/// one gauge per worker, so the export shape is thread-count stable.
void publish_metrics(const sched::SchedStats& stats,
                     obs::MetricsRegistry& reg);

/// The registry names publish_metrics(PipelineStats) maintains, one per
/// struct field (derived rates excluded) — the completeness contract.
const std::vector<std::string>& pipeline_stats_metric_names();

/// Likewise for TrackTimings.
const std::vector<std::string>& track_timings_metric_names();

/// Likewise for SubpixelProbeCount.
const std::vector<std::string>& subpixel_probe_metric_names();

/// Likewise for the FaultKind gauges.
const std::vector<std::string>& fault_metric_names();

/// Likewise for the PruneReport gauges.
const std::vector<std::string>& pruning_metric_names();

/// Likewise for the SchedStats gauges.
const std::vector<std::string>& sched_metric_names();

}  // namespace sma::core
