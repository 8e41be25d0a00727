#include "core/obs_bridge.hpp"

#include <algorithm>

namespace sma::core {

// Completeness guards: these sizes change exactly when a field is added
// to (or removed from) the structs.  If one fires, update the matching
// publish_metrics() AND the name list below — tests/test_obs.cpp
// cross-checks the list against the exported snapshot.
static_assert(sizeof(PipelineStats) ==
                  7 * sizeof(std::size_t) + 6 * sizeof(double),
              "PipelineStats changed: update publish_metrics(PipelineStats) "
              "and pipeline_stats_metric_names()");
static_assert(sizeof(TrackTimings) == 6 * sizeof(double),
              "TrackTimings changed: update publish_metrics(TrackTimings) "
              "and track_timings_metric_names()");
static_assert(sizeof(PruneReport) ==
                  11 * sizeof(std::uint64_t) + sizeof(double),
              "PruneReport changed: update publish_metrics(PruneReport) "
              "and pruning_metric_names()");
static_assert(sizeof(sched::SchedStats) ==
                  4 * sizeof(std::uint64_t) + 2 * sizeof(int) +
                      sizeof(double) + sizeof(std::vector<double>) +
                      /*alignment padding*/ 8,
              "SchedStats changed: update publish_metrics(SchedStats) "
              "and sched_metric_names()");

void publish_metrics(const PipelineStats& s, obs::MetricsRegistry& reg) {
  reg.gauge("pipeline.pairs_tracked").set(static_cast<double>(s.pairs_tracked));
  reg.gauge("pipeline.surface_fits").set(static_cast<double>(s.surface_fits));
  reg.gauge("pipeline.cache_hits").set(static_cast<double>(s.cache_hits));
  reg.gauge("pipeline.cache_misses").set(static_cast<double>(s.cache_misses));
  reg.gauge("pipeline.cache_evictions")
      .set(static_cast<double>(s.cache_evictions));
  reg.gauge("pipeline.precompute_builds")
      .set(static_cast<double>(s.precompute_builds));
  reg.gauge("pipeline.precompute_reuses")
      .set(static_cast<double>(s.precompute_reuses));
  reg.gauge("pipeline.surface_fit_seconds").set(s.surface_fit_seconds);
  reg.gauge("pipeline.geometric_vars_seconds").set(s.geometric_vars_seconds);
  reg.gauge("pipeline.match_precompute_seconds")
      .set(s.match_precompute_seconds);
  reg.gauge("pipeline.matching_seconds").set(s.matching_seconds);
  reg.gauge("pipeline.postprocess_seconds").set(s.postprocess_seconds);
  reg.gauge("pipeline.products_seconds").set(s.products_seconds);
  // Derived conveniences (not part of the completeness contract).
  reg.gauge("pipeline.total_seconds").set(s.total_seconds());
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  reg.gauge("pipeline.cache_hit_rate")
      .set(lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0.0);
}

const std::vector<std::string>& pipeline_stats_metric_names() {
  static const std::vector<std::string> names = {
      "pipeline.pairs_tracked",
      "pipeline.surface_fits",
      "pipeline.cache_hits",
      "pipeline.cache_misses",
      "pipeline.cache_evictions",
      "pipeline.precompute_builds",
      "pipeline.precompute_reuses",
      "pipeline.surface_fit_seconds",
      "pipeline.geometric_vars_seconds",
      "pipeline.match_precompute_seconds",
      "pipeline.matching_seconds",
      "pipeline.postprocess_seconds",
      "pipeline.products_seconds",
  };
  return names;
}

void publish_metrics(const TrackTimings& t, obs::MetricsRegistry& reg) {
  reg.gauge("track.surface_fit_seconds").set(t.surface_fit);
  reg.gauge("track.geometric_vars_seconds").set(t.geometric_vars);
  reg.gauge("track.match_precompute_seconds").set(t.match_precompute);
  reg.gauge("track.semifluid_mapping_seconds").set(t.semifluid_mapping);
  reg.gauge("track.hypothesis_matching_seconds").set(t.hypothesis_matching);
  reg.gauge("track.total_seconds").set(t.total);
}

const std::vector<std::string>& track_timings_metric_names() {
  static const std::vector<std::string> names = {
      "track.surface_fit_seconds",      "track.geometric_vars_seconds",
      "track.match_precompute_seconds", "track.semifluid_mapping_seconds",
      "track.hypothesis_matching_seconds", "track.total_seconds",
  };
  return names;
}

namespace {

constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kScanlineDropout, FaultKind::kBitNoise,
    FaultKind::kDeadColumn,      FaultKind::kMissingFrame,
    FaultKind::kLineRepaired,    FaultKind::kLineMasked,
};
// Completeness: every FaultKind must appear above so publish_metrics
// exports a "fault.*" gauge for it.
static_assert(sizeof(kAllFaultKinds) / sizeof(kAllFaultKinds[0]) ==
                  kFaultKindCount,
              "FaultKind changed: update kAllFaultKinds (and the "
              "fault_metric_names list it generates)");

}  // namespace

void publish_metrics(const FaultLog& log, obs::MetricsRegistry& reg) {
  for (const FaultKind kind : kAllFaultKinds)
    reg.gauge(std::string("fault.") + fault_kind_name(kind))
        .set(static_cast<double>(log.count(kind)));
}

void publish_metrics(const PruneReport& r, obs::MetricsRegistry& reg) {
  reg.gauge("pruning.active").set(static_cast<double>(r.active));
  reg.gauge("pruning.fallback_reason")
      .set(static_cast<double>(r.fallback_reason));
  reg.gauge("pruning.full_grid_hypotheses")
      .set(static_cast<double>(r.full_grid_hypotheses));
  reg.gauge("pruning.coarse_hypotheses")
      .set(static_cast<double>(r.coarse_hypotheses));
  reg.gauge("pruning.fine_scheduled")
      .set(static_cast<double>(r.fine_scheduled));
  reg.gauge("pruning.fine_evaluated")
      .set(static_cast<double>(r.fine_evaluated));
  reg.gauge("pruning.bound_checks").set(static_cast<double>(r.bound_checks));
  reg.gauge("pruning.bound_skipped").set(static_cast<double>(r.bound_skipped));
  reg.gauge("pruning.window_pixels")
      .set(static_cast<double>(r.window_pixels));
  reg.gauge("pruning.fallback_pixels")
      .set(static_cast<double>(r.fallback_pixels));
  reg.gauge("pruning.seed_interior").set(static_cast<double>(r.seed_interior));
  reg.gauge("pruning.bound_tightness_sum").set(r.bound_tightness_sum);
  // Derived conveniences (not part of the completeness contract).
  reg.gauge("pruning.reduction").set(r.reduction());
  reg.gauge("pruning.seed_hit_rate").set(r.seed_hit_rate());
  reg.gauge("pruning.bound_tightness").set(r.mean_bound_tightness());
}

const std::vector<std::string>& pruning_metric_names() {
  static const std::vector<std::string> names = {
      "pruning.active",
      "pruning.fallback_reason",
      "pruning.full_grid_hypotheses",
      "pruning.coarse_hypotheses",
      "pruning.fine_scheduled",
      "pruning.fine_evaluated",
      "pruning.bound_checks",
      "pruning.bound_skipped",
      "pruning.window_pixels",
      "pruning.fallback_pixels",
      "pruning.seed_interior",
      "pruning.bound_tightness_sum",
  };
  return names;
}

void publish_metrics(const sched::SchedStats& s, obs::MetricsRegistry& reg) {
  reg.gauge("sched.threads").set(static_cast<double>(s.threads));
  reg.gauge("sched.batches").set(static_cast<double>(s.batches));
  reg.gauge("sched.tiles").set(static_cast<double>(s.tiles));
  reg.gauge("sched.steals").set(static_cast<double>(s.steals));
  reg.gauge("sched.inline_batches")
      .set(static_cast<double>(s.inline_batches));
  reg.gauge("sched.max_busy").set(static_cast<double>(s.max_busy));
  reg.gauge("sched.busy_seconds").set(s.busy_seconds);
  // The per-thread vector folds to its spread (always registered, so the
  // export shape does not depend on the pool width).
  double lo = 0.0, hi = 0.0;
  if (!s.thread_busy_seconds.empty()) {
    lo = hi = s.thread_busy_seconds.front();
    for (const double v : s.thread_busy_seconds) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  reg.gauge("sched.thread_busy_min_seconds").set(lo);
  reg.gauge("sched.thread_busy_max_seconds").set(hi);
}

const std::vector<std::string>& sched_metric_names() {
  static const std::vector<std::string> names = {
      "sched.threads",
      "sched.batches",
      "sched.tiles",
      "sched.steals",
      "sched.inline_batches",
      "sched.max_busy",
      "sched.busy_seconds",
      "sched.thread_busy_min_seconds",
      "sched.thread_busy_max_seconds",
  };
  return names;
}

const std::vector<std::string>& fault_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const FaultKind kind : kAllFaultKinds)
      out.push_back(std::string("fault.") + fault_kind_name(kind));
    return out;
  }();
  return names;
}

}  // namespace sma::core
