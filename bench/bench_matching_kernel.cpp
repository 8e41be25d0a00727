// bench_matching_kernel — measures the hypothesis-invariant matching
// precompute (core/match_precompute.hpp) against the naive per-pixel
// normal-equation evaluator on a continuous-model Frederic-analog pair.
//
// Three variants of the same search (Nzs = Nzt = 4):
//   naive                `sequential`'s match() on the pair without
//                        precompute planes: the paper's per-hypothesis
//                        row-by-row normal-equation accumulation
//   precompute           SoA invariant planes + per-window A^T A tiles
//   vector               the `vector` backend: SIMD lanes over center
//                        pixels over the precompute planes (src/simd/)
//
// The bench checks its own answers: the precompute and vector flows
// must be BIT-IDENTICAL to naive (the equivalence-oracle contract the
// unit tests enforce).
//
// The bench also guards the observability layer's zero-overhead
// contract: a disabled obs::TraceSpan (no recorder installed) is
// microbenchmarked, scaled by the number of spans one tracked pair
// emits, and the projected cost must stay under 2% of the naive
// matching time.
//
// Usage: bench_matching_kernel [--size N] [--repeat N] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/match_vector.hpp"
#include "core/sma.hpp"
#include "goes/datasets.hpp"
#include "obs/trace.hpp"

using namespace sma;

namespace {

struct VariantResult {
  std::string name;
  std::string backend;              // registry backend that ran the variant
  double match_seconds = 0.0;       // precompute + mapping + hypothesis
  double precompute_seconds = 0.0;  // invariant-plane build share
  double wall_seconds = 0.0;        // full track() incl. surface fit
  imaging::FlowField flow;
  core::VectorRunReport vector_report;  // only set by the vector backend
  bool has_vector_report = false;
  core::PruneReport prune;              // all zero under full search
};

/// Max per-axis winner deviation and differing-pixel counts of `flow`
/// against the bit-exact oracle `oracle`, split into the interior and
/// the clamped-border band (within `margin` of an edge), where the
/// shifted/advected frame is locally ambiguous and near-tied minima are
/// common.
struct FlowDrift {
  double max_du = 0.0;
  double max_dv = 0.0;
  int mismatches = 0;
  int interior_mismatches = 0;
  int interior_pixels = 0;
};

FlowDrift flow_drift(const imaging::FlowField& flow,
                     const imaging::FlowField& oracle, int margin) {
  FlowDrift d;
  for (int y = 0; y < flow.height(); ++y)
    for (int x = 0; x < flow.width(); ++x) {
      const double du = std::abs(flow.u().at(x, y) - oracle.u().at(x, y));
      const double dv = std::abs(flow.v().at(x, y) - oracle.v().at(x, y));
      const bool interior = x >= margin && x < flow.width() - margin &&
                            y >= margin && y < flow.height() - margin;
      if (interior) ++d.interior_pixels;
      if (du > 0.0 || dv > 0.0) {
        ++d.mismatches;
        if (interior) ++d.interior_mismatches;
      }
      d.max_du = std::max(d.max_du, du);
      d.max_dv = std::max(d.max_dv, dv);
    }
  return d;
}

// Times `track` (best of `repeat` after one warm-up) from its
// TrackTimings: match = precompute + mapping + hypothesis matching, wall
// = timings.total.
VariantResult time_variant(const std::string& name,
                           const std::string& backend_name,
                           const std::function<core::TrackResult()>& track,
                           int repeat) {
  VariantResult best;
  best.name = name;
  best.backend = backend_name;
  // One untimed warm-up pass so page faults and first-touch allocation
  // are not charged to the min-of-N timings below.
  (void)track();
  for (int i = 0; i < repeat; ++i) {
    const core::TrackResult r = track();
    const double match = r.timings.match_precompute +
                         r.timings.semifluid_mapping +
                         r.timings.hypothesis_matching;
    if (i == 0 || match < best.match_seconds) {
      best.match_seconds = match;
      best.precompute_seconds = r.timings.match_precompute;
      best.wall_seconds = r.timings.total;
    }
    if (i == 0) {
      best.flow = r.flow;
      if (const auto* vx =
              dynamic_cast<const core::VectorBackendExtras*>(r.extras.get())) {
        best.vector_report = vx->report;
        best.has_vector_report = true;
      }
      best.prune = r.extras->prune;
    }
  }
  return best;
}

// A fresh pipeline per run, so every run pays both fits and the
// precompute build instead of hitting the geometry cache.
VariantResult run_variant(const std::string& name,
                          const std::string& backend_name,
                          const core::TrackerInput& in,
                          const core::SmaConfig& cfg, int repeat) {
  return time_variant(
      name, backend_name,
      [&] {
        return core::SmaPipeline(cfg, {.backend = backend_name})
            .track_pair(in);
      },
      repeat);
}

// The naive evaluator: `sequential`'s match() on the pair without
// precompute planes, over geometry fitted as the pipeline fits it.  Both
// fits run inside every timed call and count in its wall time, as they
// do on a fresh pipeline.
VariantResult run_naive(const core::TrackerInput& in,
                        const core::SmaConfig& cfg, int repeat) {
  const core::TrackerBackend& sequential =
      core::BackendRegistry::instance().get("sequential");
  return time_variant(
      "naive", "sequential",
      [&] {
        const auto t0 = std::chrono::steady_clock::now();
        surface::GeometryOptions gopts;
        gopts.patch_radius = cfg.surface_fit_radius;
        const surface::GeometricField g0 =
            surface::compute_geometry(*in.surface_before, gopts);
        const surface::GeometricField g1 =
            surface::compute_geometry(*in.surface_after, gopts);
        core::MatchInput mi;
        mi.before = &g0;
        mi.after = &g1;
        core::TrackResult r = sequential.match(mi, cfg, {});
        r.timings.total = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        return r;
      },
      repeat);
}

// Per-span cost of the disabled path (no recorder installed): one
// relaxed atomic load and a branch at open, one branch at close.
double measure_disabled_span_seconds() {
  constexpr int kIters = 2'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    obs::TraceSpan span("bench", "disabled");
    benchmark::DoNotOptimize(&span);
  }
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return total / kIters;
}

// How many spans one tracked pair emits, observed by installing a
// recorder just long enough to count them.
std::size_t count_spans_per_pair(const core::TrackerInput& in,
                                 const core::SmaConfig& cfg) {
  obs::TraceRecorder recorder;
  obs::set_trace_recorder(&recorder);
  (void)core::SmaPipeline(cfg).track_pair(in);
  obs::set_trace_recorder(nullptr);
  return recorder.events().size() + static_cast<std::size_t>(recorder.dropped());
}

}  // namespace

int main(int argc, char** argv) {
  int size = 96;
  int repeat = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc)
      size = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc)
      repeat = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 4;
  cfg.z_template_radius = 4;

  const goes::FredericDataset data = goes::make_frederic_analog(size, 31, 3.0);
  core::TrackerInput in;
  in.intensity_before = in.surface_before = &data.left0;
  in.intensity_after = in.surface_after = &data.left1;

  bench::header("Matching kernel — naive vs hypothesis-invariant precompute (" +
                std::to_string(size) + "x" + std::to_string(size) + ", " +
                cfg.describe() + ")");

  const VariantResult naive = run_naive(in, cfg, repeat);
  const VariantResult pre =
      run_variant("precompute", "sequential", in, cfg, repeat);
  const VariantResult vec = run_variant("vector", "vector", in, cfg, repeat);

  const double npix = static_cast<double>(size) * size;
  std::printf("  %-22s %12s %12s %10s %14s\n", "variant", "match (s)",
              "build (s)", "speedup", "pixels/s");
  for (const VariantResult* v : {&naive, &pre, &vec})
    std::printf("  %-22s %12.4f %12.4f %9.2fx %14.0f\n", v->name.c_str(),
                v->match_seconds, v->precompute_seconds,
                naive.match_seconds / v->match_seconds,
                npix / v->match_seconds);
  if (vec.has_vector_report) {
    const core::VectorRunReport& vr = vec.vector_report;
    std::printf(
        "  vector dispatch: %s (%d lanes), lane utilization %.3f "
        "(%lld batched / %lld tail hypotheses)\n",
        vr.level.c_str(), vr.lanes, vr.lane_utilization,
        static_cast<long long>(vr.batched_hypotheses),
        static_cast<long long>(vr.tail_hypotheses));
  }

  // --- Self-check: the fast paths are the same algorithm, not lookalikes.
  const bool identical = imaging::bit_equal(pre.flow, naive.flow);
  std::printf("\n  precompute flow-identical to naive: %s\n",
              identical ? "yes" : "NO — BUG");
  const bool vector_identical = imaging::bit_equal(vec.flow, naive.flow);
  std::printf("  vector flow-identical to naive: %s\n",
              vector_identical ? "yes" : "NO — BUG");

  const int drift_margin =
      cfg.z_search_radius + cfg.z_template_radius + 2;

  // --- Accuracy-vs-speed tradeoff: the pruned search at refine radii
  // 0/1/2 against the exhaustive oracle.  The default radius (1) gates
  // the ISSUE contract: >= 3x fewer hypotheses at (near-)equal winners.
  struct PrunedLeg {
    int radius;
    VariantResult result;
    FlowDrift drift;
  };
  std::vector<PrunedLeg> pruned_legs;
  for (const int radius : {0, 1, 2}) {
    core::SmaConfig cfg_p = cfg;
    cfg_p.search_mode = core::SearchMode::kPruned;
    cfg_p.prune_refine_radius = radius;
    PrunedLeg leg;
    leg.radius = radius;
    leg.result = run_variant("pruned-r" + std::to_string(radius), "vector",
                             in, cfg_p, repeat);
    leg.drift = flow_drift(leg.result.flow, naive.flow, drift_margin);
    pruned_legs.push_back(std::move(leg));
  }
  std::printf("\n  %-12s %12s %10s %8s %8s %10s %10s %10s\n", "pruned",
              "hypotheses", "reduction", "max|du|", "max|dv|", "mismatch",
              "interior", "seed-hit");
  bool pruned_ok = false;
  for (const PrunedLeg& leg : pruned_legs) {
    const core::PruneReport& pr = leg.result.prune;
    const double interior_frac =
        leg.drift.interior_pixels > 0
            ? static_cast<double>(leg.drift.interior_mismatches) /
                  leg.drift.interior_pixels
            : 0.0;
    std::printf(
        "  r=%-10d %12lld %9.2fx %8.3f %8.3f %9.4f%% %9.4f%% %10.3f\n",
        leg.radius, static_cast<long long>(pr.hypotheses_evaluated()),
        pr.reduction(), leg.drift.max_du, leg.drift.max_dv,
        100.0 * leg.drift.mismatches / npix, 100.0 * interior_frac,
        pr.seed_hit_rate());
    // The ISSUE contract is gated on the interior: the clamped-border
    // band is full of near-tied minima whose oracle winner is an
    // arbitrary tie-break, not a meaningful motion estimate.
    if (leg.radius == 1)
      pruned_ok = pr.active != 0 &&
                  pr.reduction() >= 3.0 && interior_frac <= 0.01;
  }
  std::printf("  pruned (r=1) contract — >=3x fewer hypotheses at near-equal "
              "interior winners: %s\n",
              pruned_ok ? "met" : "NO — BUG");

  // --- Self-check: zero-overhead-when-disabled tracing contract.
  const double span_seconds = measure_disabled_span_seconds();
  const std::size_t spans_per_pair = count_spans_per_pair(in, cfg);
  const double overhead_frac =
      static_cast<double>(spans_per_pair) * span_seconds / naive.match_seconds;
  const bool overhead_ok = overhead_frac < 0.02;
  std::printf(
      "  disabled tracing: %.1f ns/span x %zu spans/pair = %.4f%% of naive "
      "match: %s\n",
      span_seconds * 1e9, spans_per_pair, overhead_frac * 100.0,
      overhead_ok ? "under 2%" : "OVER BUDGET — BUG");

  if (!json_path.empty()) {
    bench::JsonReport report;
    bench::add_environment_record(report);
    for (const VariantResult* v : {&naive, &pre, &vec}) {
      bench::JsonRecord& rec = report.add(v->name);
      rec.wall_ms = v->wall_seconds * 1000.0;
      rec.pixels_per_s = npix / v->match_seconds;
      rec.config = cfg.describe();
      rec.backend = v->backend;
      rec.extra("match_ms", v->match_seconds * 1000.0)
          .extra("precompute_build_ms", v->precompute_seconds * 1000.0)
          .extra("speedup_vs_naive", naive.match_seconds / v->match_seconds)
          .extra("speedup_vs_precompute",
                 pre.match_seconds / v->match_seconds)
          .extra("size", size)
          .extra("repeat", repeat);
      if (v->has_vector_report) {
        const core::VectorRunReport& vr = v->vector_report;
        rec.extra("simd_level_id", vr.level_id)
            .extra("simd_lanes", vr.lanes)
            .extra("lane_utilization", vr.lane_utilization)
            .extra("batched_hypotheses",
                   static_cast<double>(vr.batched_hypotheses))
            .extra("tail_hypotheses",
                   static_cast<double>(vr.tail_hypotheses));
      }
    }
    // The accuracy-vs-speed tradeoff curve, one record per refine radius.
    for (const PrunedLeg& leg : pruned_legs) {
      const core::PruneReport& pr = leg.result.prune;
      bench::JsonRecord& rec = report.add(leg.result.name);
      rec.wall_ms = leg.result.wall_seconds * 1000.0;
      rec.pixels_per_s = npix / leg.result.match_seconds;
      rec.config = cfg.describe() + ", search-mode=pruned(levels=1, refine=" +
                   std::to_string(leg.radius) + ")";
      rec.backend = leg.result.backend;
      rec.extra("match_ms", leg.result.match_seconds * 1000.0)
          .extra("speedup_vs_naive",
                 naive.match_seconds / leg.result.match_seconds)
          .extra("speedup_vs_full_vector",
                 vec.match_seconds / leg.result.match_seconds)
          .extra("prune_refine_radius", leg.radius)
          .extra("hypotheses_evaluated",
                 static_cast<double>(pr.hypotheses_evaluated()))
          .extra("full_grid_hypotheses",
                 static_cast<double>(pr.full_grid_hypotheses))
          .extra("hypothesis_reduction", pr.reduction())
          .extra("seed_hit_rate", pr.seed_hit_rate())
          .extra("max_du_vs_full", leg.drift.max_du)
          .extra("max_dv_vs_full", leg.drift.max_dv)
          .extra("mismatch_frac_vs_full", leg.drift.mismatches / npix)
          .extra("interior_mismatch_frac_vs_full",
                 leg.drift.interior_pixels > 0
                     ? static_cast<double>(leg.drift.interior_mismatches) /
                           leg.drift.interior_pixels
                     : 0.0)
          .extra("size", size)
          .extra("repeat", repeat);
    }
    bench::JsonRecord& obs_rec = report.add("disabled_tracing_overhead");
    obs_rec.config = cfg.describe();
    // The span count and naive-match denominator are both measured on
    // the sequential backend.
    obs_rec.backend = "sequential";
    obs_rec.extra("span_ns", span_seconds * 1e9)
        .extra("spans_per_pair", static_cast<double>(spans_per_pair))
        .extra("overhead_frac_vs_naive", overhead_frac);
    report.write(json_path);
  }
  std::printf("\n");
  return identical && vector_identical && overhead_ok && pruned_ok
             ? 0
             : 1;
}
