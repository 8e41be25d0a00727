#include "core/match_vector.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/match_prune.hpp"
#include "sched/tile.hpp"

namespace sma::core {

namespace {

// Why the lane kernels cannot serve this pair, or null when they can.
const char* vector_fallback_name(const MatchInput& in) {
  if (in.mask_before != nullptr || in.mask_after != nullptr) return "masked";
  if (in.precompute == nullptr) return "no-precompute";
  return nullptr;
}

}  // namespace

simd::SimdLevel resolve_kernel_level(simd::SimdLevel request) {
  switch (request) {
    case simd::SimdLevel::kAvx512:
#if defined(SMA_KERNEL_AVX512)
      return simd::SimdLevel::kAvx512;
#else
      [[fallthrough]];
#endif
    case simd::SimdLevel::kAvx2:
#if defined(SMA_KERNEL_AVX2)
      return simd::SimdLevel::kAvx2;
#else
      [[fallthrough]];
#endif
    case simd::SimdLevel::kSse2:
#if defined(SMA_KERNEL_SSE2)
      return simd::SimdLevel::kSse2;
#else
      return simd::SimdLevel::kScalar;
#endif
    case simd::SimdLevel::kNeon:
#if defined(SMA_KERNEL_NEON)
      return simd::SimdLevel::kNeon;
#else
      return simd::SimdLevel::kScalar;
#endif
    case simd::SimdLevel::kScalar:
      break;
  }
  return simd::SimdLevel::kScalar;
}

LaneKernels lane_kernels(simd::SimdLevel level) {
  switch (resolve_kernel_level(level)) {
#if defined(SMA_KERNEL_AVX512)
    case simd::SimdLevel::kAvx512:
      return lane_kernels_avx512();
#endif
#if defined(SMA_KERNEL_AVX2)
    case simd::SimdLevel::kAvx2:
      return lane_kernels_avx2();
#endif
#if defined(SMA_KERNEL_SSE2)
    case simd::SimdLevel::kSse2:
      return lane_kernels_sse2();
#endif
#if defined(SMA_KERNEL_NEON)
    case simd::SimdLevel::kNeon:
      return lane_kernels_neon();
#endif
    default:
      return lane_kernels_scalar();
  }
}

void publish_metrics(const VectorRunReport& report,
                     obs::MetricsRegistry& reg) {
  reg.gauge("vector.level_id").set(static_cast<double>(report.level_id));
  reg.gauge("vector.lanes").set(static_cast<double>(report.lanes));
  reg.gauge("vector.vector_path").set(report.vector_path ? 1.0 : 0.0);
  reg.gauge("vector.batched_hypotheses")
      .set(static_cast<double>(report.batched_hypotheses));
  reg.gauge("vector.tail_hypotheses")
      .set(static_cast<double>(report.tail_hypotheses));
  reg.gauge("vector.batches").set(static_cast<double>(report.batches));
  reg.gauge("vector.lane_utilization").set(report.lane_utilization);
}

namespace {

// The `vector` backend: SIMD lanes over pixels inside work-stealing
// threads over cache-blocked pixel tiles — "threads x lanes".  Its
// segment visit runs the lane-batched sweep for each tile's pixels and
// folds the tile's occupancy tally into a per-tile slot; the slots are
// summed in tile-index order after the stage, so the report (and the
// FlowField, whose per-pixel slots are disjoint by construction) is
// identical at every thread count and steal order.  Configs the tile
// kernel cannot serve visit through the staged tiles on the same pool.
class VectorBackend final : public TrackerBackend {
 public:
  std::string name() const override { return "vector"; }

  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.host_parallel = true;
    return caps;
  }

  TrackResult match(const MatchInput& in, const SmaConfig& config,
                    const TrackOptions& options) const override {
    auto extras = std::make_shared<VectorBackendExtras>();
    VectorRunReport& report = extras->report;
    const simd::SimdLevel level =
        resolve_kernel_level(simd::active_level());
    const LaneKernels kernels = lane_kernels(level);
    report.level = simd::level_name(level);
    report.level_id = static_cast<int>(level);
    report.lanes = kernels.lanes;

    const char* fallback = vector_fallback_name(in);
    // The tile kernel puts one center per lane: autotuned tiles round up
    // to whole batches so only a frame's right-edge tiles idle lanes, and
    // under full search grow with the template halo the kernel builds.
    const std::vector<sched::Tile> tiles = pixel_tiles(
        in.width(), in.height(), config, /*parallel=*/true, kernels.lanes);
    // Per-tile tally slots folded in tile-index order after the stage —
    // deterministic regardless of which worker ran which tile.
    std::vector<VectorLaneTally> tallies(tiles.size());
    const auto visit = [&](const MatchSegment& seg) {
      if (fallback != nullptr) {
        scan_segment(in, config, /*parallel=*/true, seg);
        return;
      }
      const int w = in.width();
      run_pixel_tiles(
          tiles, /*parallel=*/true,
          [&](const sched::Tile& tile, std::size_t index) {
            VectorTileArgs args;
            args.pre = seg.pre;
            args.after = in.after;
            args.table = seg.table;
            args.windows = seg.windows;
            args.probes = seg.probes;
            args.x0 = tile.x0;
            args.y0 = tile.y0;
            args.x1 = tile.x1;
            args.y1 = tile.y1;
            args.rx = config.z_template_radius;
            args.ry = config.z_template_ry();
            args.hx_min = -config.z_search_radius;
            args.hx_max = config.z_search_radius;
            args.hy_min = seg.hy_min;
            args.hy_max = seg.hy_max;
            if (seg.windows != nullptr) {
              // Pruned search: sweep the union of the tile's windows
              // inside the segment; each lane admits only its own.
              PruneWindow u =
                  seg.windows[static_cast<std::size_t>(tile.y0) * w +
                              tile.x0];
              for (int y = tile.y0; y < tile.y1; ++y)
                for (int x = tile.x0; x < tile.x1; ++x) {
                  const PruneWindow& pw =
                      seg.windows[static_cast<std::size_t>(y) * w + x];
                  u.hx_min = std::min(u.hx_min, pw.hx_min);
                  u.hx_max = std::max(u.hx_max, pw.hx_max);
                  u.hy_min = std::min(u.hy_min, pw.hy_min);
                  u.hy_max = std::max(u.hy_max, pw.hy_max);
                }
              args.hx_min = u.hx_min;
              args.hx_max = u.hx_max;
              args.hy_min = std::max(args.hy_min, u.hy_min);
              args.hy_max = std::min(args.hy_max, u.hy_max);
              // No window of the tile reaches into this segment.
              if (args.hy_min > args.hy_max) return;
            }
            kernels.tile(args, seg.best, tallies[index]);
          });
    };
    TrackResult result = run_matching_stage(in, config, options,
                                            /*parallel=*/true, visit, extras);
    report.vector_path = fallback == nullptr;
    if (fallback != nullptr) report.fallback = fallback;
    for (const VectorLaneTally& tally : tallies) {
      report.batched_hypotheses += tally.batched_hypotheses;
      report.tail_hypotheses += tally.tail_hypotheses;
      report.batches += tally.batches;
    }
    const std::uint64_t total =
        report.batched_hypotheses + report.tail_hypotheses;
    report.lane_utilization =
        total > 0 ? static_cast<double>(report.batched_hypotheses) /
                        static_cast<double>(total)
                  : 0.0;
    return result;
  }
};

}  // namespace

std::unique_ptr<TrackerBackend> make_vector_backend() {
  return std::make_unique<VectorBackend>();
}

}  // namespace sma::core
