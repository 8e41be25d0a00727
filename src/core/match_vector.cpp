#include "core/match_vector.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "core/match_precompute.hpp"
#include "core/match_prune.hpp"
#include "obs/trace.hpp"
#include "sched/tile.hpp"

namespace sma::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Why the lane kernels cannot serve this pair, or null when they can.
const char* vector_fallback_name(PrecomputeDecision d, const MatchInput& in) {
  switch (d) {
    case PrecomputeDecision::kDisabled:
      return "precompute-off";
    case PrecomputeDecision::kMasked:
      return "masked";
    case PrecomputeDecision::kStride:
      return "stride";
    case PrecomputeDecision::kFast:
      break;
  }
  // Eligible, but the caller attached no planes.
  if (in.precompute == nullptr)
    return prune_fallback_name(PruneFallback::kNoPrecompute);
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
      return {8, &scan_tile_avx512, &batch_solve6_avx512};
#endif
#if defined(SMA_KERNEL_AVX2)
    case simd::SimdLevel::kAvx2:
      return {4, &scan_tile_avx2, &batch_solve6_avx2};
#endif
#if defined(SMA_KERNEL_SSE2)
    case simd::SimdLevel::kSse2:
      return {2, &scan_tile_sse2, &batch_solve6_sse2};
#endif
#if defined(SMA_KERNEL_NEON)
    case simd::SimdLevel::kNeon:
      return {2, &scan_tile_neon, &batch_solve6_neon};
#endif
    default:  // simd::LaneTraits<ScalarTag>::kLanes == 2
      return {2, &scan_tile_scalar, &batch_solve6_scalar};
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
// threads over cache-blocked pixel tiles — "threads x lanes".  Each tile
// runs the lane-batched sweep for its pixels and folds its occupancy
// tally into a per-tile slot; the slots are summed in tile-index order
// after the batch, so the report (and the FlowField, whose per-pixel
// slots are disjoint by construction) is identical at every thread count
// and steal order.  Configs the tile kernel cannot serve run the shared
// staged path on the same pool.
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
    TrackResult result;
    auto extras = std::make_shared<VectorBackendExtras>();
    const simd::SimdLevel level =
        resolve_kernel_level(simd::active_level());
    extras->report.level = simd::level_name(level);
    extras->report.level_id = static_cast<int>(level);
    extras->report.lanes = lane_kernels(level).lanes;

    // An engaged pruned search runs the shared pruned pass; any other
    // pruned-mode reason is recorded and the search runs as in full mode.
    const PruneFallback prune_fb = resolve_prune(config, in);
    extras->prune.fallback_reason = static_cast<std::uint64_t>(prune_fb);
    const char* const fallback =
        prune_fb == PruneFallback::kNone
            ? "pruned"
            : vector_fallback_name(resolve_precompute(config, in), in);
    std::vector<PixelBest> best;
    if (fallback == nullptr) {
      extras->report.vector_path = true;
      best = run_vector_search(in, config, level, result.timings,
                               result.peak_mapping_bytes, extras->report);
    } else {
      // The shared staged path on the pool (bit-identical to the tile
      // kernel by construction): pruned search, masked / stride /
      // precompute-off configs and pairs without precompute planes.
      extras->report.fallback = fallback;
      best = run_hypothesis_search(
          in, config, /*parallel=*/true, result.timings,
          result.peak_mapping_bytes,
          config.search_mode == SearchMode::kPruned ? &extras->prune
                                                    : nullptr);
    }
    if (options.subpixel)
      refine_subpixel(in, config, /*parallel=*/true, best, result.timings);
    collect_track_result(in, config, options, best, result);
    result.timings.total = result.timings.match_precompute +
                           result.timings.semifluid_mapping +
                           result.timings.hypothesis_matching;
    result.extras = std::move(extras);
    return result;
  }

 private:
  static std::vector<PixelBest> run_vector_search(
      const MatchInput& in, const SmaConfig& config, simd::SimdLevel level,
      TrackTimings& timings, std::size_t& peak_mapping_bytes,
      VectorRunReport& report) {
    const int w = in.width();
    const int h = in.height();
    const int nzs_y = config.z_search_ry();
    const LaneKernels kernels = lane_kernels(level);

    std::vector<PixelBest> best(static_cast<std::size_t>(w) * h);
    // The tile kernel puts one center per lane: autotuned tiles round up
    // to whole batches so only a frame's right-edge tiles idle lanes.
    const std::vector<sched::Tile> tiles =
        pixel_tiles(w, h, config, /*parallel=*/true, kernels.lanes);
    // Per-tile tally slots folded in tile-index order after the batch —
    // deterministic regardless of which worker ran which tile.
    std::vector<VectorLaneTally> tallies(tiles.size());

    // One pool sweep over hypothesis rows [hy_min, hy_max].
    const auto sweep = [&](int hy_min, int hy_max,
                           const SemiFluidTable* table) {
      obs::TraceSpan span("match", "hypothesis_search");
      const auto t0 = Clock::now();
      run_pixel_tiles(
          tiles, config, /*parallel=*/true,
          [&](const sched::Tile& tile, std::size_t index) {
            VectorTileArgs args;
            args.pre = in.precompute;
            args.after = in.after;
            args.table = table;
            args.x0 = tile.x0;
            args.y0 = tile.y0;
            args.x1 = tile.x1;
            args.y1 = tile.y1;
            args.rx = config.z_template_radius;
            args.ry = config.z_template_ry();
            args.hx_min = -config.z_search_radius;
            args.hx_max = config.z_search_radius;
            args.hy_min = hy_min;
            args.hy_max = hy_max;
            kernels.tile(args, best.data(), tallies[index]);
          });
      timings.hypothesis_matching += seconds_since(t0);
    };

    // F_semi sweeps one hypothesis-row segment (Sec. 4.3) at a time, each
    // behind its own correspondence table; F_cont sweeps the whole search
    // in one pass.  The table build is the "semi-fluid mapping" phase and
    // stays outside the matching timer.
    if (config.model == MotionModel::kSemiFluid &&
        config.semifluid_search_radius > 0) {
      const int zseg = config.effective_segment_rows();
      for (int hy_min = -nzs_y; hy_min <= nzs_y; hy_min += zseg) {
        const int hy_max = std::min(hy_min + zseg - 1, nzs_y);
        const std::optional<SemiFluidTable> table = build_semifluid_table(
            in, config, /*fast_path=*/true, hy_min, hy_max, timings,
            peak_mapping_bytes);
        sweep(hy_min, hy_max, table ? &*table : nullptr);
      }
    } else {
      sweep(-nzs_y, nzs_y, nullptr);
    }

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
    return best;
  }
};

}  // namespace

std::unique_ptr<TrackerBackend> make_vector_backend() {
  return std::make_unique<VectorBackend>();
}

}  // namespace sma::core
