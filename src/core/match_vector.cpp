#include "core/match_vector.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/match_precompute.hpp"
#include "core/match_prune.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

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
      return {8, &scan_tile_avx512, &scan_pixel_avx512, &batch_solve6_avx512};
#endif
#if defined(SMA_KERNEL_AVX2)
    case simd::SimdLevel::kAvx2:
      return {4, &scan_tile_avx2, &scan_pixel_avx2, &batch_solve6_avx2};
#endif
#if defined(SMA_KERNEL_SSE2)
    case simd::SimdLevel::kSse2:
      return {2, &scan_tile_sse2, &scan_pixel_sse2, &batch_solve6_sse2};
#endif
#if defined(SMA_KERNEL_NEON)
    case simd::SimdLevel::kNeon:
      return {2, &scan_tile_neon, &scan_pixel_neon, &batch_solve6_neon};
#endif
    default:  // simd::LaneTraits<ScalarTag>::kLanes == 2
      return {2, &scan_tile_scalar, &scan_pixel_scalar, &batch_solve6_scalar};
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

// The `vector` backend: SIMD lanes over pixels (full search) or over one
// pixel's hypotheses (pruned search) inside work-stealing threads over
// cache-blocked pixel tiles — "threads x lanes".  Each tile runs the
// lane-batched sweep for its pixels and folds its occupancy tally into a
// per-tile slot; the slots are summed in tile-index order after the
// batch, so the report (and the FlowField, whose per-pixel slots are
// disjoint by construction) is identical at every thread count and steal
// order.
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

    const char* const fallback =
        vector_fallback_name(resolve_precompute(config, in), in);
    // Pruned-mode eligibility is resolved once here: the vector sweep
    // prunes in-kernel when eligible; otherwise the reason is recorded
    // and the search runs exactly as in full mode.
    const PruneFallback prune_fb = resolve_prune(config, in);
    extras->prune.fallback_reason = static_cast<std::uint64_t>(prune_fb);
    std::vector<PixelBest> best;
    if (fallback == nullptr) {
      extras->report.vector_path = true;
      best = run_vector_search(
          in, config, level, result.timings, result.peak_mapping_bytes,
          extras->report,
          prune_fb == PruneFallback::kNone ? &extras->prune : nullptr);
    } else {
      // Fall back to the shared staged path (bit-identical to the host
      // backends by construction): masked / stride / precompute-off
      // configs and pairs without precompute planes.  The staged path
      // applies its own pruned-mode gate and records into the same
      // report.
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
  static std::vector<PixelBest> run_vector_search(const MatchInput& in,
                                                  const SmaConfig& config,
                                                  simd::SimdLevel level,
                                                  TrackTimings& timings,
                                                  std::size_t& peak_mapping_bytes,
                                                  VectorRunReport& report,
                                                  PruneReport* prune) {
    const int w = in.width();
    const int h = in.height();
    const int nzt_x = config.z_template_radius;
    const int nzt_y = config.z_template_ry();
    const int nzs_x = config.z_search_radius;
    const int nzs_y = config.z_search_ry();
    const int refine_radius = config.prune_refine_radius;
    const MatchPrecompute* const pre = in.precompute;
    const LaneKernels kernels = lane_kernels(level);
    // Branch-and-bound checkpoint only with a prefix to checkpoint at.
    const bool bound_on =
        prune != nullptr && config.prune_bound && nzt_y >= 1;

    std::vector<PixelBest> best(static_cast<std::size_t>(w) * h);

    // An injected seed slice (shard runner) replaces the coarse pass —
    // same contract as run_pruned_search.
    if (in.prune_seeds != nullptr &&
        (in.prune_seeds->width != w || in.prune_seeds->height != h))
      throw std::invalid_argument(
          "MatchInput::prune_seeds dimensions do not match the frames");
    PruneSeeds local_seeds;
    if (prune != nullptr && in.prune_seeds == nullptr)
      local_seeds =
          compute_prune_seeds(*in.raw_before, *in.raw_after, config);
    const PruneSeeds& seeds =
        in.prune_seeds != nullptr ? *in.prune_seeds : local_seeds;

    sched::ThreadPool& pool = sched::ThreadPool::shared();
    const int executors =
        std::max(1, config.threads > 0 ? std::min(config.threads,
                                                  std::max(pool.threads(), 1))
                                       : std::max(pool.threads(), 1));
    sched::TileShape shape;
    if (config.tile_width > 0 || config.tile_height > 0) {
      shape.width = config.tile_width > 0 ? config.tile_width : 32;
      shape.height = config.tile_height > 0 ? config.tile_height : 32;
    } else {
      shape = sched::choose_tile_shape(w, h, executors);
      // The tile kernel puts one center per lane: round autotuned tiles
      // up to whole batches so only a frame's right-edge tiles idle lanes.
      if (prune == nullptr) {
        const int n = kernels.lanes;
        shape.width = std::min(w, (shape.width + n - 1) / n * n);
      }
    }
    const std::vector<sched::Tile> tiles = sched::make_tiles(w, h, shape);

    // Per-tile tally slots folded in tile-index order after the batch —
    // deterministic regardless of which worker ran which tile.  The
    // pruned window/seed accounting gets its own per-tile slots.
    struct PruneTileTally {
      std::uint64_t scheduled = 0;
      std::uint64_t window_pixels = 0, fallback_pixels = 0;
      std::uint64_t seed_interior = 0;
    };
    std::vector<VectorLaneTally> tallies(tiles.size());
    std::vector<PruneTileTally> prune_tallies(
        prune != nullptr ? tiles.size() : 0);

    // One pool sweep over hypothesis rows [hy_min, hy_max].
    const auto sweep = [&](int hy_min, int hy_max,
                           const SemiFluidTable* table) {
      obs::TraceSpan span("match", "hypothesis_search");
      const auto t0 = Clock::now();
      pool.run(
          tiles,
          [&](const sched::Tile& tile, std::size_t index) {
            VectorLaneTally& tally = tallies[index];
            if (prune == nullptr) {
              VectorTileArgs args;
              args.pre = pre;
              args.after = in.after;
              args.table = table;
              args.x0 = tile.x0;
              args.y0 = tile.y0;
              args.x1 = tile.x1;
              args.y1 = tile.y1;
              args.rx = nzt_x;
              args.ry = nzt_y;
              args.hx_min = -nzs_x;
              args.hx_max = nzs_x;
              args.hy_min = hy_min;
              args.hy_max = hy_max;
              kernels.tile(args, best.data(), tally);
              return;
            }
            PruneTileTally& pt = prune_tallies[index];
            for (int y = tile.y0; y < tile.y1; ++y) {
              for (int x = tile.x0; x < tile.x1; ++x) {
                WindowInvariants win;
                pre->accumulate_window(x, y, nzt_x, nzt_y, win);
                const PruneWindow pw =
                    prune_window(seeds, x, y, nzs_x, nzs_y, refine_radius);
                VectorKernelArgs args;
                args.pre = pre;
                args.after = in.after;
                args.win = &win;
                args.x = x;
                args.y = y;
                args.rx = nzt_x;
                args.ry = nzt_y;
                args.hx_min = pw.hx_min;
                args.hx_max = pw.hx_max;
                args.hy_min = pw.hy_min;
                args.hy_max = pw.hy_max;
                pt.scheduled +=
                    static_cast<std::uint64_t>(pw.hx_max - pw.hx_min + 1) *
                    (pw.hy_max - pw.hy_min + 1);
                if (pw.shrunk)
                  ++pt.window_pixels;
                else
                  ++pt.fallback_pixels;
                WindowInvariants winp;
                if (bound_on) {
                  pre->accumulate_window_span(x, y, nzt_x, -nzt_y, -1, winp);
                  args.win_prefix = &winp;
                }
                PixelBest& b = best[static_cast<std::size_t>(y) * w + x];
                kernels.pixel(args, b, tally);
                if (pw.shrunk && b.any_ok &&
                    prune_winner_interior(pw, nzs_x, nzs_y, b.hx, b.hy))
                  ++pt.seed_interior;
              }
            }
          },
          config.threads);
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

    std::uint64_t batched = 0, tail = 0, batches = 0;
    for (const VectorLaneTally& tally : tallies) {
      batched += tally.batched_hypotheses;
      tail += tally.tail_hypotheses;
      batches += tally.batches;
    }
    report.batched_hypotheses = batched;
    report.tail_hypotheses = tail;
    report.batches = batches;
    const std::uint64_t total = batched + tail;
    report.lane_utilization =
        total > 0 ? static_cast<double>(batched) / static_cast<double>(total)
                  : 0.0;
    if (prune != nullptr) {
      prune->active = 1;
      prune->fallback_reason =
          static_cast<std::uint64_t>(PruneFallback::kNone);
      prune->full_grid_hypotheses =
          static_cast<std::uint64_t>(w) * h *
          (static_cast<std::uint64_t>(2 * nzs_x + 1) * (2 * nzs_y + 1));
      prune->coarse_hypotheses = seeds.coarse_hypotheses;
      for (const PruneTileTally& pt : prune_tallies) {
        prune->fine_scheduled += pt.scheduled;
        prune->window_pixels += pt.window_pixels;
        prune->fallback_pixels += pt.fallback_pixels;
        prune->seed_interior += pt.seed_interior;
      }
      for (const VectorLaneTally& tally : tallies) {
        prune->bound_checks += tally.bound_checks;
        prune->bound_skipped += tally.bound_skipped;
        prune->bound_tightness_sum += tally.bound_tightness_sum;
      }
      prune->fine_evaluated = prune->fine_scheduled - prune->bound_skipped;
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<TrackerBackend> make_vector_backend() {
  return std::make_unique<VectorBackend>();
}

}  // namespace sma::core
