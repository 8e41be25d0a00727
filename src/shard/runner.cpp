#include "shard/runner.hpp"

#include <chrono>
#include <utility>

#include "core/match_prune.hpp"
#include "core/pipeline.hpp"
#include "core/postprocess.hpp"

namespace sma::shard {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Crop-window slice of a whole-frame seed field.  The coarse pass is a
/// whole-frame product; each tile sees exactly the rows/columns its crop
/// covers, with the full-frame coarse_hypotheses count carried so the
/// per-tile PruneReports stay meaningful.
core::PruneSeeds slice_seeds(const core::PruneSeeds& full, const Tile& t) {
  core::PruneSeeds out;
  out.width = t.crop_width();
  out.height = t.crop_height();
  out.coarse_hypotheses = full.coarse_hypotheses;
  const std::size_t n =
      static_cast<std::size_t>(out.width) * static_cast<std::size_t>(out.height);
  out.sx.resize(n);
  out.sy.resize(n);
  out.ok.resize(n);
  for (int y = 0; y < out.height; ++y) {
    const std::size_t src =
        static_cast<std::size_t>(t.cy0 + y) * full.width + t.cx0;
    const std::size_t dst = static_cast<std::size_t>(y) * out.width;
    for (int x = 0; x < out.width; ++x) {
      out.sx[dst + x] = full.sx[src + x];
      out.sy[dst + x] = full.sy[src + x];
      out.ok[dst + x] = full.ok[src + x];
    }
  }
  return out;
}

}  // namespace

ShardResult shard_track_pair(TileSource& source,
                             const core::SmaConfig& config,
                             const ShardOptions& options) {
  // One pipeline per call runs every tile's fit -> geometry ->
  // precompute -> match.  Robust post-processing stays off here: it runs
  // once on the stitched field below.
  core::PipelineOptions popts;
  popts.backend = options.backend;
  popts.track = options.track;
  core::SmaPipeline pipeline(config, std::move(popts));
  const int w = source.width();
  const int h = source.height();
  const ShardPlan plan =
      make_plan(w, h, options.spec, config, options.track.subpixel);
  const std::uint64_t bpp =
      static_cast<std::uint64_t>(source.bytes_per_pixel());

  ShardResult result;
  ShardReport& report = result.report;
  report.rows = plan.spec.rows;
  report.cols = plan.spec.cols;
  report.halo = plan.halo;
  report.tiles = static_cast<int>(plan.tiles.size());

  // Pruned mode: the coarse seeding pyramid is computed ONCE on the full
  // frames and sliced per tile (see the header), on the pool only when
  // the tiles' backend uses it.  This is the one place the runner
  // touches whole frames; the pass streams them through the source and
  // releases them before any tile is tracked.
  core::PruneSeeds full_seeds;
  const bool inject_seeds = config.search_mode == core::SearchMode::kPruned;
  if (inject_seeds) {
    const imaging::ImageF before = source.window(0, 0, 0, w, h);
    const imaging::ImageF after = source.window(1, 0, 0, w, h);
    full_seeds = core::compute_prune_seeds(
        before, after, config, pipeline.backend().capabilities().host_parallel);
  }

  result.flow = imaging::FlowField(w, h);
  for (const Tile& t : plan.tiles) {
    const std::size_t crop_float_bytes =
        2 * static_cast<std::size_t>(t.crop_width()) *
        static_cast<std::size_t>(t.crop_height()) * sizeof(float);
    source.note_working_bytes(crop_float_bytes);

    const auto read0 = std::chrono::steady_clock::now();
    const imaging::ImageF before =
        source.window(0, t.cx0, t.cy0, t.crop_width(), t.crop_height());
    const imaging::ImageF after =
        source.window(1, t.cx0, t.cy0, t.crop_width(), t.crop_height());
    const double read_s = seconds_since(read0);

    core::TrackerInput tin;
    tin.intensity_before = tin.surface_before = &before;
    tin.intensity_after = tin.surface_after = &after;
    core::PruneSeeds tile_seeds;
    if (inject_seeds) {
      tile_seeds = slice_seeds(full_seeds, t);
      tin.prune_seeds = &tile_seeds;
    }

    const auto t0 = std::chrono::steady_clock::now();
    core::TrackResult tr = pipeline.track_pair(tin);
    // No other tile has this tile's pixels, so its cached geometry and
    // pixel copies would only hold memory past the stitch.
    pipeline.clear_cache();
    const double compute_s = seconds_since(t0);

    // Stitch: core pixels only, all five planes (u, v, error, valid,
    // confidence) — halo results are the redundant compute discarded.
    for (int y = t.y0; y < t.y1; ++y)
      for (int x = t.x0; x < t.x1; ++x)
        result.flow.set(x, y, tr.flow.at(x - t.cx0, y - t.cy0));

    TileSpan span;
    span.tile_index = t.index;
    span.row = t.row;
    span.col = t.col;
    span.compute_seconds = compute_s;
    span.read_seconds = read_s;
    span.core_bytes = 2 * static_cast<std::uint64_t>(t.core_width()) *
                      static_cast<std::uint64_t>(t.core_height()) * bpp;
    span.halo_bytes = 2 * static_cast<std::uint64_t>(t.crop_width()) *
                          static_cast<std::uint64_t>(t.crop_height()) * bpp -
                      span.core_bytes;
    report.core_bytes += span.core_bytes;
    report.halo_bytes += span.halo_bytes;
    report.compute_seconds += compute_s;
    report.read_seconds += read_s;
    report.spans.push_back(span);
  }
  source.note_working_bytes(0);

  // The pipeline's robust stage runs once on the whole field
  // (pipeline.cpp); running it per tile would read across core edges.
  if (options.robust) result.flow = core::robust_postprocess(result.flow);

  if (auto* stream = dynamic_cast<TiledFrameStream*>(&source))
    report.stream = stream->stats();
  return result;
}

void publish_metrics(const ShardReport& report,
                     obs::MetricsRegistry& registry) {
  const auto gauge = [&](const char* name, double v) {
    registry.gauge(name).set(v);
  };
  gauge("shard.rows", report.rows);
  gauge("shard.cols", report.cols);
  gauge("shard.tiles", report.tiles);
  gauge("shard.halo_x", report.halo.x);
  gauge("shard.halo_y", report.halo.y);
  gauge("shard.core_bytes", static_cast<double>(report.core_bytes));
  gauge("shard.halo_bytes", static_cast<double>(report.halo_bytes));
  gauge("shard.compute_seconds", report.compute_seconds);
  gauge("shard.read_seconds", report.read_seconds);
  gauge("shard.stream.block_reads",
        static_cast<double>(report.stream.block_reads));
  gauge("shard.stream.cache_hits",
        static_cast<double>(report.stream.cache_hits));
  gauge("shard.stream.cache_misses",
        static_cast<double>(report.stream.cache_misses));
  gauge("shard.stream.bytes_read",
        static_cast<double>(report.stream.bytes_read));
  gauge("shard.stream.resident_high_water",
        static_cast<double>(report.stream.resident_high_water));
  gauge("shard.stream.io_seconds", report.stream.io_seconds);
}

}  // namespace sma::shard
