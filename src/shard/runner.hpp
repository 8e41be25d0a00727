// runner.hpp — the shard runner: track a frame pair tile by tile and
// stitch a whole-frame flow field, bit-identical to the unsharded run.
//
// Contract (the Sec. 5.1 bit-identity contract, lifted from backends to
// decompositions): for every registered backend B and every tile grid,
//
//   stitch(track(crop_t))  ==  track(whole frame)   for all planes,
//
// where track() is SmaPipeline::track_pair on backend B — the runner
// builds one pipeline per call and tracks every tile through it —
// because (a) every backend is bit-identical to "sequential" per tile,
// (b) the halo (plan.hpp) covers every pixel the staged kernels read
// while computing a core pixel, and (c) a crop edge is either >= halo
// away from every core pixel's read set or coincides with a true image
// edge, where the whole-frame run clamps identically.
//
// Pruned search mode: the coarse seeding pyramid is a WHOLE-FRAME
// product (its decimation grid and upsample ratios depend on the frame
// dimensions), so the runner computes PruneSeeds once on the full
// frames and hands each tile its crop through TrackerInput::prune_seeds
// — per-tile recomputation could not be bit-identical.  Seeds only
// matter at core pixels; halo results are discarded at stitch time.
//
// Every config runs tiled.  Validity masks are not supported through a
// TileSource (no mask channel); robust post-processing runs ONCE on the
// stitched field, exactly where the pipeline runs it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/tracker.hpp"
#include "imaging/flow.hpp"
#include "obs/metrics.hpp"
#include "shard/plan.hpp"
#include "shard/stream.hpp"

namespace sma::shard {

struct ShardOptions {
  ShardSpec spec;
  std::string backend = "sequential";  ///< BackendRegistry name, per tile
  core::TrackOptions track;
  /// Run core::robust_postprocess (default parameters) on the STITCHED
  /// field — the same single whole-frame pass SmaPipeline applies.
  bool robust = false;
};

/// Measured per-tile execution record — the replay input of the cost
/// model (costmodel.hpp).
struct TileSpan {
  int tile_index = 0;
  int row = 0, col = 0;
  double compute_seconds = 0.0;    ///< wall time of the tile's track_pair()
  double read_seconds = 0.0;       ///< wall time of the crop windows
  std::uint64_t core_bytes = 0;    ///< backing-store bytes, both frames
  std::uint64_t halo_bytes = 0;    ///< crop bytes beyond the core
};

/// What one sharded run did.  POD-ish aggregate mirrored into the
/// metrics registry by publish_metrics under "shard.*".
struct ShardReport {
  int rows = 0, cols = 0, tiles = 0;
  HaloRadii halo;
  std::uint64_t core_bytes = 0;
  std::uint64_t halo_bytes = 0;
  double compute_seconds = 0.0;  ///< summed per-tile track_pair() wall time
  double read_seconds = 0.0;     ///< summed crop-window wall time
  ShardStreamStats stream;       ///< zero for non-streaming sources
  std::vector<TileSpan> spans;
};

struct ShardResult {
  imaging::FlowField flow;
  ShardReport report;
};

/// Tracks the pair served by `source` tile by tile (monocular: the crop
/// doubles as intensity and surface, exactly like the two-image
/// SmaPipeline::track_pair) and stitches the whole-frame field.  Throws
/// std::invalid_argument on bad grids, unknown backends, or a
/// max_resident_mb budget too small for one padded tile (make_plan).
ShardResult shard_track_pair(TileSource& source,
                             const core::SmaConfig& config,
                             const ShardOptions& options);

/// Mirrors a ShardReport into `registry` under the "shard.*" gauges
/// (shard.tiles, shard.halo_x, shard.cache_hits, ...).
void publish_metrics(const ShardReport& report,
                     obs::MetricsRegistry& registry);

}  // namespace sma::shard
