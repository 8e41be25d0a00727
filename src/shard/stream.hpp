// stream.hpp — out-of-core tile sources for the shard runner.
//
// The paper's flagship run streams 490 GOES-9 frames through the MPDA
// disk arrays because the sequence does not fit in memory (Sec. 3.1).
// This layer applies the same discipline WITHIN a frame pair: a 4k x 4k
// GOES full-disk pair is ~128 MB of floats before any derived plane, so
// the shard runner never asks for whole frames — it asks a TileSource
// for the padded crop window of the tile it is about to track.
//
// TiledFrameStream is the out-of-core implementation: pixel data lives
// in PGM/PFM files on disk, read on demand through the windowed raster
// readers (imaging/io.hpp) at BLOCK granularity — one block per core
// tile of the plan, per frame — with an LRU byte-budget cache.  A crop
// window is assembled from the blocks it intersects, so the halo pixels
// a tile shares with its neighbors are served from blocks the neighbor
// already paid to load: cache hits are the in-process analogue of a
// halo exchange.  Every block read advances the modeled MPDA I/O clock
// at the arrays' effective bandwidth (maspar/pdisk.hpp); a short read of
// the file throws.
//
// Resident accounting: resident = cached block bytes + the working crop
// bytes the runner notes while a tile is in flight.  The high-water
// mark is the number the max_resident_mb budget bounds; the per-tile
// derived planes (geometry, precompute) are proportional to one crop
// and are documented — not gauged — as part of the planner's margin.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>

#include "imaging/image.hpp"
#include "imaging/io.hpp"
#include "maspar/pdisk.hpp"
#include "shard/plan.hpp"

namespace sma::shard {

/// Windowed access to the two frames of a pair.  `frame` is 0 for the
/// before frame, 1 for the after frame; the window must lie inside the
/// frame.  Implementations must return values bit-identical to the same
/// crop of the whole frame — the stitching invariant rests on it.
class TileSource {
 public:
  virtual ~TileSource() = default;

  virtual int width() const = 0;
  virtual int height() const = 0;
  virtual imaging::ImageF window(int frame, int x0, int y0, int w, int h) = 0;

  /// Bytes one pixel occupies in the BACKING store (modeled I/O and the
  /// cost model's byte accounting); the in-memory crops are floats.
  virtual int bytes_per_pixel() const { return sizeof(float); }

  /// The runner reports the crop bytes of the tile in flight so the
  /// stream can fold them into its resident gauge.  No-op by default.
  virtual void note_working_bytes(std::size_t) {}
};

/// Both frames already in memory — the zero-cost source used when the
/// caller holds the images anyway (tests, the CLI's in-memory path).
class InMemoryTileSource : public TileSource {
 public:
  InMemoryTileSource(const imaging::ImageF& before,
                     const imaging::ImageF& after);

  int width() const override { return before_->width(); }
  int height() const override { return before_->height(); }
  imaging::ImageF window(int frame, int x0, int y0, int w, int h) override;

 private:
  const imaging::ImageF* before_;
  const imaging::ImageF* after_;
};

/// Counters of one TiledFrameStream's life.  POD of uint64/double so the
/// shard metrics exporter can mirror every field.
struct ShardStreamStats {
  std::uint64_t block_reads = 0;   ///< blocks loaded from disk
  std::uint64_t cache_hits = 0;    ///< block lookups served from cache
  std::uint64_t cache_misses = 0;  ///< == block_reads (kept for symmetry)
  std::uint64_t bytes_read = 0;    ///< backing-store bytes streamed
  std::uint64_t resident_bytes = 0;       ///< current cache + working
  std::uint64_t resident_high_water = 0;  ///< max resident ever seen
  double io_seconds = 0.0;         ///< modeled MPDA streaming time
};

/// Out-of-core tile source over two raster files (see header comment).
class TiledFrameStream : public TileSource {
 public:
  /// Sniffs both headers and validates they match `plan`'s dimensions.
  /// `budget_bytes` bounds cached blocks + noted working bytes (0 =
  /// unlimited); eviction is LRU but never drops the block loaded most
  /// recently, so a budget >= one working set always makes progress.
  TiledFrameStream(const std::string& before_path,
                   const std::string& after_path, const ShardPlan& plan,
                   maspar::MpdaSpec spec = {}, std::size_t budget_bytes = 0);

  int width() const override { return plan_.width; }
  int height() const override { return plan_.height; }
  imaging::ImageF window(int frame, int x0, int y0, int w, int h) override;
  int bytes_per_pixel() const override;
  void note_working_bytes(std::size_t bytes) override;

  const ShardStreamStats& stats() const { return stats_; }

 private:
  const imaging::ImageF& block(int frame, int tile_index);
  void evict_to_budget();
  void bump_resident();

  ShardPlan plan_;
  std::string paths_[2];
  imaging::RasterHeader headers_[2];
  maspar::MpdaSpec spec_;
  std::size_t budget_bytes_;
  std::size_t working_bytes_ = 0;
  std::size_t cache_bytes_ = 0;

  struct CacheEntry {
    imaging::ImageF pixels;
    std::list<std::int64_t>::iterator lru_pos;
  };
  std::list<std::int64_t> lru_;  ///< most recent at front
  std::map<std::int64_t, CacheEntry> cache_;

  ShardStreamStats stats_;
};

}  // namespace sma::shard
