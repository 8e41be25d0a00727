// tile.hpp — cache-blocked 2-D pixel tiles, the unit of work the
// scheduler deals in.
//
// The paper segments hypothesis rows into Z-row chunks so each chunk's
// template-mapping data fits a PE's 64 KB (Sec. 4.3); the modern
// analogue is blocking the PIXEL plane into tiles sized so one tile's
// working set stays cache-resident while a thread sweeps every
// hypothesis of every pixel in it.  Tiles partition the image exactly
// (no halo is needed for the matching stages: each pixel's template
// reads are pure loads from shared immutable planes, and each tile
// WRITES only its own pixels' results — the disjoint-writes property
// the determinism argument in DESIGN.md §15 rests on).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sma::sched {

/// Half-open pixel rectangle: x in [x0, x1), y in [y0, y1).
struct Tile {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  int width() const { return x1 - x0; }
  int height() const { return y1 - y0; }
  std::size_t pixels() const {
    return static_cast<std::size_t>(width()) * static_cast<std::size_t>(height());
  }
  bool operator==(const Tile&) const = default;
};

struct TileShape {
  int width = 0;
  int height = 0;
};

/// Tile-size heuristic (the "autotuned" default; SmaConfig::tile_width /
/// tile_height override it).  Two pressures balance:
///  * granularity — at least ~6 tiles per executor so stealing has
///    imbalance to redistribute (per-pixel cost varies with border
///    clamping and semi-fluid remaps);
///  * amortization — each tile large enough that per-tile scheduling
///    overhead (a few atomic increments and decrements) is noise
///    against the hypothesis sweep, which costs >> 1 us per pixel.
/// Starting from 32x32 the larger side is halved until the tile count
/// reaches the granularity target (or the tile hits 4x4).
TileShape choose_tile_shape(int width, int height, int executors);

/// Exact partition of [0,w) x [0,h) into row-major tiles of `shape`
/// (edge tiles are clipped).  Every pixel lands in exactly one tile.
std::vector<Tile> make_tiles(int width, int height, TileShape shape);

inline std::vector<Tile> make_tiles(int width, int height, int tile_w,
                                    int tile_h) {
  return make_tiles(width, height, TileShape{tile_w, tile_h});
}

}  // namespace sma::sched
