#include "sched/tile.hpp"

namespace sma::sched {

TileShape choose_tile_shape(int width, int height, int executors) {
  TileShape shape{32, 32};
  if (width <= 0 || height <= 0) return shape;
  const int ex = executors > 1 ? executors : 1;
  // Granularity target: enough tiles that stealing has slack to
  // redistribute skewed per-pixel cost across every executor.
  const long long target = 6LL * ex;
  const auto count = [&](const TileShape& s) {
    const long long tx = (width + s.width - 1) / s.width;
    const long long ty = (height + s.height - 1) / s.height;
    return tx * ty;
  };
  while (count(shape) < target && (shape.width > 4 || shape.height > 4)) {
    if (shape.width >= shape.height && shape.width > 4) {
      shape.width /= 2;
    } else {
      shape.height /= 2;
    }
  }
  shape.width = std::min(shape.width, width);
  shape.height = std::min(shape.height, height);
  return shape;
}

std::vector<Tile> make_tiles(int width, int height, TileShape shape) {
  std::vector<Tile> tiles;
  if (width <= 0 || height <= 0) return tiles;
  const int tw = std::max(shape.width, 1);
  const int th = std::max(shape.height, 1);
  const int nx = (width + tw - 1) / tw;
  const int ny = (height + th - 1) / th;
  tiles.reserve(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
  for (int ty = 0; ty < ny; ++ty) {
    const int y0 = ty * th;
    const int y1 = std::min(y0 + th, height);
    for (int tx = 0; tx < nx; ++tx) {
      const int x0 = tx * tw;
      const int x1 = std::min(x0 + tw, width);
      tiles.push_back(Tile{x0, y0, x1, y1});
    }
  }
  return tiles;
}

}  // namespace sma::sched
