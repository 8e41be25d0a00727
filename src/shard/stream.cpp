#include "shard/stream.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sma::shard {

namespace {

void check_window(const char* who, int fw, int fh, int frame, int x0, int y0,
                  int w, int h) {
  if (frame != 0 && frame != 1)
    throw std::invalid_argument(std::string(who) + ": frame must be 0 or 1");
  if (w < 1 || h < 1 || x0 < 0 || y0 < 0 || x0 + w > fw || y0 + h > fh) {
    std::ostringstream os;
    os << who << ": window [" << x0 << "," << x0 + w << ")x[" << y0 << ","
       << y0 + h << ") outside the " << fw << "x" << fh << " frame";
    throw std::invalid_argument(os.str());
  }
}

}  // namespace

InMemoryTileSource::InMemoryTileSource(const imaging::ImageF& before,
                                       const imaging::ImageF& after)
    : before_(&before), after_(&after) {
  if (before.width() != after.width() || before.height() != after.height())
    throw std::invalid_argument(
        "InMemoryTileSource: before/after dimensions differ");
}

imaging::ImageF InMemoryTileSource::window(int frame, int x0, int y0, int w,
                                           int h) {
  check_window("InMemoryTileSource::window", width(), height(), frame, x0, y0,
               w, h);
  const imaging::ImageF& src = frame == 0 ? *before_ : *after_;
  imaging::ImageF out(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) out.at(x, y) = src.at(x0 + x, y0 + y);
  return out;
}

TiledFrameStream::TiledFrameStream(const std::string& before_path,
                                   const std::string& after_path,
                                   const ShardPlan& plan,
                                   maspar::MpdaSpec spec,
                                   std::size_t budget_bytes)
    : plan_(plan), spec_(spec), budget_bytes_(budget_bytes) {
  paths_[0] = before_path;
  paths_[1] = after_path;
  headers_[0] = imaging::read_raster_header(before_path);
  headers_[1] = imaging::read_raster_header(after_path);
  for (int f = 0; f < 2; ++f) {
    if (headers_[f].width != plan_.width || headers_[f].height != plan_.height) {
      std::ostringstream os;
      os << "TiledFrameStream: " << paths_[f] << " is " << headers_[f].width
         << "x" << headers_[f].height << ", plan expects " << plan_.width
         << "x" << plan_.height;
      throw std::invalid_argument(os.str());
    }
  }
}

int TiledFrameStream::bytes_per_pixel() const {
  switch (headers_[0].format) {
    case imaging::RasterHeader::Format::kPgm16:
      return 2;
    case imaging::RasterHeader::Format::kPfm:
      return 4;
    case imaging::RasterHeader::Format::kPgm8:
    case imaging::RasterHeader::Format::kPgmAscii:
      break;
  }
  return 1;
}

void TiledFrameStream::note_working_bytes(std::size_t bytes) {
  working_bytes_ = bytes;
  evict_to_budget();
  bump_resident();
}

void TiledFrameStream::bump_resident() {
  stats_.resident_bytes =
      static_cast<std::uint64_t>(cache_bytes_ + working_bytes_);
  stats_.resident_high_water =
      std::max(stats_.resident_high_water, stats_.resident_bytes);
}

void TiledFrameStream::evict_to_budget() {
  if (budget_bytes_ == 0) return;
  // Never evict the most recent block: it is the one the caller is about
  // to copy from, and a budget that admits one working set (the planner
  // enforces this) must always make progress.
  while (cache_.size() > 1 && cache_bytes_ + working_bytes_ > budget_bytes_) {
    const std::int64_t victim = lru_.back();
    auto it = cache_.find(victim);
    cache_bytes_ -= it->second.pixels.size() * sizeof(float);
    cache_.erase(it);
    lru_.pop_back();
  }
}

const imaging::ImageF& TiledFrameStream::block(int frame, int tile_index) {
  const std::int64_t key =
      static_cast<std::int64_t>(frame) * plan_.tiles.size() + tile_index;
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++stats_.cache_hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.pixels;
  }

  ++stats_.cache_misses;
  ++stats_.block_reads;
  const Tile& t = plan_.tiles[static_cast<std::size_t>(tile_index)];
  imaging::ImageF pixels = imaging::read_raster_window(
      paths_[frame], headers_[frame], t.x0, t.y0, t.core_width(),
      t.core_height());

  // Modeled MPDA streaming: the block's backing-store bytes at the
  // effective array bandwidth.
  const double bytes = static_cast<double>(pixels.size()) * bytes_per_pixel();
  stats_.io_seconds += bytes / spec_.effective_bw();
  stats_.bytes_read += static_cast<std::uint64_t>(bytes);

  cache_bytes_ += pixels.size() * sizeof(float);
  lru_.push_front(key);
  auto [pos, inserted] =
      cache_.emplace(key, CacheEntry{std::move(pixels), lru_.begin()});
  (void)inserted;
  evict_to_budget();
  bump_resident();
  return pos->second.pixels;
}

imaging::ImageF TiledFrameStream::window(int frame, int x0, int y0, int w,
                                         int h) {
  check_window("TiledFrameStream::window", plan_.width, plan_.height, frame,
               x0, y0, w, h);
  imaging::ImageF out(w, h);
  // Assemble from every core-grid block the window intersects.  Halo
  // pixels land in blocks owned by neighboring tiles — cache hits there
  // are the stream's halo exchange.
  for (const Tile& t : plan_.tiles) {
    const int ix0 = std::max(x0, t.x0);
    const int ix1 = std::min(x0 + w, t.x1);
    const int iy0 = std::max(y0, t.y0);
    const int iy1 = std::min(y0 + h, t.y1);
    if (ix0 >= ix1 || iy0 >= iy1) continue;
    const imaging::ImageF& b = block(frame, t.index);
    for (int y = iy0; y < iy1; ++y)
      for (int x = ix0; x < ix1; ++x)
        out.at(x - x0, y - y0) = b.at(x - t.x0, y - t.y0);
  }
  return out;
}

}  // namespace sma::shard
