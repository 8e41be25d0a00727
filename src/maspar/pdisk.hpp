// pdisk.hpp — MasPar Parallel Disk Array (MPDA) model.
//
// Sec. 3.1: "The Goddard MP-2 has two RAID-3 8-way striped MasPar
// Parallel Disk Arrays that deliver a sustained performance of over
// 30 MB/s across a 200 MB/s MPIOC channel.  The high throughput of MPDA
// was exploited in running the SMA algorithm on a dense sequence of 490
// frames of GOES-9 data."
//
// FrameStream emulates streaming a long frame sequence (the Hurricane
// Luis run) through the disk array: frames are served from memory while
// the modeled I/O clock advances at the sustained MPDA rate, bounded by
// the MPIOC channel.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "imaging/image.hpp"

namespace sma::maspar {

struct MpdaSpec {
  int stripes = 8;                  ///< RAID-3 8-way striping
  double sustained_bw = 30.0e6;     ///< bytes/s, array sustained
  double channel_bw = 200.0e6;      ///< MPIOC channel ceiling
  int array_count = 2;              ///< two MPDAs at Goddard

  /// Effective streaming bandwidth: arrays in parallel, channel-capped.
  double effective_bw() const {
    const double arrays = sustained_bw * array_count;
    return arrays < channel_bw ? arrays : channel_bw;
  }
};

/// Serves frames in order while accounting modeled disk time.
class FrameStream {
 public:
  FrameStream(std::vector<imaging::ImageF> frames, MpdaSpec spec = {},
              int bytes_per_pixel = 1)
      : frames_(std::move(frames)), spec_(spec),
        bytes_per_pixel_(bytes_per_pixel) {}

  std::size_t size() const { return frames_.size(); }
  bool exhausted() const { return next_ >= frames_.size(); }

  /// Returns the next frame and advances the modeled I/O clock.
  /// Throws std::out_of_range when the sequence is exhausted — callers
  /// must check exhausted() rather than over-read.
  const imaging::ImageF& next() {
    if (exhausted())
      throw std::out_of_range(
          "FrameStream::next: read past the end of the frame sequence");
    const imaging::ImageF& f = frames_[next_++];
    const double bytes = static_cast<double>(f.size()) * bytes_per_pixel_;
    io_seconds_ += bytes / spec_.effective_bw();
    bytes_read_ += static_cast<std::uint64_t>(bytes);
    return f;
  }

  double io_seconds() const { return io_seconds_; }
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  std::vector<imaging::ImageF> frames_;
  MpdaSpec spec_;
  int bytes_per_pixel_;
  std::size_t next_ = 0;
  double io_seconds_ = 0.0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace sma::maspar
