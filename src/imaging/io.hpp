// io.hpp — PGM (P5) and PFM raster I/O.
//
// The GOES datasets the paper processes are plain 8-bit rasters; we read
// and write binary PGM for intensity images and PFM (portable float map)
// for surface/disparity maps so example programs can persist every
// intermediate product.
#pragma once

#include <string>

#include "imaging/image.hpp"

namespace sma::imaging {

/// Writes a binary (P5) 8-bit PGM.  Values are clamped to [0, 255].
void write_pgm(const ImageF& img, const std::string& path,
               double lo = 0.0, double hi = 255.0);

/// Reads a binary (P5) or ASCII (P2) PGM into floats in [0, 255]: the
/// read_raster_header parse plus a whole-frame read_raster_window read,
/// on one open file.  Rejects a PFM file.
ImageF read_pgm(const std::string& path);

/// Writes a little-endian single-channel PFM (grayscale, scale -1.0).
void write_pfm(const ImageF& img, const std::string& path);

/// Reads a little-endian single-channel PFM the same way; rejects a PGM.
ImageF read_pfm(const std::string& path);

/// Parsed header of a raster file plus the byte offset of its pixel
/// data — what a windowed reader needs to seek straight to any row
/// without touching the rest of the file.  Produced by
/// read_raster_header, consumed by read_raster_window (src/shard/'s
/// out-of-core tile stream is the primary client).
struct RasterHeader {
  enum class Format { kPgm8, kPgm16, kPgmAscii, kPfm };
  Format format = Format::kPgm8;
  int width = 0;
  int height = 0;
  int maxval = 255;                ///< PGM formats only
  std::streamoff data_offset = 0;  ///< first pixel byte (binary formats)
};

/// Sniffs a PGM (P5/P2) or grayscale PFM (Pf) header, applying the same
/// validation as the whole-frame readers (dimension caps, maxval range,
/// little-endian-only PFM).
RasterHeader read_raster_header(const std::string& path);

/// Reads the `w` x `h` window at (x0, y0) of a raster previously sniffed
/// with read_raster_header.  Pixel values are BIT-IDENTICAL to the same
/// crop of read_pgm/read_pfm on the whole file — the shard layer's
/// stitching invariant rests on this.  The window must lie inside the
/// raster.  Binary formats read only the window bytes, seeking once per
/// row — or once in all when the window spans whole rows; ASCII P2 has
/// no random access and re-parses sequentially.  PFM non-finite-sample
/// rejection applies to the window's samples.
ImageF read_raster_window(const std::string& path, const RasterHeader& header,
                          int x0, int y0, int w, int h);

}  // namespace sma::imaging
