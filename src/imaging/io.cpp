#include "imaging/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace sma::imaging {

namespace {

// Skips PNM whitespace and '#' comments.
void skip_pnm_space(std::istream& in) {
  for (;;) {
    const int c = in.peek();
    if (c == '#') {
      std::string line;
      std::getline(in, line);
    } else if (std::isspace(c)) {
      in.get();
    } else {
      return;
    }
  }
}

int read_pnm_int(std::istream& in) {
  skip_pnm_space(in);
  int v = 0;
  if (!(in >> v)) throw std::runtime_error("PNM: malformed integer field");
  return v;
}

// Largest raster edge we accept.  GOES scenes are 512-8192 px; anything
// beyond this is a corrupted header, and allocating for it would turn a
// malformed file into an out-of-memory failure.
constexpr int kMaxDim = 1 << 16;
// Total-pixel cap: both edges can individually pass kMaxDim while their
// product (e.g. 60000 x 60000) still demands a multi-GiB allocation, so
// the area is bounded separately at the largest plausible GOES full-disk
// raster (8192^2).
constexpr std::int64_t kMaxPixels = std::int64_t{1} << 26;

void check_dims(int w, int h, const char* reader, const std::string& path) {
  if (w <= 0 || h <= 0)
    throw std::runtime_error(std::string(reader) + ": non-positive " +
                             "dimensions in " + path);
  if (w > kMaxDim || h > kMaxDim ||
      std::int64_t{w} * std::int64_t{h} > kMaxPixels)
    throw std::runtime_error(std::string(reader) +
                             ": implausible dimensions (corrupt header?) in " +
                             path);
}

}  // namespace

void write_pgm(const ImageF& img, const std::string& path, double lo,
               double hi) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pgm: cannot open " + path);
  out << "P5\n" << img.width() << ' ' << img.height() << "\n255\n";
  const double scale = (hi > lo) ? 255.0 / (hi - lo) : 1.0;
  std::vector<unsigned char> row(static_cast<std::size_t>(img.width()));
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const double v = (img.at(x, y) - lo) * scale;
      row[static_cast<std::size_t>(x)] =
          static_cast<unsigned char>(std::clamp(v, 0.0, 255.0));
    }
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size()));
  }
}

void write_pfm(const ImageF& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pfm: cannot open " + path);
  out << "Pf\n" << img.width() << ' ' << img.height() << "\n-1.0\n";
  // PFM stores rows bottom-to-top.
  for (int y = img.height() - 1; y >= 0; --y)
    out.write(reinterpret_cast<const char*>(img.row(y)),
              static_cast<std::streamsize>(sizeof(float)) * img.width());
}

namespace {

std::ifstream open_raster(const std::string& path, const char* reader) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error(std::string(reader) + ": cannot open " + path);
  return in;
}

// read_raster_header on an open stream at the start of the file.
RasterHeader parse_header(std::istream& in, const std::string& path) {
  std::string magic;
  if (!(in >> magic))
    throw std::runtime_error("read_raster_header: empty or unreadable file: " +
                             path);
  RasterHeader hdr;
  if (magic == "P5" || magic == "P2") {
    hdr.width = read_pnm_int(in);
    hdr.height = read_pnm_int(in);
    hdr.maxval = read_pnm_int(in);
    check_dims(hdr.width, hdr.height, "read_raster_header", path);
    if (hdr.maxval <= 0 || hdr.maxval > 65535)
      throw std::runtime_error("read_raster_header: bad maxval in " + path);
    if (magic == "P2") {
      hdr.format = RasterHeader::Format::kPgmAscii;
      return hdr;  // no random access — data_offset stays unused
    }
    in.get();  // single whitespace after maxval, as in read_pgm
    hdr.format = hdr.maxval < 256 ? RasterHeader::Format::kPgm8
                                  : RasterHeader::Format::kPgm16;
    hdr.data_offset = in.tellg();
    return hdr;
  }
  if (magic == "PF")
    throw std::runtime_error(
        "read_raster_header: color PFM not supported: " + path);
  if (magic != "Pf")
    throw std::runtime_error("read_raster_header: unknown format in " + path);
  double scale = 0.0;
  if (!(in >> hdr.width >> hdr.height >> scale))
    throw std::runtime_error("read_raster_header: malformed header in " +
                             path);
  in.get();
  check_dims(hdr.width, hdr.height, "read_raster_header", path);
  if (!std::isfinite(scale) || scale == 0.0)
    throw std::runtime_error("read_raster_header: malformed scale in " + path);
  if (scale > 0.0)
    throw std::runtime_error(
        "read_raster_header: big-endian PFM (positive scale) not supported: " +
        path);
  hdr.format = RasterHeader::Format::kPfm;
  hdr.data_offset = in.tellg();
  return hdr;
}

// read_raster_window on an open stream at any position.
ImageF read_window(std::istream& in, const std::string& path,
                   const RasterHeader& header, int x0, int y0, int w, int h) {
  ImageF img(w, h);
  if (header.format == RasterHeader::Format::kPgmAscii) {
    // P2 is whitespace-delimited: no random access, so parse from the
    // start of the file up to the end of the window.
    in.seekg(0);
    std::string magic;
    in >> magic;
    read_pnm_int(in);  // width
    read_pnm_int(in);  // height
    read_pnm_int(in);  // maxval
    for (int y = 0; y <= y0 + h - 1; ++y)
      for (int x = 0; x < header.width; ++x) {
        const int v = read_pnm_int(in);
        if (v < 0 || v > header.maxval)
          throw std::runtime_error(
              "read_raster_window: sample out of range in " + path);
        if (y >= y0 && x >= x0 && x < x0 + w)
          img.at(x - x0, y - y0) = static_cast<float>(v);
      }
    return img;
  }
  // Binary formats: rows are read in file order — PFM stores them
  // bottom-to-top, so image row y sits at file row (height - 1 - y) — and
  // a window spanning whole rows is one contiguous run: one seek.
  const bool pfm = header.format == RasterHeader::Format::kPfm;
  const std::streamoff bytes_per_pixel =
      pfm ? sizeof(float)
          : header.format == RasterHeader::Format::kPgm16 ? 2 : 1;
  const bool whole_rows = w == header.width;
  std::vector<unsigned char> row(
      static_cast<std::size_t>(w * bytes_per_pixel));
  for (int i = 0; i < h; ++i) {
    const int y = pfm ? h - 1 - i : i;
    const std::streamoff file_row =
        pfm ? header.height - 1 - (y0 + y) : y0 + y;
    if (i == 0 || !whole_rows)
      in.seekg(header.data_offset +
               bytes_per_pixel * (file_row * header.width + x0));
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size()));
    if (!in) throw std::runtime_error("read_raster_window: truncated " + path);
    float* out = img.row(y);
    if (pfm) {
      std::memcpy(out, row.data(), row.size());
      // NaN/Inf samples would silently poison every downstream surface
      // fit and cost sum; reject them at the boundary.
      for (int x = 0; x < w; ++x)
        if (!std::isfinite(out[x]))
          throw std::runtime_error(
              "read_raster_window: non-finite sample in " + path);
    } else if (bytes_per_pixel == 2) {
      for (int x = 0; x < w; ++x)
        out[x] = static_cast<float>((row[2 * x] << 8) | row[2 * x + 1]);
    } else {
      for (int x = 0; x < w; ++x) out[x] = static_cast<float>(row[x]);
    }
  }
  return img;
}

}  // namespace

ImageF read_pgm(const std::string& path) {
  std::ifstream in = open_raster(path, "read_pgm");
  const RasterHeader hdr = parse_header(in, path);
  if (hdr.format == RasterHeader::Format::kPfm)
    throw std::runtime_error("read_pgm: not a PGM: " + path);
  return read_window(in, path, hdr, 0, 0, hdr.width, hdr.height);
}

ImageF read_pfm(const std::string& path) {
  std::ifstream in = open_raster(path, "read_pfm");
  const RasterHeader hdr = parse_header(in, path);
  if (hdr.format != RasterHeader::Format::kPfm)
    throw std::runtime_error("read_pfm: not a grayscale PFM: " + path);
  return read_window(in, path, hdr, 0, 0, hdr.width, hdr.height);
}

RasterHeader read_raster_header(const std::string& path) {
  std::ifstream in = open_raster(path, "read_raster_header");
  return parse_header(in, path);
}

ImageF read_raster_window(const std::string& path, const RasterHeader& header,
                          int x0, int y0, int w, int h) {
  if (w <= 0 || h <= 0 || x0 < 0 || y0 < 0 || x0 + w > header.width ||
      y0 + h > header.height)
    throw std::runtime_error("read_raster_window: window outside raster " +
                             path);
  std::ifstream in = open_raster(path, "read_raster_window");
  return read_window(in, path, header, x0, y0, w, h);
}

}  // namespace sma::imaging
