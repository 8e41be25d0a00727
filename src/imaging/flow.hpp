// flow.hpp — dense motion (flow) field container and error metrics.
//
// The SMA tracker's output is "a dense motion field for 262144 pixels ...
// for each image pair" (paper, Sec. 3).  FlowField stores per-pixel
// displacement (u, v), the residual error of the winning hypothesis and a
// validity flag.  Error metrics mirror the paper's evaluation: "a
// root-mean-squared error of less than one pixel with respect to the
// manual estimates" (Sec. 5.1).
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "imaging/image.hpp"

namespace sma::imaging {

/// One motion vector with its residual.
struct FlowVector {
  float u = 0.0f;       ///< x displacement (pixels)
  float v = 0.0f;       ///< y displacement (pixels)
  float error = 0.0f;   ///< residual of the winning hypothesis
  std::uint8_t valid = 0;
  /// Fraction of the winning hypothesis's template that was backed by
  /// trustworthy (unmasked) data — 1 for a pristine template, 0 for an
  /// invalid pixel.
  float confidence = 1.0f;

  friend bool operator==(const FlowVector&, const FlowVector&) = default;
};

class FlowField {
 public:
  FlowField() = default;
  FlowField(int width, int height)
      : u_(width, height), v_(width, height), error_(width, height),
        valid_(width, height, 0), confidence_(width, height, 1.0f) {}

  int width() const { return u_.width(); }
  int height() const { return u_.height(); }

  FlowVector at(int x, int y) const {
    return FlowVector{u_.at(x, y), v_.at(x, y), error_.at(x, y),
                      valid_.at(x, y), confidence_.at(x, y)};
  }
  void set(int x, int y, const FlowVector& f) {
    u_.at(x, y) = f.u;
    v_.at(x, y) = f.v;
    error_.at(x, y) = f.error;
    valid_.at(x, y) = f.valid;
    confidence_.at(x, y) = f.confidence;
  }

  ImageF& u() { return u_; }
  ImageF& v() { return v_; }
  const ImageF& u() const { return u_; }
  const ImageF& v() const { return v_; }
  const ImageF& error() const { return error_; }
  const Image<std::uint8_t>& valid() const { return valid_; }
  const ImageF& confidence() const { return confidence_; }

  std::size_t count_valid() const {
    std::size_t n = 0;
    for (int y = 0; y < height(); ++y)
      for (int x = 0; x < width(); ++x) n += valid_.at(x, y) ? 1 : 0;
    return n;
  }

  /// Motion equality: u, v and valid compared as floats (so -0.0 equals
  /// 0.0); error and confidence are ignored.  `bit_equal` is the strict
  /// check.
  friend bool operator==(const FlowField& a, const FlowField& b) {
    return a.u_ == b.u_ && a.v_ == b.v_ && a.valid_ == b.valid_;
  }

 private:
  ImageF u_, v_, error_;
  Image<std::uint8_t> valid_;
  ImageF confidence_;
};

/// True when both fields have the same shape and byte-equal u, v, error,
/// valid and confidence planes (so -0.0 differs from 0.0, and a NaN
/// equals the same NaN).
bool bit_equal(const FlowField& a, const FlowField& b);

/// A sparse reference track, the analog of the paper's "32 particles
/// (pixels)" manually tracked by an expert meteorologist.
struct ReferenceTrack {
  int x = 0, y = 0;       ///< tracked pixel at time t_m
  double u = 0.0, v = 0.0;///< true displacement to t_{m+1}
};

/// Endpoint RMS error of `flow` against sparse reference tracks, in pixels.
double rms_endpoint_error(const FlowField& flow,
                          const std::vector<ReferenceTrack>& refs);

/// Endpoint RMS error against a dense ground-truth field, valid pixels only,
/// optionally ignoring a border margin (templates are unreliable there).
double rms_endpoint_error(const FlowField& flow, const FlowField& truth,
                          int margin = 0);

/// Writes the flow as whitespace-separated "x y u v error valid" rows —
/// the format consumed by the plotting scripts and the Fig. 6 harness.
void write_flow_text(const FlowField& flow, const std::string& path,
                     int stride = 1);

/// Stream variant of the same serialization — byte-identical to the
/// file the path overload writes.  The serving layer (src/serve/) ships
/// this as the wire payload so a served response can be `cmp`-equal to
/// a one-shot `sma_cli` output file.
void write_flow_text(const FlowField& flow, std::ostream& out,
                     int stride = 1);

/// Reads the text format written by `write_flow_text` with stride 1.
FlowField read_flow_text(const std::string& path);

}  // namespace sma::imaging
