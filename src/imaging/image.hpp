// image.hpp — dense 2-D image container with clamped-border access.
//
// All SMA data products are M x N rasters: intensity images I(x,y,t),
// surface (cloud-top height) maps z(x,y,t), disparity maps, discriminant
// fields and per-pixel geometric variables.  Image<T> is a plain row-major
// buffer; neighborhood access (the algorithm's dominant pattern — "a square
// set of pixels centered on that pixel", Sec. 2.1) goes through
// `at_clamped`/`sample` so window code near borders never branches at call
// sites.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace sma::imaging {

template <typename T>
class Image {
 public:
  Image() = default;

  Image(int width, int height, T fill = T{})
      : width_(width), height_(height),
        data_(checked_size(width, height), fill) {}

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }

  bool contains(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  T& at(int x, int y) {
    assert(contains(x, y));
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  const T& at(int x, int y) const {
    assert(contains(x, y));
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Clamped read, the common case in window loops.
  T at_clamped(int x, int y) const {
    return at(std::clamp(x, 0, width_ - 1), std::clamp(y, 0, height_ - 1));
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T* row(int y) { return data_.data() + static_cast<std::size_t>(y) * width_; }
  const T* row(int y) const {
    return data_.data() + static_cast<std::size_t>(y) * width_;
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  bool same_shape(const Image& other) const {
    return width_ == other.width_ && height_ == other.height_;
  }

  friend bool operator==(const Image& a, const Image& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ && a.data_ == b.data_;
  }

 private:
  static std::size_t checked_size(int width, int height) {
    if (width < 0 || height < 0)
      throw std::invalid_argument("Image: negative dimensions");
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<T> data_;
};

using ImageF = Image<float>;
using ImageD = Image<double>;
using ImageU8 = Image<unsigned char>;

/// Bilinear sample at real coordinates with clamped borders.
template <typename T>
double bilinear(const Image<T>& img, double x, double y) {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const double fx = x - x0;
  const double fy = y - y0;
  const double v00 = img.at_clamped(x0, y0);
  const double v10 = img.at_clamped(x0 + 1, y0);
  const double v01 = img.at_clamped(x0, y0 + 1);
  const double v11 = img.at_clamped(x0 + 1, y0 + 1);
  return (1 - fy) * ((1 - fx) * v00 + fx * v10) +
         fy * ((1 - fx) * v01 + fx * v11);
}

}  // namespace sma::imaging
