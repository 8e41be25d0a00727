// classify.hpp — cloud classification and class-aware wind products.
//
// Paper, Sec. 6 (future work): "post processing the motion field by
// using cloud classification."  Cloud motion vectors are only
// meteorologically meaningful over cloud; and winds at different cloud
// levels belong to different atmospheric layers and must not be mixed
// (the paper's multilayer-cloud motivation, Sec. 1).
//
// The classifier is the standard threshold scheme used for GOES
// products: a pixel is CLOUDY if its intensity and local texture exceed
// the clear-scene background, and cloudy pixels split into LOW / MID /
// HIGH decks by cloud-top height (from the ASA stereo stage or any
// height proxy).  `per_class_statistics` then summarizes the wind field
// per deck — the paper's cloud-height-resolved wind product.
#pragma once

#include <array>
#include <cstdint>

#include "imaging/flow.hpp"
#include "imaging/image.hpp"

namespace sma::goes {

enum class CloudClass : std::uint8_t {
  kClear = 0,
  kLow = 1,   ///< cloud top below `low_top_km`
  kMid = 2,   ///< between `low_top_km` and `high_base_km`
  kHigh = 3,  ///< above `high_base_km`
};

struct ClassifierOptions {
  /// A pixel is cloudy if intensity >= `min_intensity` OR its 5x5 local
  /// standard deviation >= `min_texture` (bright decks and thin textured
  /// cirrus both count).
  double min_intensity = 100.0;
  double min_texture = 6.0;
  double low_top_km = 3.0;
  double high_base_km = 7.0;
};

using ClassMap = imaging::Image<std::uint8_t>;

/// Classifies every pixel from intensity + cloud-top heights (km).
ClassMap classify_clouds(const imaging::ImageF& intensity,
                         const imaging::ImageF& heights_km,
                         const ClassifierOptions& options = {});

struct ClassWindStats {
  std::size_t pixels = 0;
  double mean_u = 0.0;
  double mean_v = 0.0;
  double mean_speed = 0.0;
};

/// Mean wind per class over valid flow vectors.
std::array<ClassWindStats, 4> per_class_statistics(
    const imaging::FlowField& flow, const ClassMap& classes);

}  // namespace sma::goes
