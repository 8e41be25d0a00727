// colorize.hpp — flow-field and raster visualization.
//
// Fig. 6 of the paper visualizes dense cloud motion fields.  This module
// renders a FlowField with the standard optical-flow color wheel
// (direction -> hue, magnitude -> saturation) and writes binary PPM so
// the figures regenerate without any plotting dependency.
#pragma once

#include <string>

#include "imaging/flow.hpp"
#include "imaging/image.hpp"

namespace sma::imaging {

struct Rgb {
  unsigned char r = 0, g = 0, b = 0;
  friend bool operator==(const Rgb&, const Rgb&) = default;
};

using ImageRgb = Image<Rgb>;

/// Direction->hue, magnitude->saturation mapping of a single vector;
/// `max_magnitude` saturates the color.  Invalid pixels render black.
Rgb flow_color(float u, float v, bool valid, double max_magnitude);

/// Colorizes the whole field.  `max_magnitude` <= 0 auto-scales to the
/// 99th-percentile magnitude.
ImageRgb colorize_flow(const FlowField& flow, double max_magnitude = 0.0);

/// Binary (P6) PPM output.
void write_ppm(const ImageRgb& img, const std::string& path);

/// Reads a binary (P6) PPM.
ImageRgb read_ppm(const std::string& path);

}  // namespace sma::imaging
