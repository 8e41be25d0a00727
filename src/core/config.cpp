#include "core/config.hpp"

#include <sstream>

namespace sma::core {

std::string SmaConfig::describe() const {
  std::ostringstream os;
  os << (model == MotionModel::kSemiFluid ? "semi-fluid" : "continuous")
     << " model: surface-fit " << surface_fit_size() << "x"
     << surface_fit_size() << ", z-search " << z_search_size() << "x"
     << z_search_size_y() << ", z-template " << z_template_size() << "x"
     << z_template_size_y();
  if (model == MotionModel::kSemiFluid)
    os << ", semi-fluid search " << semifluid_search_size() << "x"
       << semifluid_search_size() << ", semi-fluid template "
       << semifluid_template_size() << "x" << semifluid_template_size();
  os << ", Z=" << effective_segment_rows() << " rows/segment"
     << ", stride=" << template_stride;
  os << ", precompute="
     << (precompute == PrecomputeMode::kOff
             ? "off"
             : precompute == PrecomputeMode::kOn ? "on" : "auto");
  // The pruned search changes results (tolerance-level subpixel deltas
  // vs. the full oracle), so it MUST be part of the signature — but only
  // when engaged, keeping every existing full-mode signature byte-stable.
  if (search_mode == SearchMode::kPruned)
    os << ", search-mode=pruned(levels=" << prune_coarse_levels
       << ", refine=" << prune_refine_radius
       << ", bound=" << (prune_bound ? "on" : "off") << ")";
  // Scheduler knobs only when explicitly set: they never change results,
  // so defaults stay out of config signatures.
  if (threads > 0) os << ", threads=" << threads;
  if (tile_width > 0 || tile_height > 0)
    os << ", tile=" << tile_width << "x" << tile_height;
  if (max_resident_mb > 0) os << ", resident<=" << max_resident_mb << "MiB";
  return os.str();
}

SmaConfig frederic_config() {
  SmaConfig c;
  c.model = MotionModel::kSemiFluid;
  c.surface_fit_radius = 2;         // 5x5
  c.z_search_radius = 6;            // 13x13
  c.z_template_radius = 60;         // 121x121
  c.semifluid_search_radius = 1;    // 3x3 (Sec. 3: "3 x 3 = 9 error terms")
  c.semifluid_template_radius = 2;  // 5x5
  c.segment_rows = 0;               // unsegmented, as in Table 2
  return c;
}

SmaConfig goes9_config() {
  SmaConfig c;
  c.model = MotionModel::kContinuous;
  c.surface_fit_radius = 2;   // 5x5
  c.z_search_radius = 7;      // 15x15
  c.z_template_radius = 7;    // 15x15
  return c;
}

SmaConfig luis_config() {
  SmaConfig c;
  c.model = MotionModel::kContinuous;
  c.surface_fit_radius = 2;
  c.z_search_radius = 4;      // 9x9
  c.z_template_radius = 5;    // 11x11
  return c;
}

SmaConfig frederic_scaled_config() {
  SmaConfig c;
  c.model = MotionModel::kSemiFluid;
  c.surface_fit_radius = 2;
  c.z_search_radius = 3;            // 7x7
  c.z_template_radius = 4;          // 9x9
  c.semifluid_search_radius = 1;    // 3x3
  c.semifluid_template_radius = 2;  // 5x5
  return c;
}

SmaConfig goes9_scaled_config() {
  SmaConfig c;
  c.model = MotionModel::kContinuous;
  c.surface_fit_radius = 2;
  c.z_search_radius = 3;  // 7x7
  c.z_template_radius = 3;  // 7x7
  return c;
}

SmaConfig luis_scaled_config() {
  SmaConfig c;
  c.model = MotionModel::kContinuous;
  c.surface_fit_radius = 2;
  c.z_search_radius = 2;  // 5x5
  c.z_template_radius = 3;  // 7x7
  return c;
}

}  // namespace sma::core
