#include "core/trajectory.hpp"

#include <cmath>

namespace sma::core {

double Trajectory::path_length() const {
  double len = 0.0;
  for (std::size_t i = 1; i < points.size(); ++i)
    len += std::hypot(points[i].first - points[i - 1].first,
                      points[i].second - points[i - 1].second);
  return len;
}

TrajectoryTracker::TrajectoryTracker(
    const std::vector<std::pair<double, double>>& seeds) {
  tracks_.reserve(seeds.size());
  for (const auto& s : seeds) {
    Trajectory t;
    t.points.push_back(s);
    tracks_.push_back(std::move(t));
  }
}

void TrajectoryTracker::advance(const imaging::FlowField& flow) {
  for (Trajectory& t : tracks_) {
    if (t.lost) continue;
    const auto [x, y] = t.points.back();
    const int ix = static_cast<int>(std::floor(x));
    const int iy = static_cast<int>(std::floor(y));
    // The 2x2 bilinear support must be inside the image and trackable.
    if (ix < 0 || iy < 0 || ix + 1 >= flow.width() || iy + 1 >= flow.height()) {
      t.lost = true;
      continue;
    }
    bool all_valid = true;
    for (int dy = 0; dy <= 1 && all_valid; ++dy)
      for (int dx = 0; dx <= 1; ++dx)
        if (!flow.at(ix + dx, iy + dy).valid) {
          all_valid = false;
          break;
        }
    if (!all_valid) {
      t.lost = true;
      continue;
    }
    const double u = imaging::bilinear(flow.u(), x, y);
    const double v = imaging::bilinear(flow.v(), x, y);
    t.points.emplace_back(x + u, y + v);
  }
}

std::vector<Trajectory> track_trajectories(
    const std::vector<imaging::FlowField>& flows,
    const std::vector<std::pair<double, double>>& seeds) {
  TrajectoryTracker tracker(seeds);
  for (const auto& flow : flows) tracker.advance(flow);
  return tracker.trajectories();
}

}  // namespace sma::core
