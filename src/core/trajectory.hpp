// trajectory.hpp — Lagrangian particle trajectories over frame sequences.
//
// The paper tracks time-varying SEQUENCES (Frederic T=4, Florida 49
// frames, Luis 490 frames) and compares against expert-tracked particles
// followed across frames.  This module chains the per-pair flow fields
// into particle trajectories: each seed advances by the bilinearly
// sampled motion vector at its current position, frame after frame —
// the cloud-tracking product the paper's wind barbs represent.
#pragma once

#include <utility>
#include <vector>

#include "imaging/flow.hpp"

namespace sma::core {

struct Trajectory {
  /// Positions, one per visited time step (first entry = the seed).
  std::vector<std::pair<double, double>> points;
  /// True once the particle left the image or hit an untrackable
  /// (invalid-flow) region; its last valid position is kept.
  bool lost = false;

  const std::pair<double, double>& position() const { return points.back(); }
  std::size_t steps() const { return points.size() - 1; }

  /// Net displacement from seed to current position.
  std::pair<double, double> net_displacement() const {
    return {points.back().first - points.front().first,
            points.back().second - points.front().second};
  }

  /// Total path length (sum of per-step displacements).
  double path_length() const;
};

class TrajectoryTracker {
 public:
  /// Seeds particles at the given positions.
  explicit TrajectoryTracker(
      const std::vector<std::pair<double, double>>& seeds);

  /// Advances every live particle by the flow field of one interval
  /// (flow maps time t to t+1).  Particles landing outside the image or
  /// on an invalid 2x2 flow neighborhood are marked lost.
  void advance(const imaging::FlowField& flow);

  const std::vector<Trajectory>& trajectories() const { return tracks_; }

 private:
  std::vector<Trajectory> tracks_;
};

/// Convenience: chains a whole sequence of per-pair flows.
std::vector<Trajectory> track_trajectories(
    const std::vector<imaging::FlowField>& flows,
    const std::vector<std::pair<double, double>>& seeds);

}  // namespace sma::core
