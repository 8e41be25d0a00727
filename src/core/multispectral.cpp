#include "core/multispectral.hpp"

#include <stdexcept>

#include "core/backend.hpp"
#include "core/pipeline.hpp"

namespace sma::core {

imaging::FlowField fuse_flows(
    const std::vector<const imaging::FlowField*>& fields,
    std::vector<std::size_t>* winner_counts) {
  if (fields.empty())
    throw std::invalid_argument("fuse_flows: no candidate fields");
  const int w = fields.front()->width();
  const int h = fields.front()->height();
  for (const auto* f : fields)
    if (f == nullptr || f->width() != w || f->height() != h)
      throw std::invalid_argument("fuse_flows: shape mismatch");

  if (winner_counts != nullptr)
    winner_counts->assign(fields.size(), 0);

  imaging::FlowField out(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      int best = -1;
      imaging::FlowVector best_vec;
      for (std::size_t c = 0; c < fields.size(); ++c) {
        const imaging::FlowVector f = fields[c]->at(x, y);
        if (!f.valid) continue;
        if (best < 0 || f.error < best_vec.error) {
          best = static_cast<int>(c);
          best_vec = f;
        }
      }
      if (best >= 0) {
        out.set(x, y, best_vec);
        if (winner_counts != nullptr)
          ++(*winner_counts)[static_cast<std::size_t>(best)];
      }
    }
  return out;
}

MultispectralResult track_pair_multispectral(const MultispectralInput& input,
                                             const SmaConfig& config,
                                             const TrackOptions& options,
                                             const std::string& backend) {
  if (input.before.empty() || input.before.size() != input.after.size())
    throw std::invalid_argument(
        "track_pair_multispectral: channel lists empty or mismatched");

  PipelineOptions popts;
  popts.backend = backend;
  popts.track = options;
  // Shared surface maps plus two intensity frames per channel: size the
  // cache so one channel pass never evicts the shared surfaces.
  popts.geometry_cache_capacity = 4;
  SmaPipeline pipeline(config, std::move(popts));

  MultispectralResult result;
  result.per_channel.reserve(input.before.size());
  for (std::size_t c = 0; c < input.before.size(); ++c) {
    TrackerInput ti;
    ti.intensity_before = input.before[c];
    ti.intensity_after = input.after[c];
    ti.surface_before =
        input.surface_before != nullptr ? input.surface_before
                                        : input.before[c];
    ti.surface_after =
        input.surface_after != nullptr ? input.surface_after : input.after[c];
    TrackResult r = pipeline.track_pair(ti);
    result.timings.push_back(r.timings);
    result.per_channel.push_back(std::move(r.flow));
  }

  std::vector<const imaging::FlowField*> ptrs;
  ptrs.reserve(result.per_channel.size());
  for (const auto& f : result.per_channel) ptrs.push_back(&f);
  result.flow = fuse_flows(ptrs, &result.winner_counts);
  return result;
}

}  // namespace sma::core
