#include "core/hierarchical.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/backend.hpp"
#include "core/pipeline.hpp"
#include "core/postprocess.hpp"
#include "imaging/pyramid.hpp"
#include "imaging/warp.hpp"

namespace sma::core {

imaging::FlowField upsample_flow(const imaging::FlowField& flow, int width,
                                 int height) {
  const double gain_x =
      flow.width() > 1 ? static_cast<double>(width) / flow.width() : 1.0;
  const imaging::ImageF u =
      imaging::upsample_to(flow.u(), width, height, gain_x);
  const double gain_y =
      flow.height() > 1 ? static_cast<double>(height) / flow.height() : 1.0;
  const imaging::ImageF v =
      imaging::upsample_to(flow.v(), width, height, gain_y);
  imaging::FlowField out(width, height);
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x)
      out.set(x, y,
              imaging::FlowVector{u.at(x, y), v.at(x, y), 0.0f, 1});
  return out;
}

HierarchicalResult track_pair_hierarchical(
    const imaging::ImageF& before, const imaging::ImageF& after,
    const HierarchicalOptions& options) {
  if (options.levels < 1)
    throw std::invalid_argument("track_pair_hierarchical: levels >= 1");
  if (options.refine_search_radius < 0)
    throw std::invalid_argument(
        "track_pair_hierarchical: refine_search_radius >= 0");
  options.coarse.validate();

  const imaging::Pyramid pb(before, options.levels);
  const imaging::Pyramid pa(after, options.levels);
  const int top = pb.levels() - 1;

  HierarchicalResult result;
  result.levels_used = pb.levels();

  // Coarsest level: plain tracking with the full coarse configuration.
  // Sub-pixel refinement is forced at every level: coarse levels see the
  // true motion divided by 2^level, so integer quantization there would
  // inject multi-pixel errors after upsampling.
  TrackOptions level_track = options.track;
  level_track.subpixel = true;
  PipelineOptions popts;
  popts.backend = options.backend;
  popts.track = level_track;
  SmaPipeline pipeline(options.coarse, std::move(popts));
  TrackResult cur = pipeline.track_pair(pb.level(top), pa.level(top));
  result.level_timings.push_back(cur.timings);
  imaging::FlowField flow = cur.flow;

  // Finer levels: warp the after-image by the upsampled prior and track
  // the residual with a narrow search.
  SmaConfig refine = options.coarse;
  refine.z_search_radius = options.refine_search_radius;
  refine.z_search_radius_y = -1;
  refine.segment_rows = 0;
  pipeline.set_config(refine);

  for (int level = top - 1; level >= 0; --level) {
    const imaging::ImageF& lb = pb.level(level);
    const imaging::ImageF& la = pa.level(level);
    // Robustly smooth the propagated prior: integer estimates at coarse
    // levels are noisy for sub-pixel true motion, and a wrong prior is
    // unrecoverable within the narrow residual search.  Vector median
    // kills isolated errors, the Gaussian gives a fractional consensus.
    // The prior is then ROUNDED to whole pixels: warping by a fractional
    // flow would bilinearly smooth the after-image while the before-image
    // stays crisp, biasing the normal-consistency metric; the fractional
    // part is recovered by the residual's sub-pixel refinement instead.
    imaging::FlowField prior = gaussian_smooth(
        vector_median_filter(upsample_flow(flow, lb.width(), lb.height()), 1),
        1.0);
    for (int y = 0; y < lb.height(); ++y)
      for (int x = 0; x < lb.width(); ++x) {
        imaging::FlowVector p = prior.at(x, y);
        p.u = std::nearbyint(p.u);
        p.v = std::nearbyint(p.v);
        prior.set(x, y, p);
      }
    // warped(x, y) = after(x + prior.u, y + prior.v): a feature that
    // moved by prior + r appears in `warped` displaced by the residual r.
    const imaging::ImageF warped = imaging::warp_by_flow(la, prior);
    const TrackResult res = pipeline.track_pair(lb, warped);
    result.level_timings.push_back(res.timings);

    flow = imaging::FlowField(lb.width(), lb.height());
    for (int y = 0; y < lb.height(); ++y)
      for (int x = 0; x < lb.width(); ++x) {
        const imaging::FlowVector p = prior.at(x, y);
        const imaging::FlowVector r = res.flow.at(x, y);
        flow.set(x, y, imaging::FlowVector{p.u + r.u, p.v + r.v, r.error,
                                           r.valid});
      }
  }
  result.flow = std::move(flow);
  return result;
}

}  // namespace sma::core
