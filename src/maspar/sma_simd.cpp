#include "maspar/sma_simd.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/match_precompute.hpp"
#include "core/semifluid.hpp"
#include "core/workload.hpp"
#include "obs/trace.hpp"

namespace sma::maspar {

void publish_metrics(const SimdRunReport& report, obs::MetricsRegistry& reg) {
  reg.gauge("maspar.layers").set(report.layers);
  reg.gauge("maspar.segment_rows").set(report.segment_rows);
  reg.gauge("maspar.fits_pe_memory").set(report.fits_pe_memory ? 1.0 : 0.0);
  reg.gauge("maspar.pe_bytes").set(static_cast<double>(report.pe_bytes));
  publish_metrics(report.modeled, "maspar.modeled", reg);
  reg.gauge("maspar.modeled_sgi_total_seconds").set(report.modeled_sgi_total);
  reg.gauge("maspar.modeled_speedup").set(report.modeled_speedup);
  reg.gauge("maspar.xnet_shifts")
      .set(static_cast<double>(report.comm.xnet_shifts));
  reg.gauge("maspar.xnet_words")
      .set(static_cast<double>(report.comm.xnet_words));
  reg.gauge("maspar.xnet_word_hops")
      .set(static_cast<double>(report.comm.xnet_word_hops));
  reg.gauge("maspar.router_words")
      .set(static_cast<double>(report.comm.router_words));
  reg.gauge("maspar.intra_pe_moves")
      .set(static_cast<double>(report.comm.intra_pe_moves));
  reg.gauge("maspar.host_seconds").set(report.host_seconds);
}

SimdRunReport MasParExecutor::run_matching(const core::MatchInput& in,
                                           const core::SmaConfig& config,
                                           int image_count,
                                           const core::TrackOptions& options,
                                           core::TrackResult* track_out) const {
  config.validate();
  if (in.before == nullptr || in.after == nullptr)
    throw std::invalid_argument("MasParExecutor: null geometry input");

  const auto t_start = std::chrono::steady_clock::now();
  obs::TraceSpan run_span("maspar", "simd_matching");
  const int w = in.width();
  const int h = in.height();

  SimdRunReport report;
  core::TrackResult track;

  // --- Sec. 4.3 memory planning.
  core::PeMemoryModel mem;
  const HierarchicalMap map(w, h, spec_);
  mem.xvr = map.xvr();
  mem.yvr = map.yvr();
  core::SmaConfig run_config = config;
  if (run_config.segment_rows == 0) {
    const std::uint64_t unseg =
        mem.segmented_bytes(run_config, run_config.z_search_size_y());
    if (unseg > spec_.pe_memory_bytes) {
      const int z = mem.max_segment_rows(run_config, spec_.pe_memory_bytes);
      run_config.segment_rows = std::max(z, 1);
    }
  }
  report.segment_rows = run_config.effective_segment_rows();
  report.pe_bytes = mem.segmented_bytes(run_config, report.segment_rows);
  report.fits_pe_memory = report.pe_bytes <= spec_.pe_memory_bytes;
  report.layers = map.layers();

  // --- SIMD schedule: hypothesis-row segments outermost (so the
  // semi-fluid correspondence table is built once per segment), then
  // memory layers, then the PE array in lock step.
  const bool semifluid = run_config.model == core::MotionModel::kSemiFluid &&
                         run_config.semifluid_search_radius > 0 &&
                         in.disc_before != nullptr &&
                         in.disc_after != nullptr;
  const int nzs_x = run_config.z_search_radius;
  const int nzs_y = run_config.z_search_ry();
  const int nss = run_config.effective_nss();
  const int zseg = run_config.effective_segment_rows();
  // The hypothesis-invariant precompute is per-PE-layer data on the real
  // machine; here the attached planes are consumed through the same
  // shared kernel, gated by the same eligibility rule as the host
  // backends (the auto-chosen segmentation does not affect it).
  const core::MatchPrecompute* pre =
      (in.precompute != nullptr &&
       core::resolve_precompute(run_config, in) ==
           core::PrecomputeDecision::kFast)
          ? in.precompute
          : nullptr;
  std::vector<core::PixelBest> best(static_cast<std::size_t>(w) * h);

  for (int hy_min = -nzs_y; hy_min <= nzs_y; hy_min += zseg) {
    const int hy_max = std::min(hy_min + zseg - 1, nzs_y);
    // The segment's correspondence table is the PE-resident mapping
    // layer: built once, read by every memory layer's lock-step sweep.
    const std::optional<core::SemiFluidTable> table =
        core::build_semifluid_table(in, run_config, pre != nullptr, hy_min,
                                    hy_max, track.timings,
                                    track.peak_mapping_bytes);
    const core::SemiFluidTable* fp = table ? &*table : nullptr;
    const imaging::ImageF* db = semifluid ? in.disc_before : nullptr;
    const imaging::ImageF* da = semifluid ? in.disc_after : nullptr;

    // One nested span per hypothesis-row segment, mirroring the host
    // tracker's "match"/"hypothesis_search" spans so both substrates
    // show the same per-segment structure on a trace timeline.
    obs::TraceSpan segment_span("match", "hypothesis_search");
    const auto t0 = std::chrono::steady_clock::now();
    for (int mem_layer = 0; mem_layer < map.layers(); ++mem_layer) {
      for (int iy = 0; iy < spec_.nyproc; ++iy) {
        for (int ix = 0; ix < spec_.nxproc; ++ix) {
          int x, y;
          map.to_xy(PixelLocation{ix, iy, mem_layer}, x, y);
          if (x < 0 || y < 0) continue;  // padding slot, PE idles
          core::scan_hypotheses(*in.before, *in.after, db, da, fp, x, y,
                                hy_min, hy_max, run_config,
                                best[static_cast<std::size_t>(y) * w + x],
                                in.mask_before, in.mask_after, pre);
        }
      }
    }
    track.timings.hypothesis_matching +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // --- Shared sub-pixel and products stages (bit-identical to the host
  // backends by construction; run_config carries the auto-chosen
  // segmentation, which does not affect results).
  if (options.subpixel)
    core::refine_subpixel(in, run_config, /*parallel=*/false, best,
                          track.timings);
  core::collect_track_result(in, run_config, options, best, track);
  report.flow = track.flow;

  // --- Modeled wall-clock and mesh traffic.
  core::Workload workload{w, h, run_config};
  const CostModel model(spec_);
  report.modeled = model.mp2_times(workload, image_count);
  report.modeled_sgi_total = model.sgi_times(workload, image_count).total();
  report.modeled_speedup =
      report.modeled_sgi_total / report.modeled.total();

  // Template-gather traffic: every tracked pixel touches geometry within
  // N_zT + N_zs + N_ss of itself; meter the multi-hop mesh cost of one
  // full gather per pixel under the hierarchical mapping.
  const int ext = run_config.z_template_radius + nzs_x + nss;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const std::uint64_t hops = neighborhood_hops(map, x, y, ext);
      report.comm.xnet_word_hops += hops;
      report.comm.xnet_words +=
          static_cast<std::uint64_t>(2 * ext + 1) * (2 * ext + 1);
    }

  report.host_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
  if (track_out != nullptr) {
    track.timings.total = track.timings.match_precompute +
                          track.timings.semifluid_mapping +
                          track.timings.hypothesis_matching;
    *track_out = std::move(track);
  }
  return report;
}

}  // namespace sma::maspar
