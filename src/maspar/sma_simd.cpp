#include "maspar/sma_simd.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

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

core::TrackResult MasParExecutor::run_matching(
    const core::MatchInput& in, const core::SmaConfig& config,
    int image_count, const core::TrackOptions& options,
    SimdRunReport& report, core::PruneReport* prune) const {
  config.validate();
  if (in.before == nullptr || in.after == nullptr)
    throw std::invalid_argument("MasParExecutor: null geometry input");

  obs::TraceSpan run_span("maspar", "simd_matching");
  const int w = in.width();
  const int h = in.height();

  // --- Sec. 4.3 memory planning.  Only the F_semi correspondence table
  // grows with the segment height Z, so only an active semi-fluid remap
  // auto-chooses Z; F_cont keeps the unsegmented search.
  core::PeMemoryModel mem;
  const HierarchicalMap map(w, h, spec_);
  mem.xvr = map.xvr();
  mem.yvr = map.yvr();
  const bool semifluid = config.model == core::MotionModel::kSemiFluid &&
                         config.semifluid_search_radius > 0 &&
                         in.disc_before != nullptr && in.disc_after != nullptr;
  core::SmaConfig run_config = config;
  if (semifluid && run_config.segment_rows == 0) {
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

  // --- SIMD schedule: the shared matching stage walks the hypothesis-row
  // segments outermost (the segment's correspondence table is the
  // PE-resident mapping layer, built once and read by every memory
  // layer); each segment visits the memory layers, then the PE array in
  // lock step.  run_config carries the auto-chosen segmentation, which
  // does not affect results.
  const auto visit = [&](const core::MatchSegment& seg) {
    for (int mem_layer = 0; mem_layer < map.layers(); ++mem_layer)
      for (int iy = 0; iy < spec_.nyproc; ++iy)
        for (int ix = 0; ix < spec_.nxproc; ++ix) {
          int x, y;
          map.to_xy(PixelLocation{ix, iy, mem_layer}, x, y);
          if (x < 0 || y < 0) continue;  // padding slot, PE idles
          core::scan_hypotheses(*in.before, *in.after, in.disc_before,
                                in.disc_after, seg.table, x, y, seg.hy_min,
                                seg.hy_max, run_config,
                                seg.best[static_cast<std::size_t>(y) * w + x],
                                in.mask_before, in.mask_after, seg.pre);
        }
  };
  const auto t0 = std::chrono::steady_clock::now();
  core::TrackResult track = core::run_matching_stage(
      in, run_config, options, /*parallel=*/false, visit, prune);
  report.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
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
  const int ext = run_config.z_template_radius + run_config.z_search_radius +
                  run_config.effective_nss();
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const std::uint64_t hops = neighborhood_hops(map, x, y, ext);
      report.comm.xnet_word_hops += hops;
      report.comm.xnet_words +=
          static_cast<std::uint64_t>(2 * ext + 1) * (2 * ext + 1);
    }
  return track;
}

}  // namespace sma::maspar
