// sma_cli.cpp — command-line front end for the SMA library.
//
// Subcommands:
//   sma_cli synth  <prefix> [--frames N] [--size N]  write a demo cloud pair
//                                                (and an N-frame sequence
//                                                <prefix>_f0..f{N-1}.pgm)
//   sma_cli track  <before.pgm> <after.pgm> <out_flow.txt> [options]
//   sma_cli sequence <out_prefix> <f0.pgm> <f1.pgm>... [track options]
//                    track every consecutive pair through one pipeline
//                    (each frame fitted once); pair flows land in
//                    <out_prefix>_p1.txt .. _p{T-1}.txt, byte-identical
//                    to T-1 `sma_cli track` runs and to a served SEQ
//                    session over the same frames
//   sma_cli stereo <left.pgm> <right.pgm> <out_disparity.pfm> [options]
//
// track options:
//   --model cont|semi      motion model            (default semi)
//   --search N             z-search radius         (default 3)
//   --template N           z-template radius       (default 4)
//   --subpixel             parabolic refinement
//   --backend NAME         execution backend from the registry:
//                          sequential | vector (default) | maspar-sim
//   --threads N            width of the shared thread pool, 1..4096
//                          (default SMA_THREADS or the hardware count):
//                          every stage of the run shares these workers
//   --tile WxH             scheduler tile shape (default: autotuned)
//   --search-mode MODE     hypothesis search: full (default, the
//                          bit-exact exhaustive oracle) | pruned
//                          (coarse-to-fine seeding + per-pixel
//                          admission windows; tolerance-equal to full)
//   --prune-levels N       pruned mode: pyramid levels above full res
//                          for the coarse seeding pass (default 1)
//   --prune-radius N       pruned mode: fine window half-width around
//                          the upsampled coarse winner (default 1)
//   --shard RxC            halo-exchange tile sharding (src/shard/):
//                          split the pair into an RxC grid of haloed
//                          tiles streamed out-of-core from the input
//                          files, track per tile and stitch — output
//                          cmp-identical to the unsharded run
//   --max-resident-mb N    resident budget for the shard stream's tile
//                          cache + working crops (0 = unlimited)
//   --robust               robust post-processing
//   --ppm FILE             also write a color-wheel rendering
//   --inject-faults R      corrupt the input pair with rate-R telemetry
//                          faults (scan-line dropouts, bit noise, dead
//                          columns), then repair + mask before tracking
//   --fault-seed N         deterministic fault seed (default 1)
//   --trace FILE           write a Chrome trace_event JSON timeline of
//                          the run (open in chrome://tracing / Perfetto)
//   --metrics FILE         write the run's metrics registry as CSV
// stereo options:
//   --levels N             pyramid levels          (default 4)
//   --max-disparity N      coarsest search range   (default 8)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/match_vector.hpp"
#include "core/obs_bridge.hpp"
#include "core/sma.hpp"
#include "goes/synth.hpp"
#include "imaging/colorize.hpp"
#include "imaging/io.hpp"
#include "maspar/backend.hpp"
#include "maspar/sma_simd.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "serve/error.hpp"
#include "shard/costmodel.hpp"
#include "shard/runner.hpp"
#include "stereo/asa.hpp"
#include "stereo/refine.hpp"

namespace {

using namespace sma;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sma_cli synth  <prefix> [--frames N] [--size N]\n"
               "  sma_cli sequence <out_prefix> <f0.pgm> <f1.pgm>...\n"
               "                 [track options]\n"
               "  sma_cli track  <before.pgm> <after.pgm> <out_flow.txt>\n"
               "                 [--model cont|semi] [--search N]\n"
               "                 [--template N] [--subpixel]\n"
               "                 [--backend sequential|vector|maspar-sim]\n"
               "                 (default vector)\n"
               "                 [--robust] [--ppm FILE]\n"
               "                 [--threads N] [--tile WxH]\n"
               "                 [--search-mode full|pruned]\n"
               "                 [--prune-levels N] [--prune-radius N]\n"
               "                 [--shard RxC] [--max-resident-mb N]\n"
               "                 [--inject-faults RATE] [--fault-seed N]\n"
               "                 [--trace FILE] [--metrics FILE]\n"
               "  sma_cli stereo <left.pgm> <right.pgm> <out.pfm>\n"
               "                 [--levels N] [--max-disparity N]\n");
  return 2;
}

using serve::double_flag;
using serve::flag_value;
using serve::int_flag;
using serve::int_pair_flag;

int cmd_synth(int argc, char** argv) {
  const std::string prefix = argv[2];
  int frames = 0;
  int size = 96;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--frames") {
      frames = int_flag(argc, argv, i);
    } else if (a == "--size") {
      size = int_flag(argc, argv, i);
      if (size < 8) throw std::invalid_argument("--size must be >= 8");
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return usage();
    }
  }

  const imaging::ImageF f0 = goes::fractal_clouds(size, size, 7);
  const goes::WindModel wind =
      goes::rankine_vortex(size / 2.0, size / 2.0, size / 5.0, 2.0);
  const imaging::ImageF f1 = goes::advect_frame(f0, wind);
  imaging::write_pgm(f0, prefix + "_before.pgm");
  imaging::write_pgm(f1, prefix + "_after.pgm");
  std::printf("wrote %s_before.pgm and %s_after.pgm (%dx%d, vortex wind)\n",
              prefix.c_str(), prefix.c_str(), size, size);

  if (frames > 0) {
    // Advect repeatedly under the same wind: frame k is frame k-1 pushed
    // one step, so consecutive pairs all carry the vortex motion.
    imaging::ImageF frame = f0;
    for (int k = 0; k < frames; ++k) {
      const std::string path = prefix + "_f" + std::to_string(k) + ".pgm";
      imaging::write_pgm(frame, path);
      if (k + 1 < frames) frame = goes::advect_frame(frame, wind);
    }
    std::printf("wrote %d-frame sequence %s_f0.pgm .. %s_f%d.pgm\n", frames,
                prefix.c_str(), prefix.c_str(), frames - 1);
  }
  return 0;
}

/// Shared track/sequence CLI state: the config DEFAULTS here are the
/// ones sma_client mirrors, so served and one-shot runs stay
/// cmp-identical.
struct TrackCliOptions {
  core::SmaConfig cfg;
  core::TrackOptions opts;
  std::string backend = "vector";
  bool robust = false;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 1;
  std::string ppm_path;
  std::string trace_path;
  std::string metrics_path;
  int shard_rows = 0, shard_cols = 0;  ///< 0 = unsharded
  int threads = 0;  ///< shared pool width; 0 = leave it as started

  TrackCliOptions() {
    cfg.model = core::MotionModel::kSemiFluid;
    cfg.surface_fit_radius = 2;
    cfg.z_search_radius = 3;
    cfg.z_template_radius = 4;
    cfg.semifluid_search_radius = 1;
    cfg.semifluid_template_radius = 2;
  }
};

/// Parses the shared option tail starting at argv[first]; false on an
/// unknown option (the caller prints usage).  A valid --threads resizes
/// the shared pool once the whole tail has parsed, before any frame is
/// read, so every stage of the run shares that one budget.
bool parse_track_cli(int argc, char** argv, int first, TrackCliOptions& o) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--model") {
      const std::string m = flag_value(argc, argv, i);
      if (m == "cont")
        o.cfg.model = core::MotionModel::kContinuous;
      else if (m == "semi")
        o.cfg.model = core::MotionModel::kSemiFluid;
      else
        throw std::invalid_argument("--model expects cont|semi");
    } else if (a == "--search") {
      o.cfg.z_search_radius = int_flag(argc, argv, i);
    } else if (a == "--template") {
      o.cfg.z_template_radius = int_flag(argc, argv, i);
    } else if (a == "--subpixel") {
      o.opts.subpixel = true;
    } else if (a == "--backend") {
      o.backend = flag_value(argc, argv, i);
    } else if (a == "--threads") {
      // The range SMA_THREADS accepts (sched::ThreadPool::default_threads).
      o.threads = int_flag(argc, argv, i);
      if (o.threads < 1 || o.threads > 4096)
        throw std::invalid_argument("--threads expects 1..4096");
    } else if (a == "--tile") {
      std::tie(o.cfg.tile_width, o.cfg.tile_height) =
          int_pair_flag(argc, argv, i);
    } else if (a == "--search-mode") {
      const std::string m = flag_value(argc, argv, i);
      if (m == "full")
        o.cfg.search_mode = core::SearchMode::kFull;
      else if (m == "pruned")
        o.cfg.search_mode = core::SearchMode::kPruned;
      else
        throw std::invalid_argument("--search-mode expects full|pruned");
    } else if (a == "--prune-levels") {
      o.cfg.prune_coarse_levels = int_flag(argc, argv, i);
    } else if (a == "--prune-radius") {
      o.cfg.prune_refine_radius = int_flag(argc, argv, i);
    } else if (a == "--shard") {
      std::tie(o.shard_rows, o.shard_cols) = int_pair_flag(argc, argv, i);
      if (o.shard_rows < 1 || o.shard_cols < 1)
        throw std::invalid_argument("--shard expects RxC with R, C >= 1");
    } else if (a == "--max-resident-mb") {
      o.cfg.max_resident_mb = int_flag(argc, argv, i);
    } else if (a == "--robust") {
      o.robust = true;
    } else if (a == "--ppm") {
      o.ppm_path = flag_value(argc, argv, i);
    } else if (a == "--inject-faults") {
      o.fault_rate = double_flag(argc, argv, i);
    } else if (a == "--fault-seed") {
      o.fault_seed = static_cast<std::uint64_t>(int_flag(argc, argv, i));
    } else if (a == "--trace") {
      o.trace_path = flag_value(argc, argv, i);
    } else if (a == "--metrics") {
      o.metrics_path = flag_value(argc, argv, i);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return false;
    }
  }
  if (o.threads > 0) sched::ThreadPool::shared().resize(o.threads);
  return true;
}

/// The --shard path: the frames stay on disk and stream through the
/// out-of-core tile cache; each haloed crop is tracked independently
/// and the stitched flow is written through the same serializer, so the
/// output file is cmp-identical to the unsharded run.
int run_shard_track(const std::string& before_path,
                    const std::string& after_path,
                    const std::string& out_path,
                    const TrackCliOptions& cli) {
  maspar::register_maspar_backend();
  shard::ShardOptions sopts;
  sopts.spec = shard::ShardSpec{cli.shard_rows, cli.shard_cols};
  sopts.backend = cli.backend;
  sopts.track = cli.opts;
  sopts.robust = cli.robust;

  const imaging::RasterHeader header =
      imaging::read_raster_header(before_path);
  const shard::ShardPlan plan =
      shard::make_plan(header.width, header.height, sopts.spec, cli.cfg,
                       cli.opts.subpixel);
  const std::size_t budget_bytes =
      static_cast<std::size_t>(cli.cfg.max_resident_mb) * (1u << 20);
  shard::TiledFrameStream stream(before_path, after_path, plan, {},
                                 budget_bytes);
  std::printf("tracking %dx%d pair [backend %s, shard %dx%d, halo %dx%d]: "
              "%s\n",
              header.width, header.height, sopts.backend.c_str(),
              sopts.spec.rows, sopts.spec.cols, plan.halo.x, plan.halo.y,
              cli.cfg.describe().c_str());

  const shard::ShardResult r = shard_track_pair(stream, cli.cfg, sopts);
  imaging::write_flow_text(r.flow, out_path);
  const shard::ShardReport& rep = r.report;
  std::printf("tracked in %.2f s; %zu/%d valid vectors -> %s\n",
              rep.compute_seconds + rep.read_seconds, r.flow.count_valid(),
              r.flow.width() * r.flow.height(), out_path.c_str());
  std::printf("shard: %d tiles, halo bytes %llu of %llu (%.1f%%), "
              "%llu block reads, %llu cache hits, resident high-water "
              "%.2f MiB, modeled io %.3f s\n",
              rep.tiles, static_cast<unsigned long long>(rep.halo_bytes),
              static_cast<unsigned long long>(rep.core_bytes +
                                              rep.halo_bytes),
              rep.core_bytes + rep.halo_bytes > 0
                  ? 100.0 * static_cast<double>(rep.halo_bytes) /
                        static_cast<double>(rep.core_bytes + rep.halo_bytes)
                  : 0.0,
              static_cast<unsigned long long>(rep.stream.block_reads),
              static_cast<unsigned long long>(rep.stream.cache_hits),
              static_cast<double>(rep.stream.resident_high_water) /
                  (1 << 20),
              rep.stream.io_seconds);
  if (!cli.ppm_path.empty()) {
    imaging::write_ppm(imaging::colorize_flow(r.flow), cli.ppm_path);
    std::printf("color rendering -> %s\n", cli.ppm_path.c_str());
  }
  if (!cli.metrics_path.empty()) {
    obs::MetricsRegistry reg;
    shard::publish_metrics(rep, reg);
    if (reg.write_csv(cli.metrics_path))
      std::printf("metrics (%zu) -> %s\n", reg.size(),
                  cli.metrics_path.c_str());
  }
  return 0;
}

int cmd_track(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string before_path = argv[2];
  const std::string after_path = argv[3];
  const std::string out_path = argv[4];

  TrackCliOptions cli;
  if (!parse_track_cli(argc, argv, 5, cli)) return usage();
  if (cli.shard_rows > 0) {
    // No mask channel flows through a TileSource, so the corrupt ->
    // repair -> masked-track path cannot shard.
    if (cli.fault_rate > 0.0)
      throw std::invalid_argument(
          "--shard cannot be combined with --inject-faults");
    if (!cli.trace_path.empty())
      throw std::invalid_argument("--shard does not support --trace");
    return run_shard_track(before_path, after_path, out_path, cli);
  }
  core::SmaConfig& cfg = cli.cfg;
  const bool robust = cli.robust;
  const double fault_rate = cli.fault_rate;
  const std::uint64_t fault_seed = cli.fault_seed;
  const std::string& ppm_path = cli.ppm_path;
  const std::string& trace_path = cli.trace_path;
  const std::string& metrics_path = cli.metrics_path;

  imaging::ImageF before = imaging::read_pgm(before_path);
  imaging::ImageF after = imaging::read_pgm(after_path);

  maspar::register_maspar_backend();
  core::PipelineOptions popts;
  popts.backend = cli.backend;
  popts.track = cli.opts;
  popts.robust = robust;
  core::SmaPipeline pipeline(cfg, popts);
  std::printf("tracking %dx%d pair [backend %s]: %s\n", before.width(),
              before.height(), pipeline.backend().name().c_str(),
              cfg.describe().c_str());

  // Tracing is opt-in: install a recorder only when --trace asks for one
  // (the disabled path is a null-check per span).
  std::optional<obs::TraceRecorder> recorder;
  if (!trace_path.empty()) {
    recorder.emplace();
    obs::set_trace_recorder(&*recorder);
  }

  core::TrackResult r;
  core::FaultLog fault_log;
  if (fault_rate > 0.0) {
    // Degraded-input path: corrupt, repair, and track with the masks.
    core::FaultSpec fspec;
    fspec.seed = fault_seed;
    fspec.scanline_dropout_rate = fault_rate;
    fspec.bit_noise_rate = fault_rate / 5.0;
    fspec.dead_column_rate = fault_rate / 10.0;
    const core::FaultInjector injector(fspec);
    injector.corrupt_frame(before, 0, &fault_log);
    injector.corrupt_frame(after, 1, &fault_log);
    std::printf("injected faults (seed %llu): %s\n",
                static_cast<unsigned long long>(fault_seed),
                fault_log.summary().c_str());
    const imaging::RepairReport rep0 = imaging::repair_frame(before);
    const imaging::RepairReport rep1 = imaging::repair_frame(after);
    std::printf(
        "repair: %zu+%zu lines interpolated, %zu+%zu masked, "
        "%d+%d pixels despiked\n",
        rep0.repaired_rows.size() + rep0.repaired_cols.size(),
        rep1.repaired_rows.size() + rep1.repaired_cols.size(),
        rep0.masked_rows.size() + rep0.masked_cols.size(),
        rep1.masked_rows.size() + rep1.masked_cols.size(),
        rep0.despiked_pixels, rep1.despiked_pixels);
    core::TrackerInput in;
    in.intensity_before = in.surface_before = &rep0.image;
    in.intensity_after = in.surface_after = &rep1.image;
    in.validity_before = rep0.masked() ? &rep0.validity : nullptr;
    in.validity_after = rep1.masked() ? &rep1.validity : nullptr;
    r = pipeline.track_pair(in);
  } else {
    r = pipeline.track_pair(before, after);
  }
  imaging::FlowField flow = std::move(r.flow);

  imaging::write_flow_text(flow, out_path);
  std::printf("tracked in %.2f s; %zu/%d valid vectors -> %s\n",
              r.timings.total, flow.count_valid(),
              flow.width() * flow.height(), out_path.c_str());
  if (const auto* mp =
          dynamic_cast<const maspar::MasParBackendExtras*>(r.extras.get()))
    std::printf("modeled MP-2: %.3f s (%.1fx over modeled SGI)\n",
                mp->report.modeled.total(), mp->report.modeled_speedup);
  if (const auto* vx =
          dynamic_cast<const core::VectorBackendExtras*>(r.extras.get())) {
    if (vx->report.vector_path)
      std::printf("vector dispatch: %s (%d lanes), lane utilization %.3f\n",
                  vx->report.level.c_str(), vx->report.lanes,
                  vx->report.lane_utilization);
    else
      std::printf("vector backend fell back to the staged path (%s)\n",
                  vx->report.fallback.c_str());
  }
  // Pruned-search accounting rides on every backend's extras.
  const core::PruneReport& prune = r.extras->prune;
  if (prune.active != 0)
    std::printf(
        "pruned search: %llu of %llu hypotheses (%.1fx reduction), "
        "seed hit rate %.3f\n",
        static_cast<unsigned long long>(prune.hypotheses_evaluated()),
        static_cast<unsigned long long>(prune.full_grid_hypotheses),
        prune.reduction(), prune.seed_hit_rate());
  if (cli.opts.subpixel)
    std::printf(
        "sub-pixel: %.3f s, %llu probes evaluated, %llu read from the "
        "search\n",
        r.timings.subpixel_refine,
        static_cast<unsigned long long>(r.subpixel_probes.evaluated),
        static_cast<unsigned long long>(r.subpixel_probes.reused));
  if (!ppm_path.empty()) {
    imaging::write_ppm(imaging::colorize_flow(flow), ppm_path);
    std::printf("color rendering -> %s\n", ppm_path.c_str());
  }

  if (recorder) {
    obs::set_trace_recorder(nullptr);
    if (recorder->write_chrome_trace(trace_path))
      std::printf("trace (%zu spans) -> %s\n", recorder->events().size(),
                  trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    // Fold every subsystem's tallies into the pipeline registry before
    // snapshotting: the per-pair timings, the fault layer and the
    // backend-specific reports (maspar machine model, vector lane
    // occupancy).
    obs::MetricsRegistry& reg = pipeline.metrics();
    core::publish_metrics(r.timings, reg);
    core::publish_metrics(r.subpixel_probes, reg);
    core::publish_metrics(sched::ThreadPool::shared().stats(), reg);
    if (fault_rate > 0.0) core::publish_metrics(fault_log, reg);
    if (const auto* mp =
            dynamic_cast<const maspar::MasParBackendExtras*>(r.extras.get()))
      maspar::publish_metrics(mp->report, reg);
    if (const auto* vx =
            dynamic_cast<const core::VectorBackendExtras*>(r.extras.get()))
      core::publish_metrics(vx->report, reg);
    if (prune.active != 0) core::publish_metrics(prune, reg);
    obs::RunReport report = pipeline.run_report();
    report.name = "sma_cli track";
    if (report.write_metrics_csv(metrics_path))
      std::printf("metrics (%zu) -> %s\n", report.metrics.size(),
                  metrics_path.c_str());
  }
  return 0;
}

int cmd_sequence(int argc, char** argv) {
  if (argc < 5) return usage();  // sequence <prefix> + at least two frames
  const std::string out_prefix = argv[2];
  std::vector<std::string> frame_paths;
  int i = 3;
  for (; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) break;
    frame_paths.emplace_back(argv[i]);
  }
  if (frame_paths.size() < 2) {
    std::fprintf(stderr, "sequence needs at least two frames\n");
    return usage();
  }

  TrackCliOptions cli;
  if (!parse_track_cli(argc, argv, i, cli)) return usage();

  std::vector<imaging::ImageF> frames;
  frames.reserve(frame_paths.size());
  for (const std::string& path : frame_paths)
    frames.push_back(imaging::read_pgm(path));

  maspar::register_maspar_backend();
  core::PipelineOptions popts;
  popts.backend = cli.backend;
  popts.track = cli.opts;
  popts.robust = cli.robust;
  core::SmaPipeline pipeline(cli.cfg, popts);
  std::printf("tracking %zu-frame sequence (%dx%d) [backend %s]: %s\n",
              frames.size(), frames[0].width(), frames[0].height(),
              pipeline.backend().name().c_str(),
              cli.cfg.describe().c_str());

  const core::SequenceResult result = pipeline.track_sequence(frames);
  for (std::size_t k = 0; k < result.flows.size(); ++k) {
    const std::string out_path =
        out_prefix + "_p" + std::to_string(k + 1) + ".txt";
    imaging::write_flow_text(result.flows[k], out_path);
    std::printf("pair %zu: %zu/%d valid vectors -> %s\n", k + 1,
                result.flows[k].count_valid(),
                result.flows[k].width() * result.flows[k].height(),
                out_path.c_str());
  }
  const core::PipelineStats& stats = pipeline.stats();
  std::printf("sequence tracked in %.2f s (%llu surface fits for %zu "
              "frames, %llu cache hits)\n",
              result.total_seconds(),
              static_cast<unsigned long long>(stats.surface_fits),
              frames.size(),
              static_cast<unsigned long long>(stats.cache_hits));
  return 0;
}

int cmd_stereo(int argc, char** argv) {
  if (argc < 5) return usage();
  const imaging::ImageF left = imaging::read_pgm(argv[2]);
  imaging::ImageF right = imaging::read_pgm(argv[3]);
  const std::string out_path = argv[4];

  stereo::AsaOptions opts;
  for (int i = 5; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--levels")
      opts.levels = int_flag(argc, argv, i);
    else if (a == "--max-disparity")
      opts.max_disparity = int_flag(argc, argv, i);
    else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return usage();
    }
  }

  // Minimal rectification: remove any global vertical misalignment.
  const int dy = stereo::estimate_vertical_offset(left, right, 4);
  if (dy != 0) {
    std::printf("rectifying vertical offset of %d rows\n", dy);
    right = stereo::shift_vertical(right, dy);
  }
  stereo::DisparityMap map = stereo::asa_disparity(left, right, opts);
  map = stereo::median_filter_disparity(map, 1);
  stereo::fill_invalid_disparity(map, 1);
  imaging::write_pfm(map.disparity, out_path);
  std::printf("disparity map -> %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "synth" && argc >= 3) return cmd_synth(argc, argv);
    if (cmd == "track") return cmd_track(argc, argv);
    if (cmd == "sequence") return cmd_sequence(argc, argv);
    if (cmd == "stereo") return cmd_stereo(argc, argv);
  } catch (const std::exception& e) {
    // Map onto the serve error taxonomy so scripts distinguish bad
    // flags (2) from missing files (3) from bugs (4) — the same codes
    // sma_serve / sma_client exit with (serve/error.hpp).
    const sma::serve::ServeError code = sma::serve::classify_exception(e);
    std::fprintf(stderr, "error (%s): %s\n",
                 sma::serve::serve_error_name(code), e.what());
    return sma::serve::exit_code(code);
  }
  return usage();
}
