// bench_shard.cpp — halo-exchange tile sharding and the modeled cluster
// cost layer (src/shard/).
//
// The paper's Table 2 compares ONE algorithm across machines by
// replaying the same work under each machine's cost parameters (the
// MP-2's modeled 1025x over the sequential SGI baseline).  This bench
// is the decomposition-era analogue: the synthetic pair is tracked
// through the out-of-core shard runner at several tile grids, each
// grid's stitched field is verified bit-identical to the whole-frame
// run, and the MEASURED per-tile spans are replayed on modeled clusters
// of 1..1024 workers to report the speedup the decomposition would buy
// and the halo redundancy it pays for it.
//
// Usage: bench_shard [--size N] [--budget-mb N] [--repeat N]
//                    [--json PATH]
//
// The default 192x192 run finishes in seconds; `--size 4096
// --budget-mb 512` reproduces the README's out-of-core walkthrough
// (a ~128 MB float pair tracked without ever holding a whole frame's
// working set resident; minutes-scale).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "goes/synth.hpp"
#include "imaging/io.hpp"
#include "shard/costmodel.hpp"
#include "shard/plan.hpp"
#include "shard/runner.hpp"
#include "shard/stream.hpp"

using namespace sma;

namespace {

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Whole-field bit equality over all five planes.
bool identical(const imaging::FlowField& a, const imaging::FlowField& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      if (!(a.at(x, y) == b.at(x, y))) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int size = 192;
  int budget_mb = 0;
  int repeat = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc)
      size = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--budget-mb") == 0 && i + 1 < argc)
      budget_mb = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc)
      repeat = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = size >= 1024 ? 1 : 3;
  cfg.z_template_radius = size >= 1024 ? 1 : 3;
  cfg.max_resident_mb = budget_mb;

  bench::header("Shard decomposition bench (" + std::to_string(size) + "x" +
                std::to_string(size) + ", budget " +
                (budget_mb > 0 ? std::to_string(budget_mb) + " MiB"
                               : std::string("unlimited")) +
                ")");
  std::printf("  config: %s\n", cfg.describe().c_str());

  // Synthetic vortex pair, streamed from disk like a real GOES run.
  const imaging::ImageF before =
      goes::fractal_clouds(size, size, 9u, 5, size / 3.0);
  const goes::WindModel wind =
      goes::rankine_vortex(size / 2.0, size / 2.0, size / 5.0, 3.0);
  const imaging::ImageF after = goes::advect_frame(before, wind);
  const std::string before_path = temp_path("sma_bench_shard_before.pgm");
  const std::string after_path = temp_path("sma_bench_shard_after.pgm");
  imaging::write_pgm(before, before_path);
  imaging::write_pgm(after, after_path);

  // The bit-identity reference tracks the PGM round-trip of the pair —
  // the exact bytes the stream serves.  Skipped at 4k scale only if a
  // budget is set (the whole-frame run is what the budget forbids).
  imaging::FlowField reference;
  const bool check_identity = budget_mb == 0 || size <= 1024;
  if (check_identity) {
    const imaging::ImageF whole_before = imaging::read_pgm(before_path);
    const imaging::ImageF whole_after = imaging::read_pgm(after_path);
    reference =
        core::SmaPipeline(cfg).track_pair(whole_before, whole_after).flow;
  }

  const shard::ShardSpec grids[] = {{1, 1}, {2, 2}, {4, 4}};
  const int worker_counts[] = {1, 4, 16, 64, 1024};

  bench::JsonReport report;
  bench::add_environment_record(report);

  for (const shard::ShardSpec& grid : grids) {
    const shard::ShardPlan plan =
        shard::make_plan(size, size, grid, cfg, /*subpixel=*/false);
    shard::ShardResult best;
    for (int r = 0; r < repeat; ++r) {
      shard::TiledFrameStream stream(
          before_path, after_path, plan, {},
          static_cast<std::size_t>(budget_mb) * (1u << 20));
      shard::ShardOptions opts;
      opts.spec = grid;
      shard::ShardResult run = shard::shard_track_pair(stream, cfg, opts);
      if (r == 0 || run.report.compute_seconds < best.report.compute_seconds)
        best = std::move(run);
    }
    const shard::ShardReport& rep = best.report;
    const bool ok = !check_identity || identical(best.flow, reference);
    const double total_bytes =
        static_cast<double>(rep.core_bytes + rep.halo_bytes);
    const double halo_frac =
        total_bytes > 0.0 ? static_cast<double>(rep.halo_bytes) / total_bytes
                          : 0.0;

    std::printf(
        "\n  grid %dx%d: halo %dx%d px, compute %.3f s, halo bytes %.1f%%, "
        "%llu block reads, %llu cache hits, resident high-water %.2f MiB, "
        "stitched %s\n",
        grid.rows, grid.cols, plan.halo.x, plan.halo.y, rep.compute_seconds,
        100.0 * halo_frac,
        static_cast<unsigned long long>(rep.stream.block_reads),
        static_cast<unsigned long long>(rep.stream.cache_hits),
        static_cast<double>(rep.stream.resident_high_water) / (1 << 20),
        check_identity ? (ok ? "BIT-IDENTICAL" : "MISMATCH — BUG")
                       : "unverified (budgeted)");

    std::printf("    %-10s %14s %12s %14s\n", "workers", "makespan", "speedup",
                "halo overhead");
    for (const int workers : worker_counts) {
      shard::ClusterSpec spec;
      spec.workers = workers;
      const shard::ClusterEstimate est =
          shard::model_cluster(rep.spans, spec);
      std::printf("    %-10d %12.4f s %11.2fx %13.1f%%\n", workers,
                  est.makespan_seconds, est.speedup,
                  100.0 * est.halo_overhead);

      bench::JsonRecord& rec = report.add(
          "shard_" + std::to_string(grid.rows) + "x" +
          std::to_string(grid.cols) + "_w" + std::to_string(workers));
      rec.wall_ms = rep.compute_seconds * 1000.0;
      rec.pixels_per_s =
          rep.compute_seconds > 0.0
              ? static_cast<double>(size) * size / rep.compute_seconds
              : 0.0;
      rec.config = cfg.describe();
      rec.backend = "sequential";
      rec.extra("grid_rows", grid.rows)
          .extra("grid_cols", grid.cols)
          .extra("workers", workers)
          .extra("modeled_makespan_s", est.makespan_seconds)
          .extra("modeled_speedup", est.speedup)
          .extra("modeled_comm_s", est.comm_seconds)
          .extra("modeled_disk_s", est.disk_seconds)
          .extra("halo_overhead", est.halo_overhead)
          .extra("halo_px_x", plan.halo.x)
          .extra("halo_px_y", plan.halo.y)
          .extra("block_reads",
                 static_cast<double>(rep.stream.block_reads))
          .extra("cache_hits", static_cast<double>(rep.stream.cache_hits))
          .extra("resident_high_water_bytes",
                 static_cast<double>(rep.stream.resident_high_water))
          .extra("modeled_io_s", rep.stream.io_seconds)
          .extra("bit_identical", check_identity ? (ok ? 1.0 : 0.0) : -1.0)
          .extra("size", size)
          .extra("budget_mb", budget_mb);
    }
  }

  std::printf(
      "\n  paper anchor (Table 2): the MP-2's 1024-PE decomposition of the "
      "same\n  algorithm reached a modeled 1025x over the sequential "
      "baseline; the\n  modeled speedups above saturate where halo "
      "redundancy and the shared\n  disk array bound the decomposition, "
      "the same walls Sec. 4.3 hits.\n");

  std::remove(before_path.c_str());
  std::remove(after_path.c_str());

  if (!json_path.empty() && report.write(json_path))
    std::printf("\n  JSON -> %s\n", json_path.c_str());
  return 0;
}
