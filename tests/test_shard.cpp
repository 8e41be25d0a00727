// test_shard.cpp — halo-exchange tile sharding (src/shard/).
//
// The load-bearing properties, in dependency order:
//  * the windowed raster readers return crops BIT-IDENTICAL to the
//    whole-file readers on every supported format — the out-of-core
//    stream is built on that;
//  * make_plan partitions the frame exactly, clamps crops, and rejects
//    grids / resident budgets that cannot work;
//  * the stitched shard result is BIT-IDENTICAL (all five flow planes)
//    to the whole-frame run for every backend x model x search mode x
//    grid — including non-divisible grids;
//  * the out-of-core stream serves the same bits as the in-memory
//    source and stays under its byte budget, and the cost model replays
//    spans deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/postprocess.hpp"
#include "goes/synth.hpp"
#include "helpers.hpp"
#include "imaging/io.hpp"
#include "obs/metrics.hpp"
#include "shard/costmodel.hpp"
#include "shard/plan.hpp"
#include "shard/runner.hpp"
#include "shard/stream.hpp"

namespace sma::shard {
namespace {

constexpr int kW = 46;
constexpr int kH = 38;

const imaging::ImageF& frame0() {
  // Integer-valued texture so 8-bit PGM round-trips are exact.
  static const imaging::ImageF f = [] {
    imaging::ImageF img = goes::fractal_clouds(kW, kH, 7u, 4, kW / 3.0);
    for (int y = 0; y < img.height(); ++y)
      for (int x = 0; x < img.width(); ++x)
        img.at(x, y) = static_cast<float>(
            static_cast<int>(img.at(x, y) * 255.0f) % 256);
    return img;
  }();
  return f;
}

const imaging::ImageF& frame1() {
  static const imaging::ImageF f = testing::shift_image(frame0(), 2, -1);
  return f;
}

core::SmaConfig continuous_config() {
  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 2;
  cfg.z_template_radius = 3;
  return cfg;
}

core::SmaConfig semifluid_config() {
  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kSemiFluid;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 2;
  cfg.z_template_radius = 3;
  cfg.semifluid_search_radius = 1;
  cfg.semifluid_template_radius = 2;
  return cfg;
}

imaging::FlowField whole_frame(const std::string& backend,
                               const core::SmaConfig& cfg,
                               const core::TrackOptions& topts = {}) {
  return core::SmaPipeline(cfg, {.backend = backend, .track = topts})
      .track_pair(frame0(), frame1())
      .flow;
}

/// Bit-equality over ALL FIVE planes (FlowField::operator== only covers
/// u, v, valid — the stitching contract promises error and confidence
/// too).
void expect_identical(const imaging::FlowField& a, const imaging::FlowField& b,
                      const std::string& label) {
  ASSERT_EQ(a.width(), b.width()) << label;
  ASSERT_EQ(a.height(), b.height()) << label;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x) {
      const imaging::FlowVector va = a.at(x, y);
      const imaging::FlowVector vb = b.at(x, y);
      ASSERT_EQ(va.u, vb.u) << label << " u at " << x << "," << y;
      ASSERT_EQ(va.v, vb.v) << label << " v at " << x << "," << y;
      ASSERT_EQ(va.error, vb.error) << label << " error at " << x << "," << y;
      ASSERT_EQ(va.valid, vb.valid) << label << " valid at " << x << "," << y;
      ASSERT_EQ(va.confidence, vb.confidence)
          << label << " confidence at " << x << "," << y;
    }
}

// --------------------------------------------------------------------------
// Plan geometry.
// --------------------------------------------------------------------------

TEST(ShardPlan, HaloFollowsTheSizingRule) {
  const core::SmaConfig cont = continuous_config();
  // N_zT + N_zs + N_z + slack 2, no semi-fluid terms, no subpixel probe.
  const HaloRadii h = halo_radii(cont, /*subpixel=*/false);
  EXPECT_EQ(h.x, 3 + 2 + 2 + 2);
  EXPECT_EQ(h.y, 3 + 2 + 2 + 2);
  EXPECT_EQ(halo_radii(cont, /*subpixel=*/true).x, h.x + 1);

  const core::SmaConfig semi = semifluid_config();
  const HaloRadii hs = halo_radii(semi, /*subpixel=*/false);
  EXPECT_EQ(hs.x, h.x + 1 + 2);  // + N_ss + N_sT

  core::SmaConfig rect = cont;
  rect.z_search_radius_y = 4;
  rect.z_template_radius_y = 5;
  const HaloRadii hr = halo_radii(rect, /*subpixel=*/false);
  EXPECT_EQ(hr.x, h.x);
  EXPECT_EQ(hr.y, 5 + 4 + 2 + 2);
}

TEST(ShardPlan, TilesPartitionTheFrame) {
  const core::SmaConfig cfg = continuous_config();
  const ShardPlan plan = make_plan(kW, kH, ShardSpec{3, 2}, cfg, false);
  ASSERT_EQ(plan.tiles.size(), 6u);
  std::vector<int> owner(static_cast<std::size_t>(kW) * kH, -1);
  for (const Tile& t : plan.tiles) {
    EXPECT_EQ(plan.tiles[static_cast<std::size_t>(t.index)].index, t.index);
    EXPECT_LE(t.cx0, t.x0);
    EXPECT_GE(t.cx1, t.x1);
    EXPECT_GE(t.x0 - t.cx0, 0);
    EXPECT_LE(t.x0 - t.cx0, plan.halo.x);
    for (int y = t.y0; y < t.y1; ++y)
      for (int x = t.x0; x < t.x1; ++x) {
        EXPECT_EQ(owner[static_cast<std::size_t>(y) * kW + x], -1)
            << "double-owned pixel " << x << "," << y;
        owner[static_cast<std::size_t>(y) * kW + x] = t.index;
      }
  }
  for (int i = 0; i < kW * kH; ++i)
    EXPECT_NE(owner[static_cast<std::size_t>(i)], -1) << "orphan pixel " << i;
}

TEST(ShardPlan, RejectsBadGridsAndTinyBudgets) {
  const core::SmaConfig cfg = continuous_config();
  EXPECT_THROW(make_plan(kW, kH, ShardSpec{0, 2}, cfg, false),
               std::invalid_argument);
  EXPECT_THROW(make_plan(kW, kH, ShardSpec{2, kW + 1}, cfg, false),
               std::invalid_argument);

  core::SmaConfig tiny = cfg;
  tiny.max_resident_mb = 1;
  // A 1x1 grid of a frame needing more than 1 MiB of working set fails;
  // the same budget with enough tiles passes.
  EXPECT_THROW(make_plan(1024, 1024, ShardSpec{1, 1}, tiny, false),
               std::invalid_argument);
  EXPECT_NO_THROW(make_plan(1024, 1024, ShardSpec{8, 8}, tiny, false));
}

// --------------------------------------------------------------------------
// Windowed raster readers.
// --------------------------------------------------------------------------

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "sma_shard_" + name;
}

void write_pgm16(const imaging::ImageF& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out << "P5\n" << img.width() << " " << img.height() << "\n65535\n";
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      const int v = static_cast<int>(img.at(x, y)) * 200;  // exercise >255
      out.put(static_cast<char>((v >> 8) & 0xff));
      out.put(static_cast<char>(v & 0xff));
    }
}

void write_pgm_ascii(const imaging::ImageF& img, const std::string& path) {
  std::ofstream out(path);
  out << "P2\n" << img.width() << " " << img.height() << "\n255\n";
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x)
      out << static_cast<int>(img.at(x, y)) << (x + 1 < img.width() ? " " : "");
    out << "\n";
  }
}

TEST(RasterWindow, BitIdenticalToWholeFileReaders) {
  struct Case {
    std::string path;
    imaging::ImageF whole;
  };
  std::vector<Case> cases;

  const std::string p8 = tmp_path("w8.pgm");
  imaging::write_pgm(frame0(), p8);
  cases.push_back({p8, imaging::read_pgm(p8)});

  const std::string p16 = tmp_path("w16.pgm");
  write_pgm16(frame0(), p16);
  cases.push_back({p16, imaging::read_pgm(p16)});

  const std::string p2 = tmp_path("w2.pgm");
  write_pgm_ascii(frame0(), p2);
  cases.push_back({p2, imaging::read_pgm(p2)});

  const std::string pf = tmp_path("w.pfm");
  imaging::write_pfm(frame0(), pf);
  cases.push_back({pf, imaging::read_pfm(pf)});

  const int windows[][4] = {
      {0, 0, kW, kH}, {0, 0, 7, 5}, {kW - 7, kH - 5, 7, 5}, {11, 9, 13, 17}};
  for (const Case& c : cases) {
    const imaging::RasterHeader h = imaging::read_raster_header(c.path);
    ASSERT_EQ(h.width, kW) << c.path;
    ASSERT_EQ(h.height, kH) << c.path;
    for (const auto& w : windows) {
      const imaging::ImageF win =
          imaging::read_raster_window(c.path, h, w[0], w[1], w[2], w[3]);
      for (int y = 0; y < w[3]; ++y)
        for (int x = 0; x < w[2]; ++x)
          ASSERT_EQ(win.at(x, y), c.whole.at(w[0] + x, w[1] + y))
              << c.path << " window at " << w[0] + x << "," << w[1] + y;
    }
    EXPECT_THROW(imaging::read_raster_window(c.path, h, kW - 3, 0, 4, 2),
                 std::runtime_error);
  }
}

// --------------------------------------------------------------------------
// Stitching bit-identity: the tentpole invariant.
// --------------------------------------------------------------------------

TEST(ShardStitch, BitIdenticalAcrossGridsAndBackends) {
  const ShardSpec grids[] = {{1, 1}, {2, 2}, {3, 2}};
  const char* backends[] = {"sequential", "vector"};
  for (const core::SmaConfig& cfg :
       {continuous_config(), semifluid_config()}) {
    for (const char* backend : backends) {
      const imaging::FlowField whole = whole_frame(backend, cfg);
      for (const ShardSpec& grid : grids) {
        InMemoryTileSource src(frame0(), frame1());
        ShardOptions opts;
        opts.spec = grid;
        opts.backend = backend;
        const ShardResult r = shard_track_pair(src, cfg, opts);
        EXPECT_EQ(r.report.tiles, grid.rows * grid.cols);
        expect_identical(r.flow, whole,
                         std::string(backend) + " " +
                             std::to_string(grid.rows) + "x" +
                             std::to_string(grid.cols));
      }
    }
  }
}

TEST(ShardStitch, BitIdenticalInPrunedModeViaInjectedSeeds) {
  core::SmaConfig cfg = continuous_config();
  cfg.search_mode = core::SearchMode::kPruned;
  for (const char* backend : {"sequential", "vector"}) {
    const imaging::FlowField whole = whole_frame(backend, cfg);
    for (const ShardSpec& grid : {ShardSpec{2, 2}, ShardSpec{3, 2}}) {
      InMemoryTileSource src(frame0(), frame1());
      ShardOptions opts;
      opts.spec = grid;
      opts.backend = backend;
      const ShardResult r = shard_track_pair(src, cfg, opts);
      expect_identical(r.flow, whole,
                       std::string("pruned/") + backend + " " +
                           std::to_string(grid.rows) + "x" +
                           std::to_string(grid.cols));
    }
  }
}

TEST(ShardStitch, SubpixelAndRobustMatchThePipelineRecipe) {
  const core::SmaConfig cfg = continuous_config();
  core::TrackOptions topts;
  topts.subpixel = true;
  imaging::FlowField whole = whole_frame("sequential", cfg, topts);
  whole = core::robust_postprocess(whole);

  InMemoryTileSource src(frame0(), frame1());
  ShardOptions opts;
  opts.spec = {2, 2};
  opts.track = topts;
  opts.robust = true;
  const ShardResult r = shard_track_pair(src, cfg, opts);
  expect_identical(r.flow, whole, "subpixel+robust 2x2");
}

// --------------------------------------------------------------------------
// Out-of-core stream.
// --------------------------------------------------------------------------

struct StreamFixture {
  std::string before_path = tmp_path("stream_before.pgm");
  std::string after_path = tmp_path("stream_after.pgm");
  StreamFixture() {
    imaging::write_pgm(frame0(), before_path);
    imaging::write_pgm(frame1(), after_path);
  }
};

TEST(TiledFrameStream, ServesTheSameBitsAsMemoryAndExchangesHalos) {
  const StreamFixture fx;
  const core::SmaConfig cfg = continuous_config();
  const ShardPlan plan = make_plan(kW, kH, ShardSpec{2, 2}, cfg, false);
  TiledFrameStream stream(fx.before_path, fx.after_path, plan);

  const imaging::FlowField whole = whole_frame("sequential", cfg);
  ShardOptions opts;
  opts.spec = {2, 2};
  const ShardResult r = shard_track_pair(stream, cfg, opts);
  expect_identical(r.flow, whole, "streamed 2x2");

  const ShardStreamStats& st = r.report.stream;
  EXPECT_EQ(st.block_reads, 8u);  // 4 tiles x 2 frames, each loaded once
  EXPECT_GT(st.cache_hits, 0u);   // halo pixels hit the neighbors' blocks
  EXPECT_GT(st.bytes_read, 0u);
  EXPECT_GT(st.io_seconds, 0.0);
  EXPECT_GT(st.resident_high_water, 0u);
}

TEST(TiledFrameStream, StaysUnderTheResidentBudget) {
  const StreamFixture fx;
  const core::SmaConfig cfg = continuous_config();
  const ShardPlan plan = make_plan(kW, kH, ShardSpec{3, 3}, cfg, false);
  std::size_t max_crop = 0;
  for (const Tile& t : plan.tiles)
    max_crop = std::max(max_crop, static_cast<std::size_t>(t.crop_width()) *
                                      t.crop_height());
  // The planner's floor: two working crops plus two crops of cache.
  const std::size_t budget = 4 * max_crop * sizeof(float);
  ASSERT_LT(budget, 2u * kW * kH * sizeof(float) * 2u)
      << "budget must be smaller than keeping both frames resident";
  TiledFrameStream stream(fx.before_path, fx.after_path, plan, {}, budget);

  const imaging::FlowField whole = whole_frame("sequential", cfg);
  ShardOptions opts;
  opts.spec = {3, 3};
  const ShardResult r = shard_track_pair(stream, cfg, opts);
  expect_identical(r.flow, whole, "budgeted 3x3");
  EXPECT_LE(r.report.stream.resident_high_water, budget);
  // The budget forces evictions, so some blocks stream more than once.
  EXPECT_GT(r.report.stream.block_reads, plan.tiles.size() * 2);
}

// --------------------------------------------------------------------------
// Cost model and metrics.
// --------------------------------------------------------------------------

std::vector<TileSpan> synthetic_spans() {
  std::vector<TileSpan> spans;
  for (int i = 0; i < 16; ++i) {
    TileSpan s;
    s.tile_index = i;
    s.compute_seconds = 0.5 + 0.05 * (i % 4);
    s.core_bytes = 1 << 20;
    s.halo_bytes = 1 << 18;
    spans.push_back(s);
  }
  return spans;
}

TEST(CostModel, SerialReplayAndMonotonicSpeedup) {
  const std::vector<TileSpan> spans = synthetic_spans();
  ClusterSpec spec;
  spec.workers = 1;
  const ClusterEstimate one = model_cluster(spans, spec);
  EXPECT_NEAR(one.serial_seconds, one.makespan_seconds - one.comm_seconds,
              1e-9);
  EXPECT_LT(one.speedup, 1.0 + 1e-9);
  EXPECT_NEAR(one.halo_overhead, 0.2, 1e-12);  // 2^18 / (2^20 + 2^18)

  double prev = 0.0;
  for (const int w : {1, 4, 16}) {
    spec.workers = w;
    const ClusterEstimate est = model_cluster(spans, spec);
    EXPECT_GE(est.speedup, prev);
    EXPECT_LE(est.speedup, static_cast<double>(w) + 1e-9);
    prev = est.speedup;
    // Deterministic: the same replay twice gives the same numbers.
    const ClusterEstimate again = model_cluster(spans, spec);
    EXPECT_EQ(est.makespan_seconds, again.makespan_seconds);
    EXPECT_EQ(est.speedup, again.speedup);
  }

  spec.workers = 0;
  EXPECT_THROW(model_cluster(spans, spec), std::invalid_argument);
  spec.workers = 2;
  spec.disk_bandwidth = 0.0;
  EXPECT_THROW(model_cluster(spans, spec), std::invalid_argument);
}

TEST(CostModel, DiskBandwidthFloorsTheMakespan) {
  const std::vector<TileSpan> spans = synthetic_spans();
  ClusterSpec spec;
  spec.workers = 1024;
  spec.disk_bandwidth = 1.0e6;  // 1 MB/s: the disk dominates
  const ClusterEstimate est = model_cluster(spans, spec);
  EXPECT_GE(est.makespan_seconds, est.disk_seconds - 1e-12);
}

TEST(ShardMetrics, PublishesTheShardGauges) {
  InMemoryTileSource src(frame0(), frame1());
  ShardOptions opts;
  opts.spec = {2, 2};
  const ShardResult r = shard_track_pair(src, continuous_config(), opts);
  obs::MetricsRegistry registry;
  publish_metrics(r.report, registry);
  for (const char* name :
       {"shard.rows", "shard.cols", "shard.tiles", "shard.halo_x",
        "shard.halo_y", "shard.core_bytes", "shard.halo_bytes",
        "shard.compute_seconds", "shard.read_seconds",
        "shard.stream.block_reads", "shard.stream.cache_hits",
        "shard.stream.resident_high_water", "shard.stream.io_seconds"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_EQ(registry.gauge("shard.tiles").value(), 4.0);
}

}  // namespace
}  // namespace sma::shard
