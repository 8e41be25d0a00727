// test_sched.cpp — the tiled work-stealing scheduler (src/sched/).
//
// Three layers of guarantees, mirroring DESIGN.md §15:
//  1. Tiling algebra: make_tiles() is an exact partition (every pixel in
//     exactly one tile) and choose_tile_shape() yields enough tiles to
//     keep every executor fed with steal slack.
//  2. Pool mechanics: ThreadPool::run() executes every tile exactly
//     once under concurrent claims from the per-worker shares (the
//     stress test the TSan CI job runs), lets the other workers steal
//     the share of a worker held by another caller's batch, runs nested
//     submissions inline instead of deadlocking, propagates exceptions
//     and starts fresh statistics on resize; for_each_row() visits every
//     row once and leaves small frames off the pool.
//  3. Determinism: the vector backend's FlowField is BIT-IDENTICAL to
//     the sequential reference at every thread count and tile shape —
//     on the staged path (a pair without precompute planes) and on the
//     lane kernel,
//     including degenerate skewed shapes that force heavy stealing —
//     the paper's Sec. 5.1 contract extended to the host scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "helpers.hpp"
#include "sched/scheduler.hpp"
#include "sched/tile.hpp"

namespace sma::sched {
namespace {

// ---------------------------------------------------------------------------
// 1. Tiling algebra
// ---------------------------------------------------------------------------

// Paints each tile into a coverage map; any double-paint or hole is an
// overlap or a gap in the partition.
void expect_exact_partition(int w, int h, const std::vector<Tile>& tiles) {
  std::vector<int> cover(static_cast<std::size_t>(w) * h, 0);
  for (const Tile& t : tiles) {
    ASSERT_GT(t.width(), 0);
    ASSERT_GT(t.height(), 0);
    ASSERT_GE(t.x0, 0);
    ASSERT_GE(t.y0, 0);
    ASSERT_LE(t.x1, w);
    ASSERT_LE(t.y1, h);
    for (int y = t.y0; y < t.y1; ++y)
      for (int x = t.x0; x < t.x1; ++x)
        ++cover[static_cast<std::size_t>(y) * w + x];
  }
  for (const int c : cover) ASSERT_EQ(c, 1) << "partition has a gap/overlap";
}

TEST(Tiling, MakeTilesIsExactPartition) {
  // Edges that do not divide evenly are the interesting cases.
  for (const auto& [w, h, tw, th] :
       {std::tuple{48, 48, 16, 16}, {50, 37, 16, 16}, {7, 5, 16, 16},
        {64, 1, 8, 8}, {1, 64, 8, 8}, {33, 65, 5, 3}}) {
    const std::vector<Tile> tiles = make_tiles(w, h, TileShape{tw, th});
    expect_exact_partition(w, h, tiles);
  }
}

TEST(Tiling, ChooseTileShapeFeedsAllExecutors) {
  for (const int executors : {1, 2, 4, 8}) {
    for (const auto& [w, h] : {std::pair{512, 512}, {256, 64}, {96, 96}}) {
      const TileShape shape = choose_tile_shape(w, h, executors);
      ASSERT_GE(shape.width, 1);
      ASSERT_GE(shape.height, 1);
      ASSERT_LE(shape.width, w);
      ASSERT_LE(shape.height, h);
      const std::size_t count = make_tiles(w, h, shape).size();
      // Enough tiles for steal slack — unless the floor tile size
      // already caps the count (tiny images).
      if (shape.width > 4 || shape.height > 4) {
        EXPECT_GE(count, static_cast<std::size_t>(6 * executors))
            << w << "x" << h << " @ " << executors << " executors";
      }
    }
  }
}

TEST(Tiling, ChooseTileShapeClampsToTinyImages) {
  const TileShape shape = choose_tile_shape(3, 2, 8);
  EXPECT_LE(shape.width, 3);
  EXPECT_LE(shape.height, 2);
  EXPECT_GE(shape.width, 1);
  EXPECT_GE(shape.height, 1);
}

// ---------------------------------------------------------------------------
// 2. Pool mechanics
// ---------------------------------------------------------------------------

// Runs `count` index-only tiles and returns how often each index ran.
std::vector<int> run_counting(ThreadPool& pool, std::size_t count) {
  const std::vector<Tile> tiles(count);
  std::vector<std::atomic<int>> hits(count);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pool.run(tiles, [&](const Tile&, std::size_t index) {
    hits[index].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

// The TSan target: four workers claim from their own shares and steal
// from each other's, and every index runs EXACTLY once.
TEST(ThreadPool, SharesRunEveryIndexOnce) {
  ThreadPool pool(4);
  const std::vector<int> hits = run_counting(pool, 4096);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "index " << i;
}

// Two callers share the pool.  The first batch's single tile holds one
// worker until the second caller's batch completes, so the held worker
// never attaches to it: the other three run every index of the second
// batch once and steal the held worker's whole share of it.
TEST(ThreadPool, HeldWorkersShareIsStolen) {
  ThreadPool pool(4);
  std::promise<void> held;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    pool.run(std::vector<Tile>(1), [&](const Tile&, std::size_t) {
      held.set_value();
      released.wait();
    });
  });
  held.get_future().wait();
  const std::uint64_t steals_before = pool.stats().steals;
  const std::vector<int> hits = run_counting(pool, 64);
  const std::uint64_t steals = pool.stats().steals - steals_before;
  release.set_value();
  holder.join();
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i], 1) << "index " << i;
  EXPECT_GE(steals, 64u / 4u) << "the held worker's share was not stolen";
}

TEST(ThreadPool, RunExecutesEveryTileExactlyOnce) {
  ThreadPool pool(3);
  const std::vector<Tile> tiles = make_tiles(40, 40, TileShape{4, 4});
  std::vector<std::atomic<int>> hits(tiles.size());
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pool.run(tiles, [&](const Tile&, std::size_t index) {
    hits[index].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < tiles.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "tile " << i;
  const SchedStats stats = pool.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.tiles, tiles.size());
  EXPECT_EQ(stats.threads, 3);
}

TEST(ThreadPool, NestedRunExecutesInlineWithoutDeadlock) {
  ThreadPool pool(2);
  const std::vector<Tile> outer = make_tiles(8, 8, TileShape{4, 4});
  const std::vector<Tile> inner = make_tiles(4, 4, TileShape{2, 2});
  std::atomic<int> inner_tiles{0};
  pool.run(outer, [&](const Tile&, std::size_t) {
    // A tile that itself submits a batch must not block on pool workers
    // (they may all be busy in THIS batch) — it runs the batch inline.
    pool.run(inner, [&](const Tile&, std::size_t) {
      inner_tiles.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_tiles.load(),
            static_cast<int>(outer.size() * inner.size()));
  EXPECT_GE(pool.stats().inline_batches, outer.size());
}

TEST(ThreadPool, ExceptionInTilePropagatesToCaller) {
  ThreadPool pool(2);
  const std::vector<Tile> tiles = make_tiles(16, 16, TileShape{4, 4});
  EXPECT_THROW(pool.run(tiles,
                        [&](const Tile& t, std::size_t) {
                          if (t.x0 == 8 && t.y0 == 8)
                            throw std::runtime_error("tile failure");
                        }),
               std::runtime_error);
  // The pool survives a failed batch and runs the next one normally.
  std::atomic<int> count{0};
  pool.run(tiles, [&](const Tile&, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), static_cast<int>(tiles.size()));
}

TEST(ThreadPool, ZeroWidthPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 0);
  const std::vector<Tile> tiles = make_tiles(8, 8, TileShape{4, 4});
  int count = 0;  // no concurrency: plain int proves inline execution
  pool.run(tiles, [&](const Tile&, std::size_t) { ++count; });
  EXPECT_EQ(count, static_cast<int>(tiles.size()));
  EXPECT_GE(pool.stats().inline_batches, 1u);
}

TEST(ThreadPool, ResizeChangesWidth) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  pool.resize(3);
  EXPECT_EQ(pool.threads(), 3);
  const std::vector<Tile> tiles = make_tiles(16, 16, TileShape{4, 4});
  std::atomic<int> count{0};
  pool.run(tiles, [&](const Tile&, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), static_cast<int>(tiles.size()));
  EXPECT_EQ(pool.stats().threads, 3);
}

// A resize starts fresh statistics, so a shrunk pool never reports a
// high-water above its new width.
TEST(ThreadPool, ResizeStartsFreshStatistics) {
  ThreadPool pool(3);
  // Tiles that wait (up to 5 s) for a second started tile push max_busy
  // above the width the pool then shrinks to.
  std::atomic<int> started{0};
  pool.run(make_tiles(3, 1, TileShape{1, 1}), [&](const Tile&, std::size_t) {
    started.fetch_add(1);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2 && std::chrono::steady_clock::now() < until)
      std::this_thread::yield();
  });
  ASSERT_GE(pool.stats().max_busy, 2);
  pool.resize(1);
  const SchedStats fresh = pool.stats();
  EXPECT_EQ(fresh.threads, 1);
  EXPECT_EQ(fresh.batches, 0u);
  EXPECT_EQ(fresh.tiles, 0u);
  EXPECT_EQ(fresh.steals, 0u);
  EXPECT_EQ(fresh.inline_batches, 0u);
  EXPECT_EQ(fresh.max_busy, 0);
  EXPECT_EQ(fresh.busy_seconds, 0.0);
  run_counting(pool, 8);
  EXPECT_EQ(pool.stats().max_busy, 1);
  EXPECT_EQ(pool.stats().batches, 1u);
}

TEST(ThreadPool, ForEachRowVisitsEachRowOnceAndPoolsOnlyLargeFrames) {
  ThreadPool& pool = ThreadPool::shared();
  // 48x48 is under two kMinBandPixels bands and runs inline; 300x64 is
  // four bands and is one pool batch.
  for (const auto& [rows, cols] : {std::pair{48, 48}, std::pair{300, 64}}) {
    for (const bool parallel : {false, true}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(rows));
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      const std::uint64_t before = pool.stats().batches;
      for_each_row(rows, cols, parallel, [&](int y) {
        hits[static_cast<std::size_t>(y)].fetch_add(1,
                                                     std::memory_order_relaxed);
      });
      for (int y = 0; y < rows; ++y)
        ASSERT_EQ(hits[static_cast<std::size_t>(y)].load(), 1) << "row " << y;
      const bool pooled = parallel && 1LL * rows * cols >= 2 * kMinBandPixels;
      EXPECT_EQ(pool.stats().batches - before, pooled ? 1u : 0u)
          << rows << "x" << cols << " parallel=" << parallel;
    }
  }
}

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride) {
  // setenv/getenv in a single-threaded test context.
  ASSERT_EQ(setenv("SMA_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_threads(), 3);
  ASSERT_EQ(setenv("SMA_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_threads(), 1);  // falls back to hardware
  ASSERT_EQ(unsetenv("SMA_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_threads(), 1);
}

// ---------------------------------------------------------------------------
// 3. Determinism: pooled tracking is bit-identical at every thread
//    count and tile shape (Sec. 5.1 contract on the host scheduler).
// ---------------------------------------------------------------------------

const imaging::ImageF& frame0() {
  static const imaging::ImageF f = testing::textured_pattern(32, 32);
  return f;
}

const imaging::ImageF& frame1() {
  static const imaging::ImageF f = testing::shift_image(frame0(), 2, -1);
  return f;
}

core::TrackerInput tracker_input() {
  core::TrackerInput in;
  in.intensity_before = in.surface_before = &frame0();
  in.intensity_after = in.surface_after = &frame1();
  return in;
}

core::SmaConfig tracker_config(core::MotionModel model) {
  core::SmaConfig cfg;
  cfg.model = model;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 2;
  cfg.z_template_radius = 3;
  cfg.semifluid_search_radius = 1;
  cfg.semifluid_template_radius = 2;
  return cfg;
}

// The staged kernels on the pool: a pair without precompute planes
// keeps the vector backend off its lane kernel.
TEST(SchedDeterminism, StagedBitIdenticalAcrossThreadCounts) {
  const core::TrackerInput in = tracker_input();
  for (const core::MotionModel model :
       {core::MotionModel::kContinuous, core::MotionModel::kSemiFluid}) {
    const core::SmaConfig cfg = tracker_config(model);
    const testing::PlanelessPair planeless(in, cfg);
    core::TrackOptions options;
    options.subpixel = true;
    const core::TrackResult ref =
        planeless.match("sequential", cfg, options);
    ASSERT_GT(ref.flow.count_valid(), 0u);
    // Pool widths set explicitly, so even a 1-core box exercises
    // concurrent stealing.
    for (const int threads : {1, 2, 4}) {
      const testing::PoolWidth pool(threads);
      const core::TrackResult r = planeless.match("vector", cfg, options);
      EXPECT_EQ(ref.flow, r.flow)
          << "staged path diverged at threads=" << threads;
    }
  }
}

TEST(SchedDeterminism, StagedBitIdenticalAcrossSkewedTileShapes) {
  const core::TrackerInput in = tracker_input();
  const core::SmaConfig cfg = tracker_config(core::MotionModel::kSemiFluid);
  const testing::PlanelessPair planeless(in, cfg);
  const core::TrackResult ref = planeless.match("sequential", cfg);
  // Skewed shapes create wildly unequal per-tile costs (single-row
  // strips hit window setup once per pixel; single-column strips defeat
  // horizontal locality) — maximal steal pressure.
  const testing::PoolWidth pool(4);
  for (const auto& [tw, th] :
       {std::pair{4, 4}, {32, 1}, {1, 32}, {5, 3}, {32, 32}}) {
    core::SmaConfig tcfg = cfg;
    tcfg.tile_width = tw;
    tcfg.tile_height = th;
    const core::TrackResult r = planeless.match("vector", tcfg);
    EXPECT_EQ(ref.flow, r.flow)
        << "staged path diverged at tile " << tw << "x" << th;
  }
}

TEST(SchedDeterminism, VectorBackendBitIdenticalAcrossThreadCounts) {
  const core::TrackerInput in = tracker_input();
  // Lane batching (center pixels) and tiling (pixel tiles) compose:
  // the vector backend must stay bit-identical at any width too.
  const core::SmaConfig cfg = tracker_config(core::MotionModel::kContinuous);
  const core::TrackResult ref = core::SmaPipeline(cfg).track_pair(in);
  for (const int threads : {1, 2, 4}) {
    const testing::PoolWidth pool(threads);
    const core::TrackResult r =
        core::SmaPipeline(cfg, {.backend = "vector"}).track_pair(in);
    EXPECT_EQ(ref.flow, r.flow)
        << "vector backend diverged at threads=" << threads;
  }
}

}  // namespace
}  // namespace sma::sched
