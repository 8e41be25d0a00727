// test_backend.cpp — the TrackerBackend registry and the SmaPipeline.
//
// The load-bearing property is the paper's Sec. 5.1 contract: every
// execution path produces the SAME flow field.  Every pair runs through
// SmaPipeline, the one orchestrator; only the matching backend varies.
// The equivalence sweep drives all registered backends over a
// configuration grid (square and rectangular windows, both motion
// models, sub-pixel refinement, validity masks) and asserts
// bit-identical results against the sequential reference.  The pipeline
// tests pin the geometry-cache invariant: a T-frame monocular sequence
// performs exactly T surface fits.  The sub-pixel tests pin the probe
// accounting: `vector` evaluates only the probes its sweep did not
// score, with the same bytes.  The partial-pass tests pin the lane
// kernel's accounting where a tile's live batches do not fill its
// scoring passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/match_prune.hpp"
#include "core/match_vector.hpp"
#include "core/pipeline.hpp"
#include "goes/synth.hpp"
#include "helpers.hpp"
#include "linalg/gaussian_elimination.hpp"
#include "maspar/backend.hpp"
#include "sched/scheduler.hpp"
#include "simd/dispatch.hpp"

namespace sma::core {
namespace {

const imaging::ImageF& frame0() {
  static const imaging::ImageF f = testing::textured_pattern(28, 28);
  return f;
}

const imaging::ImageF& frame1() {
  static const imaging::ImageF f = testing::shift_image(frame0(), 2, -1);
  return f;
}

TrackerInput monocular_input() {
  TrackerInput in;
  in.intensity_before = in.surface_before = &frame0();
  in.intensity_after = in.surface_after = &frame1();
  return in;
}

// One pair on a fresh pipeline over the named backend.
TrackResult track_with(const std::string& backend, const TrackerInput& in,
                       const SmaConfig& cfg, const TrackOptions& options = {}) {
  return SmaPipeline(cfg, {.backend = backend, .track = options})
      .track_pair(in);
}

struct EquivCase {
  const char* name;
  MotionModel model;
  int search_ry;    // -1 = square
  int template_ry;  // -1 = square
  bool subpixel;
  bool masked;
};

SmaConfig case_config(const EquivCase& c) {
  SmaConfig cfg;
  cfg.model = c.model;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 2;
  cfg.z_search_radius_y = c.search_ry;
  cfg.z_template_radius = 3;
  cfg.z_template_radius_y = c.template_ry;
  cfg.semifluid_search_radius = 1;
  cfg.semifluid_template_radius = 2;
  return cfg;
}

std::string case_name(const ::testing::TestParamInfo<EquivCase>& info) {
  return info.param.name;
}

class BackendEquivalence : public ::testing::TestWithParam<EquivCase> {
 protected:
  static void SetUpTestSuite() { maspar::register_maspar_backend(); }
};

TEST_P(BackendEquivalence, AllBackendsBitIdentical) {
  const EquivCase c = GetParam();
  const SmaConfig cfg = case_config(c);
  TrackOptions options;
  options.subpixel = c.subpixel;

  TrackerInput in = monocular_input();
  imaging::ImageU8 mask0, mask1;
  if (c.masked) {
    // Kill a scan line in each frame: masked templates must be skipped
    // identically by every backend.
    mask0 = imaging::ImageU8(frame0().width(), frame0().height());
    mask1 = imaging::ImageU8(frame0().width(), frame0().height());
    mask0.fill(1);
    mask1.fill(1);
    for (int x = 0; x < frame0().width(); ++x) {
      mask0.at(x, 9) = 0;
      mask1.at(x, 17) = 0;
    }
    in.validity_before = &mask0;
    in.validity_after = &mask1;
  }

  // The naive evaluator on the sequential backend is the oracle; every
  // backend must match it both without the precompute planes and through
  // the pipeline, which gives an unmasked pair planes (the fast paths
  // are bit-identical to naive) and a masked one none.
  const testing::PlanelessPair planeless(in, cfg);
  const TrackResult ref = planeless.match("sequential", cfg, options);
  ASSERT_GT(ref.flow.count_valid(), 0u);
  for (const std::string& name : BackendRegistry::instance().names()) {
    if (name != "sequential") {
      EXPECT_EQ(ref.flow, planeless.match(name, cfg, options).flow)
          << "backend '" << name
          << "' without planes diverged from sequential on " << c.name;
    }
    EXPECT_EQ(ref.flow, track_with(name, in, cfg, options).flow)
        << "backend '" << name << "' through the pipeline diverged from "
        << "sequential on " << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, BackendEquivalence,
    ::testing::Values(
        EquivCase{"cont_square", MotionModel::kContinuous, -1, -1, false,
                  false},
        EquivCase{"cont_rect", MotionModel::kContinuous, 1, 2, false, false},
        EquivCase{"cont_subpixel", MotionModel::kContinuous, -1, -1, true,
                  false},
        EquivCase{"semi_square", MotionModel::kSemiFluid, -1, -1, false,
                  false},
        EquivCase{"semi_rect", MotionModel::kSemiFluid, 2, 1, false, false},
        EquivCase{"semi_subpixel", MotionModel::kSemiFluid, -1, -1, true,
                  false},
        EquivCase{"cont_masked", MotionModel::kContinuous, -1, -1, false,
                  true},
        EquivCase{"semi_masked_subpixel", MotionModel::kSemiFluid, -1, -1,
                  true, true}),
    case_name);

// Nss = 0 disables the semi-fluid template mapping entirely, so F_semi
// degenerates to F_cont (Sec. 2.3) — on every backend.
TEST(BackendEquivalenceDegenerate, SemifluidNssZeroEqualsContinuous) {
  maspar::register_maspar_backend();
  SmaConfig semi = case_config({"", MotionModel::kSemiFluid, -1, -1, false,
                                false});
  semi.semifluid_search_radius = 0;
  SmaConfig cont = semi;
  cont.model = MotionModel::kContinuous;

  const TrackerInput in = monocular_input();
  const TrackResult ref = track_with("sequential", in, cont);
  for (const std::string& name : BackendRegistry::instance().names()) {
    const TrackResult r = track_with(name, in, semi);
    EXPECT_EQ(ref.flow, r.flow) << "backend '" << name << "'";
  }
}

// ---------------------------------------------------------------------------
// Sub-pixel probes from the sweep's own residuals.  `sequential` and
// `maspar-sim` evaluate all four probes of every refined winner; the
// `vector` tile kernel keeps the residuals its sweep scored, so the
// sub-pixel step evaluates only the probes the sweep never scored.
// ---------------------------------------------------------------------------

// A 32x32 cloud deck under a Rankine vortex: structured motion whose
// winners reach the edges of a 5x5 search box.
TrackerInput vortex_input() {
  static const imaging::ImageF before = goes::fractal_clouds(32, 32, 11);
  static const imaging::ImageF after = goes::advect_frame(
      before, goes::rankine_vortex(16.0, 16.0, 6.4, 2.0));
  TrackerInput in;
  in.intensity_before = in.surface_before = &before;
  in.intensity_after = in.surface_after = &after;
  return in;
}

TEST(SubpixelProbes, VectorEvaluatesOnlyProbesOutsideTheSearchBox) {
  maspar::register_maspar_backend();
  const SmaConfig cfg = case_config(
      {"", MotionModel::kContinuous, -1, -1, false, false});
  const TrackerInput in = vortex_input();
  // The integer winners (F_cont: the flow vector is the hypothesis).
  const imaging::FlowField winners = track_with("sequential", in, cfg).flow;
  const int w = winners.width(), h = winners.height();
  ASSERT_EQ(winners.count_valid(), static_cast<std::size_t>(w) * h);
  const int n = cfg.z_search_radius;
  std::uint64_t outside = 0;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const int hx = static_cast<int>(winners.at(x, y).u);
      const int hy = static_cast<int>(winners.at(x, y).v);
      outside += (hx - 1 < -n) + (hx + 1 > n) + (hy - 1 < -n) + (hy + 1 > n);
    }
  ASSERT_GT(outside, 0u) << "no winner on the search box edge";
  const std::uint64_t all = 4ull * w * h;

  const TrackOptions sub{.subpixel = true};
  const TrackResult seq = track_with("sequential", in, cfg, sub);
  EXPECT_EQ(seq.subpixel_probes.evaluated, all);
  EXPECT_EQ(seq.subpixel_probes.reused, 0u);
  const TrackResult mp = track_with("maspar-sim", in, cfg, sub);
  EXPECT_EQ(mp.subpixel_probes.evaluated, all);
  EXPECT_TRUE(imaging::bit_equal(mp.flow, seq.flow));
  for (const int tile : {0, 3}) {
    SmaConfig tiled = cfg;
    tiled.tile_width = tile;
    tiled.tile_height = tile;
    const TrackResult vec = track_with("vector", in, tiled, sub);
    EXPECT_EQ(vec.subpixel_probes.evaluated, outside) << "tile " << tile;
    EXPECT_EQ(vec.subpixel_probes.reused, all - outside) << "tile " << tile;
    EXPECT_TRUE(imaging::bit_equal(vec.flow, seq.flow)) << "tile " << tile;
  }
}

// Segmented, pruned and masked F_semi: the store spans segments, pruned
// windows limit what the sweep scored, and a masked run takes the staged
// fallback, which evaluates every probe.  Each case matches the
// sequential flow bit for bit and accounts for every probe.
TEST(SubpixelProbes, SegmentedPrunedAndMaskedSemiFluidMatchSequential) {
  const TrackerInput plain = vortex_input();
  const int w = plain.surface_before->width();
  const int h = plain.surface_before->height();
  imaging::ImageU8 mask(w, h);
  mask.fill(1);
  for (int x = 0; x < w; ++x) mask.at(x, 13) = 0;
  TrackerInput masked = plain;
  masked.validity_before = &mask;

  const SmaConfig semi =
      case_config({"", MotionModel::kSemiFluid, -1, -1, false, false});
  struct Case {
    const char* name;
    SmaConfig cfg;
    const TrackerInput* in;
  };
  SmaConfig seg1 = semi, seg2 = semi, pruned = semi;
  seg1.segment_rows = 1;
  seg2.segment_rows = 2;
  pruned.search_mode = SearchMode::kPruned;
  const TrackOptions sub{.subpixel = true};
  for (const Case& c : {Case{"segment_rows 1", seg1, &plain},
                        Case{"segment_rows 2", seg2, &plain},
                        Case{"pruned", pruned, &plain},
                        Case{"masked", semi, &masked}}) {
    SCOPED_TRACE(c.name);
    const TrackResult seq = track_with("sequential", *c.in, c.cfg, sub);
    EXPECT_EQ(seq.subpixel_probes.reused, 0u);
    const TrackResult vec = track_with("vector", *c.in, c.cfg, sub);
    EXPECT_TRUE(imaging::bit_equal(vec.flow, seq.flow));
    EXPECT_EQ(vec.subpixel_probes.evaluated + vec.subpixel_probes.reused,
              seq.subpixel_probes.evaluated);
    const auto* vx =
        dynamic_cast<const VectorBackendExtras*>(vec.extras.get());
    ASSERT_NE(vx, nullptr);
    if (c.in == &masked) {
      EXPECT_FALSE(vx->report.vector_path);
      EXPECT_EQ(vec.subpixel_probes.reused, 0u);
    } else {
      EXPECT_TRUE(vx->report.vector_path);
      EXPECT_GT(vec.subpixel_probes.reused, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Partial scoring passes.  The lane kernel scores LaneKernels::
// batches_per_pass live batches at a time; where a tile's live batches
// per hypothesis are not a multiple of that, the last pass is padded.
// Padding must reach neither the flow nor the accounting: the lane
// tally and the solve counters follow the per-batch formulas, at every
// lane width, on odd tiles and under pruned windows that empty whole
// batches.
// ---------------------------------------------------------------------------

// A 37x29 cloud deck under a vortex: odd in both directions, so edge
// tiles are partial too.
TrackerInput odd_input() {
  static const imaging::ImageF before = goes::fractal_clouds(37, 29, 5);
  static const imaging::ImageF after = goes::advect_frame(
      before, goes::rankine_vortex(18.0, 14.0, 7.0, 1.5));
  TrackerInput in;
  in.intensity_before = in.surface_before = &before;
  in.intensity_after = in.surface_after = &after;
  return in;
}

// Seeds (+2, +2) left of x = 20 and (-2, -2) from there on, none on
// every fifth row: with refine radius 1 the windows split the 7x7 box,
// so whole batches admit none of a hypothesis's lanes.
PruneSeeds split_seeds(int w, int h) {
  PruneSeeds s;
  s.width = w;
  s.height = h;
  s.sx.resize(static_cast<std::size_t>(w) * h);
  s.sy.resize(s.sx.size());
  s.ok.resize(s.sx.size());
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * w + x;
      s.sx[i] = s.sy[i] = x < 20 ? 2 : -2;
      s.ok[i] = y % 5 != 4;
    }
  return s;
}

struct CountedRun {
  TrackResult result;
  linalg::SolveCounters solves;
};

// One pair on one thread: a run() submitted from inside a pool tile
// executes inline, so every solve lands in this thread's counters.
CountedRun counted_track(const std::string& backend, const TrackerInput& in,
                         const SmaConfig& cfg) {
  CountedRun out;
  sched::ThreadPool::shared().run(
      {sched::Tile{0, 0, 1, 1}}, [&](const sched::Tile&, std::size_t) {
        const linalg::SolveCounters before = linalg::solve_counters();
        out.result = track_with(backend, in, cfg);
        const linalg::SolveCounters& after = linalg::solve_counters();
        out.solves.solves6 = after.solves6 - before.solves6;
        out.solves.singular = after.singular - before.singular;
      });
  return out;
}

// The tally the kernel must report: per tile, hypothesis, tile row and
// batch of `lanes` columns, the lanes whose window admits the
// hypothesis; a batch with none is skipped, a full one is batched and
// any other is tail.
VectorLaneTally expected_tally(int w, int h, const SmaConfig& cfg, int lanes,
                               const PruneSeeds* seeds) {
  VectorLaneTally t;
  const int n = cfg.z_search_radius;
  for (const sched::Tile& tile : pixel_tiles(w, h, cfg, true, lanes))
    for (int hy = -n; hy <= n; ++hy)
      for (int hx = -n; hx <= n; ++hx)
        for (int y = tile.y0; y < tile.y1; ++y)
          for (int x0 = tile.x0; x0 < tile.x1; x0 += lanes) {
            int live = 0;
            for (int x = x0; x < std::min(x0 + lanes, tile.x1); ++x) {
              PruneWindow win{-n, n, -n, n};
              if (seeds != nullptr)
                win = prune_window(*seeds, x, y, n, n,
                                   cfg.prune_refine_radius);
              live += hx >= win.hx_min && hx <= win.hx_max &&
                      hy >= win.hy_min && hy <= win.hy_max;
            }
            if (live == 0) continue;
            ++t.batches;
            if (live == lanes)
              t.batched_hypotheses += live;
            else
              t.tail_hypotheses += live;
          }
  return t;
}

TEST(PartialPasses, OddTilesAndEmptiedBatchesKeepFlowAndAccounting) {
  const TrackerInput plain = odd_input();
  const int w = plain.surface_before->width();
  const int h = plain.surface_before->height();
  const PruneSeeds seeds = split_seeds(w, h);
  TrackerInput seeded = plain;
  seeded.prune_seeds = &seeds;

  SmaConfig base = case_config(
      {"", MotionModel::kContinuous, -1, -1, false, false});
  base.z_search_radius = 3;
  const testing::PoolWidth pool(2);
  unsetenv("SMA_SIMD_LEVEL");
  std::vector<simd::SimdLevel> levels;
  for (simd::SimdLevel req :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512,
        simd::SimdLevel::kNeon}) {
    const simd::SimdLevel got = resolve_kernel_level(req);
    if (simd::level_supported(got) &&
        std::find(levels.begin(), levels.end(), got) == levels.end())
      levels.push_back(got);
  }
  bool partial_pass = false, emptied_batch = false;
  for (const bool pruned : {false, true}) {
    for (const auto& [tw, th] : {std::pair{5, 3}, {13, 7}, {0, 0}}) {
      SmaConfig cfg = base;
      cfg.tile_width = tw;
      cfg.tile_height = th;
      if (pruned) cfg.search_mode = SearchMode::kPruned;
      const TrackerInput& in = pruned ? seeded : plain;
      const CountedRun seq = counted_track("sequential", in, cfg);
      for (const simd::SimdLevel level : levels) {
        setenv("SMA_SIMD_LEVEL", simd::level_name(level), 1);
        const LaneKernels k = lane_kernels(level);
        SCOPED_TRACE(std::string(simd::level_name(level)) + " tile " +
                     std::to_string(tw) + "x" + std::to_string(th) +
                     (pruned ? " pruned" : " full"));
        const CountedRun vec = counted_track("vector", in, cfg);
        EXPECT_TRUE(imaging::bit_equal(vec.result.flow, seq.result.flow));
        EXPECT_EQ(vec.solves.solves6, seq.solves.solves6);
        EXPECT_EQ(vec.solves.singular, seq.solves.singular);
        const auto* vx =
            dynamic_cast<const VectorBackendExtras*>(vec.result.extras.get());
        ASSERT_NE(vx, nullptr);
        ASSERT_TRUE(vx->report.vector_path);
        const VectorLaneTally want =
            expected_tally(w, h, cfg, k.lanes, pruned ? &seeds : nullptr);
        EXPECT_EQ(vx->report.batched_hypotheses, want.batched_hypotheses);
        EXPECT_EQ(vx->report.tail_hypotheses, want.tail_hypotheses);
        EXPECT_EQ(vx->report.batches, want.batches);
        const std::uint64_t folded =
            vx->report.batched_hypotheses + vx->report.tail_hypotheses;
        if (pruned) {
          EXPECT_EQ(folded, vx->prune.fine_scheduled);
          EXPECT_LT(folded, 49ull * w * h);
        } else {
          EXPECT_EQ(folded, 49ull * w * h);
        }
        // The shapes do exercise what this test is about.
        for (const sched::Tile& t : pixel_tiles(w, h, cfg, true, k.lanes)) {
          const int batches = t.height() * ((t.width() + k.lanes - 1) / k.lanes);
          partial_pass = partial_pass || batches % k.batches_per_pass != 0;
        }
        emptied_batch =
            emptied_batch ||
            (pruned &&
             want.batches < expected_tally(w, h, cfg, k.lanes, nullptr).batches);
      }
      unsetenv("SMA_SIMD_LEVEL");
    }
  }
  EXPECT_TRUE(partial_pass);
  EXPECT_TRUE(emptied_batch);
}

TEST(BackendRegistry, NamesAndCapabilities) {
  maspar::register_maspar_backend();
  auto& registry = BackendRegistry::instance();
  EXPECT_NE(registry.find("sequential"), nullptr);
  EXPECT_NE(registry.find("maspar-sim"), nullptr);
  EXPECT_NE(registry.find("vector"), nullptr);
  EXPECT_EQ(registry.find("nosuch"), nullptr);
  EXPECT_THROW(registry.get("nosuch"), std::invalid_argument);

  EXPECT_FALSE(registry.get("sequential").capabilities().host_parallel);
  EXPECT_FALSE(registry.get("maspar-sim").capabilities().host_parallel);
  EXPECT_TRUE(registry.get("vector").capabilities().host_parallel);
}

TEST(BackendRegistry, MasParExtrasExposeModeledReport) {
  maspar::register_maspar_backend();
  SmaConfig cfg = case_config({"", MotionModel::kSemiFluid, -1, -1, false,
                               false});
  const TrackResult r = track_with("maspar-sim", monocular_input(), cfg);
  const auto* extras =
      dynamic_cast<const maspar::MasParBackendExtras*>(r.extras.get());
  ASSERT_NE(extras, nullptr);
  EXPECT_GT(extras->report.modeled.total(), 0.0);
  EXPECT_GT(extras->report.layers, 0);
}

std::vector<imaging::ImageF> make_sequence(int frames) {
  std::vector<imaging::ImageF> seq;
  for (int t = 0; t < frames; ++t)
    seq.push_back(testing::textured_pattern(28, 28, 0.15 * t));
  return seq;
}

SmaConfig sequence_config() {
  return case_config({"", MotionModel::kContinuous, -1, -1, false, false});
}

// The cache invariant: a T-frame monocular sequence fits each frame's
// geometry exactly once — T misses and, since every interior frame is
// looked up twice, 2(T-1) - T hits.
TEST(SmaPipeline, SequenceFitsEachFrameOnce) {
  const int kFrames = 5;
  SmaPipeline pipeline(sequence_config());
  const SequenceResult seq = pipeline.track_sequence(make_sequence(kFrames));
  ASSERT_EQ(seq.flows.size(), static_cast<std::size_t>(kFrames - 1));

  const PipelineStats& stats = pipeline.stats();
  EXPECT_EQ(stats.pairs_tracked, static_cast<std::size_t>(kFrames - 1));
  EXPECT_EQ(stats.surface_fits, static_cast<std::size_t>(kFrames));
  EXPECT_EQ(stats.cache_misses, static_cast<std::size_t>(kFrames));
  EXPECT_EQ(stats.cache_hits, static_cast<std::size_t>(2 * (kFrames - 1) -
                                                       kFrames));
  EXPECT_EQ(stats.cache_evictions, 0u);
}

// Consecutive-pair streaming only ever needs the trailing frame: the
// minimum capacity of 2 preserves the fit-once invariant, evicting as
// it goes.
TEST(SmaPipeline, MinimalCachePreservesInvariant) {
  const int kFrames = 5;
  PipelineOptions opts;
  opts.geometry_cache_capacity = 2;
  SmaPipeline pipeline(sequence_config(), opts);
  pipeline.track_sequence(make_sequence(kFrames));

  const PipelineStats& stats = pipeline.stats();
  EXPECT_EQ(stats.surface_fits, static_cast<std::size_t>(kFrames));
  EXPECT_EQ(stats.cache_hits, static_cast<std::size_t>(kFrames - 2));
  EXPECT_EQ(stats.cache_evictions, static_cast<std::size_t>(kFrames - 2));
}

// Cached tracking must stay bit-identical to the pair-at-a-time path.
TEST(SmaPipeline, CachedSequenceMatchesPairwiseTracking) {
  const std::vector<imaging::ImageF> frames = make_sequence(4);
  const SmaConfig cfg = sequence_config();
  SmaPipeline pipeline(cfg);
  const SequenceResult seq = pipeline.track_sequence(frames);
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    const TrackResult r = SmaPipeline(cfg).track_pair(frames[i], frames[i + 1]);
    EXPECT_EQ(seq.flows[i], r.flow) << "pair " << i;
  }
}

TEST(SmaPipeline, ClearCacheRefits) {
  const std::vector<imaging::ImageF> frames = make_sequence(2);
  SmaPipeline pipeline(sequence_config());
  pipeline.track_pair(frames[0], frames[1]);
  EXPECT_EQ(pipeline.stats().surface_fits, 2u);

  // Same rasters again: pure hits.
  pipeline.track_pair(frames[0], frames[1]);
  EXPECT_EQ(pipeline.stats().surface_fits, 2u);
  EXPECT_EQ(pipeline.stats().cache_hits, 2u);

  // The cache keys on content, so copies in new buffers hit too.
  const std::vector<imaging::ImageF> copies = frames;
  pipeline.track_pair(copies[0], copies[1]);
  EXPECT_EQ(pipeline.stats().surface_fits, 2u);
  EXPECT_EQ(pipeline.stats().cache_hits, 4u);

  pipeline.clear_cache();
  pipeline.track_pair(frames[0], frames[1]);
  EXPECT_EQ(pipeline.stats().surface_fits, 4u);
}

/// FNV-1a over the pixels' bit patterns: the geometry cache's key hash.
std::uint64_t fnv1a(const imaging::ImageF& img) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < img.size(); ++i)
    h = (h ^ std::bit_cast<std::uint32_t>(img.data()[i])) * 0x100000001b3ull;
  return h;
}

// A buffer that comes back with other pixels must refit, also when its
// FNV-1a fingerprint is unchanged: the key only narrows the search, and
// a hit needs the pixels bitwise equal to the fitted copy.  The daemon's
// repaired copies of one frame differ in a few scan lines only, and two
// 3-pixel blocks that leave FNV-1a in the same state are cheap to find.
TEST(SmaPipeline, ChangedPixelsAtACachedAddressRefit) {
  constexpr std::uint32_t kHead[3] = {0x4362df6c, 0x430cd010, 0x4301d1a3};
  constexpr std::uint32_t kCollidingHead[3] = {0x4362df6f, 0x430cefd6,
                                               0x4302f6fa};
  std::vector<imaging::ImageF> frames = make_sequence(2);
  const auto set_head = [&](const std::uint32_t (&bits)[3]) {
    for (int x = 0; x < 3; ++x)
      frames[0].at(x, 0) = std::bit_cast<float>(bits[x]);
  };
  const auto expect_fresh_flow = [&](const TrackResult& r) {
    const TrackResult fresh =
        SmaPipeline(sequence_config()).track_pair(frames[0], frames[1]);
    EXPECT_TRUE(imaging::bit_equal(r.flow, fresh.flow));
  };
  SmaPipeline pipeline(sequence_config());
  set_head(kHead);
  const std::uint64_t fingerprint = fnv1a(frames[0]);
  pipeline.track_pair(frames[0], frames[1]);

  // Other pixels, same fingerprint.
  set_head(kCollidingHead);
  EXPECT_EQ(fnv1a(frames[0]), fingerprint);
  const TrackResult collided = pipeline.track_pair(frames[0], frames[1]);
  EXPECT_EQ(pipeline.stats().surface_fits, 3u);
  EXPECT_EQ(pipeline.stats().cache_hits, 1u);
  expect_fresh_flow(collided);

  // A changed scan line.
  for (int x = 0; x < frames[0].width(); ++x) frames[0].at(x, 5) += 1.0f;
  const TrackResult changed = pipeline.track_pair(frames[0], frames[1]);
  EXPECT_EQ(pipeline.stats().surface_fits, 4u);
  EXPECT_EQ(pipeline.stats().cache_hits, 2u);
  expect_fresh_flow(changed);
}

TEST(SmaPipeline, RejectsUnknownBackendAndBadCapacity) {
  PipelineOptions bad;
  bad.backend = "nosuch";
  EXPECT_THROW(SmaPipeline(sequence_config(), bad), std::invalid_argument);

  PipelineOptions tiny;
  tiny.geometry_cache_capacity = 1;
  EXPECT_THROW(SmaPipeline(sequence_config(), tiny), std::invalid_argument);
}

}  // namespace
}  // namespace sma::core
