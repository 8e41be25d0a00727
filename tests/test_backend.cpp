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
// performs exactly T surface fits.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/pipeline.hpp"
#include "helpers.hpp"
#include "maspar/backend.hpp"

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
  // backend must match it BOTH with the hypothesis-invariant precompute
  // disabled and enabled (the fast path is bit-identical where eligible
  // and falls back to naive where not).
  SmaConfig cfg_off = cfg;
  cfg_off.precompute = PrecomputeMode::kOff;
  SmaConfig cfg_on = cfg;
  cfg_on.precompute = PrecomputeMode::kOn;

  const TrackResult ref = track_with("sequential", in, cfg_off, options);
  ASSERT_GT(ref.flow.count_valid(), 0u);
  for (const std::string& name : BackendRegistry::instance().names())
    for (const SmaConfig* variant : {&cfg_off, &cfg_on}) {
      if (name == "sequential" && variant == &cfg_off) continue;
      const TrackResult r = track_with(name, in, *variant, options);
      EXPECT_EQ(ref.flow, r.flow)
          << "backend '" << name << "' (precompute "
          << (variant == &cfg_on ? "on" : "off")
          << ") diverged from sequential on " << c.name;
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
