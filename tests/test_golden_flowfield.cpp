// test_golden_flowfield.cpp — end-to-end golden regression: a
// deterministic synthetic GOES pair runs through the full SmaPipeline
// and the resulting flow field is compared against a committed golden
// artifact with explicit tolerances.
//
// Tolerances: each pixel may deviate by <= kPixelTol in |du| and |dv|
// and the valid flags must match; at most kMismatchFrac of pixels may
// exceed that (subpixel ties can flip across compilers/libm versions).
// Every registered backend (sequential / maspar-sim / vector)
// and both precompute settings must agree BIT-IDENTICALLY with each
// other — the Sec. 5.1 "same result as the sequential implementation"
// contract — so only one golden file is needed.
//
// Two more artifacts pin the pruned search (coarse seeds plus per-pixel
// admission windows) on an F_cont and an F_semi config: every backend,
// tile shape and thread cap must reproduce each byte for byte as flow
// text.
//
// Regenerate the artifact after an intentional algorithm change with
//   SMA_UPDATE_GOLDEN=1 ./test_golden_flowfield
// (writes into the source tree via the SMA_GOLDEN_DIR compile define).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/match_prune.hpp"
#include "core/pipeline.hpp"
#include "goes/synth.hpp"
#include "imaging/flow.hpp"
#include "maspar/backend.hpp"

namespace sma {
namespace {

constexpr double kPixelTol = 1e-3;     // per-pixel |du|, |dv| budget
constexpr double kMismatchFrac = 0.01; // tie-flip allowance

std::string golden_path() {
  return std::string(SMA_GOLDEN_DIR) + "/flowfield_semi_48.txt";
}

std::string pruned_golden_path(core::MotionModel model) {
  return std::string(SMA_GOLDEN_DIR) +
         (model == core::MotionModel::kSemiFluid
              ? "/flowfield_semi_pruned_48.txt"
              : "/flowfield_cont_pruned_48.txt");
}

// 48x48 fractal cloud deck advected by a Rankine vortex: deterministic
// (fixed seeds, no wall-clock anywhere in the arithmetic) and strong
// enough rotation that the flow has structure in both components.
struct GoldenScene {
  imaging::ImageF before;
  imaging::ImageF after;
};

GoldenScene golden_scene() {
  GoldenScene s;
  s.before = goes::fractal_clouds(48, 48, 7);
  s.after = goes::advect_frame(
      s.before, goes::rankine_vortex(24.0, 24.0, 9.6, 2.0));
  return s;
}

core::SmaConfig golden_config() {
  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kSemiFluid;
  cfg.surface_fit_radius = 2;
  cfg.z_search_radius = 2;
  cfg.z_template_radius = 3;
  cfg.semifluid_search_radius = 1;
  cfg.semifluid_template_radius = 2;
  return cfg;
}

// The pruned search with the default coarse levels and refine radius.
core::SmaConfig pruned_config(core::MotionModel model) {
  core::SmaConfig cfg = golden_config();
  cfg.model = model;
  cfg.search_mode = core::SearchMode::kPruned;
  return cfg;
}

core::TrackResult run_track(core::SmaConfig cfg, const std::string& backend,
                            core::PrecomputeMode precompute) {
  maspar::register_maspar_backend();
  cfg.precompute = precompute;
  core::PipelineOptions popts;
  popts.backend = backend;
  popts.track.subpixel = true;
  core::SmaPipeline pipeline(cfg, popts);
  const GoldenScene s = golden_scene();
  return pipeline.track_pair(s.before, s.after);
}

imaging::FlowField run_pipeline(const core::SmaConfig& cfg,
                                const std::string& backend,
                                core::PrecomputeMode precompute) {
  return run_track(cfg, backend, precompute).flow;
}

std::string flow_text(const imaging::FlowField& flow) {
  std::ostringstream os;
  imaging::write_flow_text(flow, os);
  return os.str();
}

// Pixels where the fields differ beyond (tol, tol) or disagree on
// validity.
std::size_t count_mismatches(const imaging::FlowField& a,
                             const imaging::FlowField& b, double tol) {
  EXPECT_EQ(a.width(), b.width());
  EXPECT_EQ(a.height(), b.height());
  std::size_t bad = 0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x) {
      const imaging::FlowVector fa = a.at(x, y);
      const imaging::FlowVector fb = b.at(x, y);
      if (fa.valid != fb.valid ||
          std::abs(static_cast<double>(fa.u) - fb.u) > tol ||
          std::abs(static_cast<double>(fa.v) - fb.v) > tol)
        ++bad;
    }
  return bad;
}

TEST(GoldenFlowfield, MatchesCommittedArtifact) {
  const imaging::FlowField flow =
      run_pipeline(golden_config(), "sequential", core::PrecomputeMode::kOn);

  if (std::getenv("SMA_UPDATE_GOLDEN") != nullptr) {
    imaging::write_flow_text(flow, golden_path());
    GTEST_SKIP() << "regenerated golden artifact: " << golden_path();
  }

  imaging::FlowField golden;
  ASSERT_NO_THROW(golden = imaging::read_flow_text(golden_path()))
      << "missing golden artifact — regenerate with SMA_UPDATE_GOLDEN=1";

  const std::size_t bad = count_mismatches(flow, golden, kPixelTol);
  const double frac =
      static_cast<double>(bad) /
      (static_cast<double>(golden.width()) * golden.height());
  EXPECT_LE(frac, kMismatchFrac)
      << bad << " pixels deviate beyond " << kPixelTol
      << " — if the algorithm changed intentionally, regenerate with "
         "SMA_UPDATE_GOLDEN=1";

  // The golden flow itself must be plausible: the vortex moves most of
  // the frame, so the tracked field should be dense and non-trivial.
  EXPECT_GT(flow.count_valid(),
            static_cast<std::size_t>(flow.width() * flow.height() * 9 / 10));
}

// Sec. 5.1 contract, end-to-end: every backend and both precompute
// paths produce the IDENTICAL flow field, so the golden file covers
// them all.
TEST(GoldenFlowfield, AllBackendsAndPrecomputeModesBitIdentical) {
  // Two configs, both taking the invariant fast path under
  // PrecomputeMode::kOn: the semi-fluid golden config (through the
  // correspondence table) and a continuous-model one.
  core::SmaConfig continuous = golden_config();
  continuous.model = core::MotionModel::kContinuous;
  for (const core::SmaConfig& cfg : {golden_config(), continuous}) {
    const imaging::FlowField reference =
        run_pipeline(cfg, "sequential", core::PrecomputeMode::kOff);
    for (const std::string backend : {"sequential", "maspar-sim", "vector"}) {
      for (const core::PrecomputeMode mode :
           {core::PrecomputeMode::kOff, core::PrecomputeMode::kOn}) {
        const imaging::FlowField flow = run_pipeline(cfg, backend, mode);
        EXPECT_EQ(count_mismatches(flow, reference, 0.0), 0u)
            << "backend " << backend << ", precompute mode "
            << static_cast<int>(mode) << ", model "
            << static_cast<int>(cfg.model)
            << " diverged from sequential/off — Sec. 5.1 bit-identity "
               "contract broken";
      }
    }
  }
}

// The pruned search on every backend, tile shape and thread cap: one
// committed artifact per model, reproduced byte for byte as flow text.
TEST(GoldenFlowfield, PrunedMatchesCommittedArtifactOnEveryBackend) {
  for (const core::MotionModel model :
       {core::MotionModel::kContinuous, core::MotionModel::kSemiFluid}) {
    const core::SmaConfig cfg = pruned_config(model);
    const std::string path = pruned_golden_path(model);
    SCOPED_TRACE(path);
    const core::TrackResult seq =
        run_track(cfg, "sequential", core::PrecomputeMode::kOn);
    const auto* extras =
        dynamic_cast<const core::PruneBackendExtras*>(seq.extras.get());
    ASSERT_NE(extras, nullptr);
    ASSERT_EQ(extras->report.active, 1u) << "pruned search did not run";
    const std::string text = flow_text(seq.flow);

    if (std::getenv("SMA_UPDATE_GOLDEN") != nullptr) {
      std::ofstream(path, std::ios::binary) << text;
      continue;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden artifact — regenerate with "
                       "SMA_UPDATE_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(text, golden.str()) << "sequential";
    EXPECT_EQ(flow_text(run_pipeline(cfg, "maspar-sim",
                                     core::PrecomputeMode::kOn)),
              golden.str())
        << "maspar-sim";
    for (const int threads : {1, 4})
      for (const int tile : {0, 1}) {
        core::SmaConfig vcfg = cfg;
        vcfg.threads = threads;
        vcfg.tile_width = tile != 0 ? 5 : 0;
        vcfg.tile_height = tile != 0 ? 3 : 0;
        EXPECT_EQ(flow_text(run_pipeline(vcfg, "vector",
                                         core::PrecomputeMode::kOn)),
                  golden.str())
            << "vector, threads " << threads
            << (tile != 0 ? ", 5x3 tiles" : ", default tiles");
      }
  }
  if (std::getenv("SMA_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "regenerated the pruned golden artifacts";
}

}  // namespace
}  // namespace sma
