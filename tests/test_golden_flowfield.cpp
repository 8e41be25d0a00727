// test_golden_flowfield.cpp — end-to-end golden regression: a
// deterministic synthetic GOES pair runs through the full SmaPipeline
// and the resulting flow field is compared against a committed golden
// artifact with explicit tolerances.
//
// Tolerances: each pixel may deviate by <= kPixelTol in |du| and |dv|
// and the valid flags must match; at most kMismatchFrac of pixels may
// exceed that (subpixel ties can flip across compilers/libm versions).
// Every registered backend (sequential / tiled / maspar-sim / vector)
// and both precompute settings must agree BIT-IDENTICALLY with each
// other — the Sec. 5.1 "same result as the sequential implementation"
// contract — so only one golden file is needed.
//
// Regenerate the artifact after an intentional algorithm change with
//   SMA_UPDATE_GOLDEN=1 ./test_golden_flowfield
// (writes into the source tree via the SMA_GOLDEN_DIR compile define).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

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

imaging::FlowField run_pipeline(core::SmaConfig cfg,
                                const std::string& backend,
                                core::PrecomputeMode precompute) {
  maspar::register_maspar_backend();
  cfg.precompute = precompute;
  core::PipelineOptions popts;
  popts.backend = backend;
  popts.track.subpixel = true;
  core::SmaPipeline pipeline(cfg, popts);
  const GoldenScene s = golden_scene();
  return pipeline.track_pair(s.before, s.after).flow;
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
      run_pipeline(golden_config(), "sequential", core::PrecomputeMode::kAuto);

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
    for (const std::string backend :
         {"sequential", "tiled", "maspar-sim", "vector"}) {
      for (const core::PrecomputeMode mode :
           {core::PrecomputeMode::kOff, core::PrecomputeMode::kOn,
            core::PrecomputeMode::kAuto}) {
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

}  // namespace
}  // namespace sma
