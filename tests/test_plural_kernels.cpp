// Tests for maspar/plural_kernels.hpp — the surface-fit phase computed
// entirely from plural-staged neighborhood data.
#include "maspar/plural_kernels.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "goes/synth.hpp"
#include "imaging/stats.hpp"

namespace sma::maspar {
namespace {

MachineSpec small_spec(int n = 4) {
  MachineSpec s;
  s.nxproc = n;
  s.nyproc = n;
  return s;
}

TEST(PluralFit, MatchesHostFitInterior) {
  const imaging::ImageF img = goes::fractal_clouds(24, 24, 3);
  const HierarchicalMap map(24, 24, small_spec(4));
  const int radius = 2;
  const PluralFitResult plural = plural_fit_derivatives(img, map, radius);

  surface::GeometryOptions gopts;
  gopts.patch_radius = radius;
  const surface::DerivativeField host = surface::fit_derivatives(img, gopts);

  // Interior pixels: the toroidal staging and the clamped host fit see
  // identical windows.
  for (int y = radius; y < 24 - radius; ++y)
    for (int x = radius; x < 24 - radius; ++x) {
      EXPECT_NEAR(plural.derivatives.zx.at(x, y), host.zx.at(x, y), 1e-4)
          << "(" << x << "," << y << ")";
      EXPECT_NEAR(plural.derivatives.zy.at(x, y), host.zy.at(x, y), 1e-4);
      EXPECT_NEAR(plural.derivatives.zxx.at(x, y), host.zxx.at(x, y), 1e-3);
      EXPECT_NEAR(plural.derivatives.zxy.at(x, y), host.zxy.at(x, y), 1e-3);
      EXPECT_NEAR(plural.derivatives.zyy.at(x, y), host.zyy.at(x, y), 1e-3);
    }
}

TEST(PluralFit, MetersStagingTraffic) {
  const imaging::ImageF img = goes::fractal_clouds(16, 16, 5);
  const HierarchicalMap map(16, 16, small_spec(4));
  const PluralFitResult r = plural_fit_derivatives(img, map, 2);
  EXPECT_GT(r.comm.xnet_words, 0u);
  EXPECT_GT(r.comm.xnet_word_hops, 0u);
  EXPECT_GT(r.modeled_seconds, 0.0);
}

TEST(PluralFit, LargerWindowsMoveMoreWords) {
  const imaging::ImageF img = goes::fractal_clouds(16, 16, 5);
  const HierarchicalMap map(16, 16, small_spec(4));
  const PluralFitResult r1 = plural_fit_derivatives(img, map, 1);
  const PluralFitResult r2 = plural_fit_derivatives(img, map, 2);
  EXPECT_GT(r2.comm.xnet_words, r1.comm.xnet_words);
}

TEST(PluralFit, CutAndStackMovesMore) {
  // The Sec. 3.2 locality claim, observed from an actual kernel run.
  const imaging::ImageF img = goes::fractal_clouds(16, 16, 5);
  const MachineSpec spec = small_spec(4);
  const HierarchicalMap hier(16, 16, spec);
  const CutAndStackMap cut(16, 16, spec);
  const PluralFitResult rh = plural_fit_derivatives(img, hier, 2);
  const PluralFitResult rc = plural_fit_derivatives(img, cut, 2);
  EXPECT_LT(rh.comm.xnet_word_hops, rc.comm.xnet_word_hops);
  // Identical functional result regardless of the mapping.
  EXPECT_EQ(imaging::max_abs_difference(rh.derivatives.zx,
                                        rc.derivatives.zx),
            0.0);
}


TEST(PluralSearch, MatchesHostTrackerInterior) {
  const imaging::ImageF f0 = goes::fractal_clouds(28, 28, 7);
  imaging::ImageF f1(28, 28);
  for (int y = 0; y < 28; ++y)
    for (int x = 0; x < 28; ++x)
      f1.at(x, y) = f0.at_clamped(x - 1, y - 2);  // motion (+1, +2)
  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kContinuous;
  cfg.surface_fit_radius = 2;
  cfg.z_template_radius = 3;
  cfg.z_search_radius = 2;

  const HierarchicalMap map(28, 28, small_spec(4));
  const PluralSearchResult plural =
      plural_hypothesis_search(f0, map, f1, cfg);
  const core::TrackResult host = core::SmaPipeline(cfg).track_pair(f0, f1);

  const int margin = cfg.z_template_radius + cfg.z_search_radius;
  for (int y = margin; y < 28 - margin; ++y)
    for (int x = margin; x < 28 - margin; ++x) {
      EXPECT_EQ(plural.flow.at(x, y).u, host.flow.at(x, y).u)
          << "(" << x << "," << y << ")";
      EXPECT_EQ(plural.flow.at(x, y).v, host.flow.at(x, y).v);
      EXPECT_EQ(plural.flow.at(x, y).valid, host.flow.at(x, y).valid);
    }
  EXPECT_GT(plural.comm.xnet_words, 0u);
  EXPECT_GT(plural.modeled_seconds, 0.0);
}

TEST(PluralSearch, RejectsSemiFluidModel) {
  const imaging::ImageF img(16, 16, 0.0f);
  const HierarchicalMap map(16, 16, small_spec(4));
  core::SmaConfig cfg;
  cfg.model = core::MotionModel::kSemiFluid;
  cfg.z_template_radius = 2;
  cfg.z_search_radius = 1;
  EXPECT_THROW(plural_hypothesis_search(img, map, img, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace sma::maspar
