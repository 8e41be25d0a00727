// Unit tests for core/workload.hpp — the paper's Sec. 3 burden
// arithmetic and the Sec. 4.3 PE-memory accounting.
#include "core/workload.hpp"

#include <gtest/gtest.h>

namespace sma::core {
namespace {

Workload frederic_workload() {
  return Workload{512, 512, frederic_config()};
}

TEST(Workload, Table1EliminationsPerPixel) {
  // "13 x 13 = 169 Gaussian-eliminations are performed".
  EXPECT_EQ(frederic_workload().eliminations_per_pixel(), 169u);
}

TEST(Workload, Table1ErrorTermsPerHypothesis) {
  // "121 x 121 = 14641 error terms of (4) and (5) are computed".
  EXPECT_EQ(frederic_workload().error_terms_per_hypothesis(), 14641u);
}

TEST(Workload, Table1SemiFluidCandidates) {
  // "evaluating 3 x 3 = 9 error terms to obtain (9)".
  EXPECT_EQ(frederic_workload().semifluid_candidates_per_mapping(), 9u);
}

TEST(Workload, Table1DiscriminantTerms) {
  // "5 x 5 = 25 parameters of (11) need to be computed".
  EXPECT_EQ(frederic_workload().discriminant_terms_per_candidate(), 25u);
}

TEST(Workload, Table1PatchFits) {
  // "over one million (4 x 512 x 512 = 1048576) separate
  // Gaussian-eliminations" for the surface patches.
  EXPECT_EQ(frederic_workload().patch_fit_eliminations(true), 1048576u);
  EXPECT_EQ(frederic_workload().patch_fit_eliminations(false), 524288u);
}

TEST(Workload, DenseFieldPixelCount) {
  // "a dense motion field for 262144 pixels is estimated".
  EXPECT_EQ(frederic_workload().pixels(), 262144u);
}

TEST(Workload, TotalMotionEliminations) {
  EXPECT_EQ(frederic_workload().total_motion_eliminations(),
            262144ull * 169ull);
}

TEST(Workload, TotalErrorTerms) {
  EXPECT_EQ(frederic_workload().total_error_terms(),
            262144ull * 169ull * 14641ull);
}

TEST(Workload, ContinuousModelHasNoSemiFluidWork) {
  const Workload w{512, 512, goes9_config()};
  EXPECT_EQ(w.semifluid_candidates_per_mapping(), 0u);
  EXPECT_EQ(w.naive_semifluid_terms(), 0u);
  EXPECT_EQ(w.precomputed_semifluid_terms(), 0u);
}

TEST(Workload, Goes9Table3Counts) {
  const Workload w{512, 512, goes9_config()};
  EXPECT_EQ(w.hypotheses_per_pixel(), 225u);        // 15 x 15
  EXPECT_EQ(w.error_terms_per_hypothesis(), 225u);  // 15 x 15
}

TEST(Workload, PrecomputeSharesWorkAcrossHypotheses) {
  // The Sec. 4.1 optimization must strictly reduce discriminant work.
  const Workload w = frederic_workload();
  EXPECT_LT(w.precomputed_semifluid_terms(), w.naive_semifluid_terms());
  // For Table 1 the naive/precomputed ratio is large (169 hypotheses
  // times 14641 template pixels reuse the same per-pixel cost field).
  EXPECT_GT(static_cast<double>(w.naive_semifluid_terms()) /
                static_cast<double>(w.precomputed_semifluid_terms()),
            1000.0);
}

TEST(PeMemory, PaperSection43Example) {
  // "storing just two floating pointing numbers for each precomputed
  // template mapping for a relatively small search area of 23 x 23 and
  // with 16 pixel elements stored per PE would still require 67.7 KB".
  const std::uint64_t bytes = PeMemoryModel::mapping_store_bytes(23, 2, 16);
  EXPECT_EQ(bytes, 67712u);
  EXPECT_NEAR(static_cast<double>(bytes) / 1024.0, 66.1, 1.0);  // 67.7 "KB" decimal
  EXPECT_GT(bytes, 64u * 1024u);  // exceeds the 64 KB PE memory
}

TEST(PeMemory, SegmentedBytesMonotonicInZ) {
  PeMemoryModel mem;  // 512x512 on 128x128: xvr = yvr = 4
  const SmaConfig c = frederic_config();
  std::uint64_t prev = 0;
  for (int z = 1; z <= c.z_search_size(); ++z) {
    const std::uint64_t b = mem.segmented_bytes(c, z);
    EXPECT_GT(b, prev);
    prev = b;
  }
}

TEST(PeMemory, ContinuousModelNeedsNoCostLayers) {
  PeMemoryModel mem;
  const SmaConfig cont = goes9_config();
  // Independent of Z: no semi-fluid cost layers.
  EXPECT_EQ(mem.segmented_bytes(cont, 1), mem.segmented_bytes(cont, 15));
}

TEST(PeMemory, MaxSegmentRowsRespectsBudget) {
  PeMemoryModel mem;
  const SmaConfig c = frederic_config();
  const std::uint64_t budget = 64 * 1024;
  const int z = mem.max_segment_rows(c, budget);
  ASSERT_GE(z, 1);
  EXPECT_LE(mem.segmented_bytes(c, z), budget);
  if (z < c.z_search_size())
    EXPECT_GT(mem.segmented_bytes(c, z + 1), budget);
}

TEST(PeMemory, TinyBudgetReturnsZero) {
  PeMemoryModel mem;
  EXPECT_EQ(mem.max_segment_rows(frederic_config(), 16), 0);
}

TEST(PeMemory, FredericUnsegmentedFitsButLargeSearchDoesNot) {
  // The Frederic Table 2 run used Z = 2N_zs + 1 (unsegmented) and fit in
  // the 64 KB PE memory; Sec. 4.3's motivating example is a larger
  // search area that does not, forcing segmentation.
  PeMemoryModel mem;
  const SmaConfig frederic = frederic_config();
  EXPECT_LE(mem.segmented_bytes(frederic, frederic.z_search_size()),
            64u * 1024u);

  SmaConfig wide = frederic_config();
  wide.z_search_radius = 15;  // 31x31 search area
  EXPECT_GT(mem.segmented_bytes(wide, wide.z_search_size()), 64u * 1024u);
  // Segmentation brings it back under budget.
  const int z = mem.max_segment_rows(wide, 64u * 1024u);
  ASSERT_GE(z, 1);
  EXPECT_LE(mem.segmented_bytes(wide, z), 64u * 1024u);
}


TEST(Workload, RectangularWindowsCounted) {
  Workload w{512, 512, goes9_config()};
  w.config.z_search_radius_y = 3;   // 15x7 search
  w.config.z_template_radius_y = 5; // 15x11 template
  EXPECT_EQ(w.hypotheses_per_pixel(), 15u * 7u);
  EXPECT_EQ(w.error_terms_per_hypothesis(), 15u * 11u);
}

}  // namespace
}  // namespace sma::core
