// Unit and property tests for core/semifluid.hpp — F_semi (Sec. 2.3),
// the Sec. 4.1 precomputed cost field and the correspondence table.
#include "core/semifluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "helpers.hpp"

namespace sma::core {
namespace {

TEST(SemiFluidCost, ZeroForIdenticalFields) {
  const imaging::ImageF d = testing::textured_pattern(16, 16);
  EXPECT_NEAR(semifluid_cost(d, d, 8, 8, 8, 8, 2), 0.0, 1e-10);
}

TEST(SemiFluidCost, PositiveForMismatch) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 16);
  const imaging::ImageF d1 = testing::textured_pattern(16, 16, 1.0);
  EXPECT_GT(semifluid_cost(d0, d1, 8, 8, 8, 8, 2), 0.0);
}

TEST(SemiFluidCost, DetectsShiftedContent) {
  // d1 is d0 shifted by (3, 0); the cost at the matching offset must be
  // (near) zero while the unshifted cost is positive.
  const imaging::ImageF d0 = testing::textured_pattern(24, 24);
  const imaging::ImageF d1 = testing::shift_image(d0, 3, 0);
  EXPECT_NEAR(semifluid_cost(d0, d1, 10, 12, 13, 12, 2), 0.0, 1e-8);
  EXPECT_GT(semifluid_cost(d0, d1, 10, 12, 10, 12, 2), 1.0);
}

TEST(SemiFluidMatch, FindsPlantedOffset) {
  const imaging::ImageF d0 = testing::textured_pattern(24, 24);
  const imaging::ImageF d1 = testing::shift_image(d0, 1, -1);
  // Continuous target (cx, cy) = (10, 12); the true correspondence is at
  // (11, 11), inside the 3x3 semi-fluid window.
  const auto [bx, by] = semifluid_match(d0, d1, 10, 12, 10, 12, 1, 2);
  EXPECT_EQ(bx, 11);
  EXPECT_EQ(by, 11);
}

TEST(SemiFluidMatch, NssZeroReturnsCenter) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 16);
  const imaging::ImageF d1 = testing::shift_image(d0, 1, 0);
  const auto [bx, by] = semifluid_match(d0, d1, 8, 8, 9, 10, 0, 2);
  EXPECT_EQ(bx, 9);
  EXPECT_EQ(by, 10);
}

TEST(SemiFluidMatch, TieBreaksTowardCenter) {
  // Constant discriminants: every candidate costs zero; the rule keeps
  // the window center (continuous behaviour on featureless patches).
  const imaging::ImageF d0(16, 16, 1.0f);
  const imaging::ImageF d1(16, 16, 1.0f);
  const auto [bx, by] = semifluid_match(d0, d1, 8, 8, 9, 9, 2, 1);
  EXPECT_EQ(bx, 9);
  EXPECT_EQ(by, 9);
}

// Property: the precomputed cost field equals the direct cost for every
// in-band offset, for several window geometries.
struct FieldCase {
  int ox_radius;
  int oy_min, oy_max;
  int nst;
};

class CostFieldEquivalence : public ::testing::TestWithParam<FieldCase> {};

TEST_P(CostFieldEquivalence, MatchesDirectCost) {
  const FieldCase fc = GetParam();
  const imaging::ImageF d0 = testing::textured_pattern(20, 18);
  const imaging::ImageF d1 = testing::textured_pattern(20, 18, 0.7);
  const SemiFluidCostField field(d0, d1, fc.ox_radius, fc.oy_min, fc.oy_max,
                                 fc.nst);
  for (int py = 0; py < 18; py += 3)
    for (int px = 0; px < 20; px += 3)
      for (int oy = fc.oy_min; oy <= fc.oy_max; ++oy)
        for (int ox = -fc.ox_radius; ox <= fc.ox_radius; ++ox) {
          const double direct =
              semifluid_cost(d0, d1, px, py, px + ox, py + oy, fc.nst);
          EXPECT_EQ(field.layer(ox, oy).at(px, py), direct)
              << "p=(" << px << "," << py << ") o=(" << ox << "," << oy << ")";
        }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, CostFieldEquivalence,
    ::testing::Values(FieldCase{2, -2, 2, 1}, FieldCase{3, -3, 3, 2},
                      FieldCase{2, -1, 1, 2}, FieldCase{1, 0, 2, 1},
                      FieldCase{4, -4, -2, 1}));

TEST(CostField, BandedConstructionBytes) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 16);
  const imaging::ImageF d1 = testing::textured_pattern(16, 16, 0.3);
  // Full band: 5 x 5 offsets.
  const SemiFluidCostField full(d0, d1, 2, -2, 2, 1);
  EXPECT_EQ(full.bytes(), 25u * 16u * 16u * sizeof(double));
  // Two-row band: 5 x 2 offsets.
  const SemiFluidCostField band(d0, d1, 2, 0, 1, 1);
  EXPECT_EQ(band.bytes(), 10u * 16u * 16u * sizeof(double));
  EXPECT_LT(band.bytes(), full.bytes());
}

TEST(CostField, BandedEqualsFullOnSharedOffsets) {
  const imaging::ImageF d0 = testing::textured_pattern(16, 16);
  const imaging::ImageF d1 = testing::textured_pattern(16, 16, 0.4);
  const SemiFluidCostField full(d0, d1, 2, -2, 2, 1);
  const SemiFluidCostField band(d0, d1, 2, 0, 1, 1);
  for (int py = 0; py < 16; py += 2)
    for (int px = 0; px < 16; px += 2)
      for (int oy = 0; oy <= 1; ++oy)
        for (int ox = -2; ox <= 2; ++ox)
          EXPECT_EQ(band.layer(ox, oy).at(px, py),
                    full.layer(ox, oy).at(px, py));
}

TEST(CostField, AccessorsReportBand) {
  const imaging::ImageF d(8, 8, 0.0f);
  const SemiFluidCostField field(d, d, 3, -1, 2, 1);
  EXPECT_EQ(field.ox_radius(), 3);
  EXPECT_EQ(field.oy_min(), -1);
  EXPECT_EQ(field.oy_max(), 2);
}

TEST(CostField, RowLimitedEqualsFullOnItsRows) {
  const imaging::ImageF d0 = testing::textured_pattern(13, 17);
  const imaging::ImageF d1 = testing::textured_pattern(13, 17, 0.6);
  const SemiFluidCostField full(d0, d1, 2, -1, 1, 2);
  // Strips touching the top edge, the interior and the bottom edge.
  for (const auto [r0, r1] : {std::pair<int, int>{0, 3}, {5, 9}, {14, 16}}) {
    const SemiFluidCostField strip(d0, d1, 2, -1, 1, 2, r0, r1);
    EXPECT_EQ(strip.bytes(), 15u * 13u * (r1 - r0 + 1) * sizeof(double));
    for (int py = r0; py <= r1; ++py)
      for (int px = 0; px < 13; ++px)
        for (int oy = -1; oy <= 1; ++oy)
          for (int ox = -2; ox <= 2; ++ox)
            EXPECT_EQ(strip.layer(ox, oy).at(px, py - r0),
                      full.layer(ox, oy).at(px, py))
                << "rows " << r0 << ".." << r1 << " p=(" << px << "," << py
                << ") o=(" << ox << "," << oy << ")";
  }
}

// ---------------------------------------------------------------------------
// SemiFluidTable: every entry M_h(p) must equal the direct
// semifluid_match — on every pixel (clamped borders included), every
// hypothesis of the segment, under exact-tie plateaus and non-finite
// costs, for N_ss in {0, 1, 2}, rectangular searches and segments
// smaller than the full search.
// ---------------------------------------------------------------------------

// A block written into the discriminants before the table is built.
enum class Patch {
  kNone,
  kPlateau,   // same constant in both frames: exact-tie plateaus
  kInfBoth,   // +inf in both frames: costs inf (one side) and NaN (both)
  kInfAfter,  // +inf in D' only: costs inf, never NaN
};

struct TableCase {
  const char* name;
  int w, h;
  int nss, nst;
  int hx_radius;
  int hy_min, hy_max;  // the segment
  Patch patch;
};

void apply_patch(const TableCase& c, imaging::ImageF& d0,
                 imaging::ImageF& d1) {
  const float inf = std::numeric_limits<float>::infinity();
  switch (c.patch) {
    case Patch::kNone:
      return;
    case Patch::kPlateau:
      // Every candidate whose semi-fluid template stays inside the block
      // costs exactly zero.
      for (int y = 2; y < std::min(c.h, 11); ++y)
        for (int x = 1; x < std::min(c.w, 12); ++x) {
          d0.at(x, y) = 5.0f;
          d1.at(x, y) = 5.0f;
        }
      return;
    case Patch::kInfBoth:
    case Patch::kInfAfter:
      // Candidates whose template touches the block cost inf, or NaN
      // where both frames are inf.  A pixel with no finite candidate
      // must keep its window centre.
      for (int y = 8; y < std::min(c.h, 13); ++y)
        for (int x = 6; x < std::min(c.w, 11); ++x) {
          if (c.patch == Patch::kInfBoth) d0.at(x, y) = inf;
          d1.at(x, y) = inf;
        }
      return;
  }
}

// The case's discriminants: a textured D, D' its (1, -1) shift, and the
// case's patch written into both.
std::pair<imaging::ImageF, imaging::ImageF> case_discriminants(
    const TableCase& c) {
  imaging::ImageF d0 = testing::textured_pattern(c.w, c.h);
  imaging::ImageF d1 = testing::shift_image(d0, 1, -1);
  apply_patch(c, d0, d1);
  return {std::move(d0), std::move(d1)};
}

// Code bytes that differ between two tables built over the same window.
std::size_t differing_codes(const SemiFluidTable& a, const SemiFluidTable& b) {
  const std::uint8_t* const pa = a.codes(0, 0, a.hy_min());
  const std::uint8_t* const pb = b.codes(0, 0, b.hy_min());
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.bytes(); ++i) n += pa[i] != pb[i] ? 1 : 0;
  return n;
}

class TableEquivalence : public ::testing::TestWithParam<TableCase> {};

TEST_P(TableEquivalence, EntriesMatchDirectMatch) {
  const TableCase c = GetParam();
  const auto [d0, d1] = case_discriminants(c);
  const SemiFluidTable layers(d0, d1, c.hx_radius, c.hy_min, c.hy_max, c.nss,
                              c.nst);
  const SemiFluidCostField field(d0, d1, c.hx_radius + c.nss,
                                 c.hy_min - c.nss, c.hy_max + c.nss, c.nst);
  const std::size_t nhx = 2u * c.hx_radius + 1u;
  const std::size_t nhy = static_cast<std::size_t>(c.hy_max - c.hy_min + 1);
  EXPECT_EQ(layers.bytes(), nhx * nhy * c.w * c.h);
  EXPECT_GT(layers.band_bytes(), 0u);
  EXPECT_LT(layers.band_bytes(), field.bytes());

  const bool plateau = c.patch == Patch::kPlateau;
  int ties = 0;
  int nonfinite = 0;
  for (int py = 0; py < c.h; ++py)
    for (int px = 0; px < c.w; ++px)
      for (int hy = c.hy_min; hy <= c.hy_max; ++hy)
        for (int hx = -c.hx_radius; hx <= c.hx_radius; ++hx) {
          const auto [sx, sy] = semifluid_match(d0, d1, px, py, px + hx,
                                                py + hy, c.nss, c.nst);
          ASSERT_EQ(layers.offset(px, py, hx, hy),
                    std::make_pair(sx - px, sy - py))
              << c.name << " p=(" << px << "," << py << ") h=(" << hx << ","
              << hy << ")";
          const double cost = field.layer(hx, hy).at(px, py);
          if (plateau && cost == 0.0) ++ties;
          if (!std::isfinite(cost)) ++nonfinite;
        }
  if (plateau && c.nss > 0) {
    EXPECT_GT(ties, 0) << "plateau never tied";
  }
  if (c.patch == Patch::kInfBoth || c.patch == Patch::kInfAfter) {
    EXPECT_GT(nonfinite, 0) << "inf patch left every cost finite";
  }
}

// Strips built as pool tasks write disjoint code rows: every byte equals
// the serial build's at every pool width.
TEST_P(TableEquivalence, ParallelBuildMatchesSerial) {
  const TableCase c = GetParam();
  const auto [d0, d1] = case_discriminants(c);
  const auto build = [&](bool parallel) {
    return SemiFluidTable(d0, d1, c.hx_radius, c.hy_min, c.hy_max, c.nss,
                          c.nst, parallel);
  };
  const SemiFluidTable serial = build(false);
  for (const int width : {1, 2, 4}) {
    const testing::PoolWidth pool(width);
    const SemiFluidTable parallel = build(true);
    ASSERT_EQ(parallel.bytes(), serial.bytes());
    EXPECT_EQ(differing_codes(parallel, serial), 0u)
        << c.name << " at pool width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Segments, TableEquivalence,
    ::testing::Values(
        // Full square search, paper-style windows.
        TableCase{"nss1_square", 19, 21, 1, 2, 2, -2, 2, Patch::kNone},
        // N_ss = 0: the table is the F_cont identity.
        TableCase{"nss0", 15, 13, 0, 2, 2, -2, 2, Patch::kNone},
        // Wider semi-fluid window.
        TableCase{"nss2", 17, 14, 2, 1, 1, -1, 1, Patch::kNone},
        // Rectangular search: vertical radius differs from horizontal.
        TableCase{"rect_search", 16, 18, 1, 2, 3, -1, 1, Patch::kNone},
        // Segments of a 5-row search: first, interior, single-row.
        TableCase{"segment_top", 18, 17, 1, 2, 2, -2, -1, Patch::kNone},
        TableCase{"segment_mid", 18, 17, 1, 2, 2, 0, 1, Patch::kNone},
        TableCase{"segment_row", 18, 17, 2, 1, 2, 2, 2, Patch::kNone},
        // Exact-tie plateaus.
        TableCase{"plateau_nss1", 16, 16, 1, 1, 2, -2, 2, Patch::kPlateau},
        TableCase{"plateau_nss2", 16, 16, 2, 0, 1, -1, 1, Patch::kPlateau},
        // Non-finite costs: no finite candidate keeps the window centre.
        TableCase{"inf_both", 19, 21, 1, 2, 2, -2, 2, Patch::kInfBoth},
        TableCase{"inf_after", 19, 21, 1, 2, 2, -2, 2, Patch::kInfAfter},
        // Whole strips only, and whole strips plus a short last one.
        TableCase{"four_strips", 12, 32, 1, 2, 2, -2, 2, Patch::kNone},
        TableCase{"strip_tail", 10, 27, 1, 2, 3, -1, 1, Patch::kNone},
        // Frames shorter than one strip, and smaller than the halo.
        TableCase{"short_frame", 11, 5, 1, 2, 2, -2, 2, Patch::kNone},
        TableCase{"tiny_frame", 3, 4, 2, 2, 3, -3, 3, Patch::kNone}),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      return std::string(info.param.name);
    });

// Strips built side by side each hold their own band, so band_bytes is
// one strip's high-water times the strips that can be resident at once.
TEST(SemiFluidTable, BandBytesCountResidentStrips) {
  // Four equal strips: every strip's band peaks at the same bytes.
  const int h = 4 * SemiFluidTable::kStripRows;
  const imaging::ImageF d0 = testing::textured_pattern(12, h);
  const imaging::ImageF d1 = testing::shift_image(d0, 1, -1);
  const auto band_bytes = [&](bool parallel) {
    return SemiFluidTable(d0, d1, 2, -2, 2, 1, 2, parallel).band_bytes();
  };
  const std::size_t serial = band_bytes(false);
  ASSERT_GT(serial, 0u);
  for (const int width : {4, 2, 1}) {
    const testing::PoolWidth pool(width);
    EXPECT_EQ(band_bytes(true), static_cast<std::size_t>(width) * serial)
        << "pool width " << width;
  }
}

TEST(SemiFluidTable, RejectsOversizedWindow) {
  const imaging::ImageF d(8, 8, 1.0f);
  EXPECT_THROW(SemiFluidTable(d, d, 1, 0, 0, SemiFluidTable::kMaxNss + 1, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace sma::core
