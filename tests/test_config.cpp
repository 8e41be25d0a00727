// Unit tests for core/config.hpp — the paper's Table 1 / Table 3 presets.
#include "core/config.hpp"

#include <gtest/gtest.h>

namespace sma::core {
namespace {

TEST(Config, FredericMatchesTable1) {
  const SmaConfig c = frederic_config();
  EXPECT_EQ(c.model, MotionModel::kSemiFluid);
  EXPECT_EQ(c.surface_fit_size(), 5);        // "Surface-fitting 5x5"
  EXPECT_EQ(c.z_search_size(), 13);          // "z-Search area 13x13"
  EXPECT_EQ(c.z_template_size(), 121);       // "z-Template 121x121"
  EXPECT_EQ(c.semifluid_template_size(), 5); // "Semi-fluid template 5x5"
  EXPECT_EQ(c.semifluid_search_size(), 3);   // Sec. 3: "3x3 = 9 error terms"
  // Table 2 run was unsegmented: Z = 2 N_zs + 1.
  EXPECT_EQ(c.effective_segment_rows(), 13);
}

TEST(Config, Goes9MatchesTable3) {
  const SmaConfig c = goes9_config();
  EXPECT_EQ(c.model, MotionModel::kContinuous);
  EXPECT_EQ(c.z_search_size(), 15);    // "Search Area 15x15"
  EXPECT_EQ(c.z_template_size(), 15);  // "Template 15x15"
  EXPECT_EQ(c.surface_fit_size(), 5);  // "Surface-patch 5x5"
}

TEST(Config, LuisMatchesSection5) {
  const SmaConfig c = luis_config();
  EXPECT_EQ(c.model, MotionModel::kContinuous);
  EXPECT_EQ(c.z_template_size(), 11);  // "z-template of 11x11"
  EXPECT_EQ(c.z_search_size(), 9);     // "z-search of 9x9"
}

TEST(Config, ScaledVariantsKeepModel) {
  EXPECT_EQ(frederic_scaled_config().model, MotionModel::kSemiFluid);
  EXPECT_EQ(goes9_scaled_config().model, MotionModel::kContinuous);
  EXPECT_EQ(luis_scaled_config().model, MotionModel::kContinuous);
}

TEST(Config, ScaledVariantsAreSmaller) {
  EXPECT_LT(frederic_scaled_config().z_template_radius,
            frederic_config().z_template_radius);
  EXPECT_LT(goes9_scaled_config().z_search_radius,
            goes9_config().z_search_radius);
}

TEST(Config, EffectiveNssZeroForContinuous) {
  SmaConfig c = goes9_config();
  c.semifluid_search_radius = 3;  // ignored under the continuous model
  EXPECT_EQ(c.effective_nss(), 0);
  c.model = MotionModel::kSemiFluid;
  EXPECT_EQ(c.effective_nss(), 3);
}

TEST(Config, SemiFluidSearchRadiusCapOnlyBindsSemiFluid) {
  SmaConfig c = goes9_scaled_config();
  c.model = MotionModel::kContinuous;
  c.semifluid_search_radius = kMaxSemiFluidSearchRadius + 1;  // ignored
  EXPECT_NO_THROW(c.validate());
  c.model = MotionModel::kSemiFluid;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.semifluid_search_radius = kMaxSemiFluidSearchRadius;
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, ValidateAcceptsPresets) {
  EXPECT_NO_THROW(frederic_config().validate());
  EXPECT_NO_THROW(goes9_config().validate());
  EXPECT_NO_THROW(luis_config().validate());
  EXPECT_NO_THROW(frederic_scaled_config().validate());
}

TEST(Config, ValidateRejectsBadParameters) {
  SmaConfig c = goes9_scaled_config();
  c.surface_fit_radius = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = goes9_scaled_config();
  c.z_search_radius = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = goes9_scaled_config();
  c.template_stride = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = goes9_scaled_config();
  c.segment_rows = c.z_search_size() + 1;  // bigger than the search area
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = frederic_scaled_config();
  c.semifluid_template_radius = -2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, SegmentRowsOverride) {
  SmaConfig c = frederic_config();
  c.segment_rows = 2;  // the Sec. 4.3 example: segments of 2 rows
  EXPECT_EQ(c.effective_segment_rows(), 2);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, DescribeMentionsModelAndSizes) {
  const std::string s = frederic_config().describe();
  EXPECT_NE(s.find("semi-fluid"), std::string::npos);
  EXPECT_NE(s.find("121x121"), std::string::npos);
  const std::string s2 = goes9_config().describe();
  EXPECT_NE(s2.find("continuous"), std::string::npos);
  EXPECT_NE(s2.find("15x15"), std::string::npos);
}


TEST(Config, RectangularWindows) {
  // Sec. 2.2: "rectangular areas can also be used and may lead to
  // improved motion correspondence results."
  SmaConfig c = goes9_scaled_config();
  EXPECT_EQ(c.z_search_ry(), c.z_search_radius);  // square by default
  c.z_search_radius_y = 1;
  c.z_template_radius_y = 5;
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(c.z_search_size(), 7);
  EXPECT_EQ(c.z_search_size_y(), 3);
  EXPECT_EQ(c.z_template_size_y(), 11);
  EXPECT_NE(c.describe().find("7x3"), std::string::npos);
}

TEST(Config, RectangularValidation) {
  SmaConfig c = goes9_scaled_config();
  c.z_search_radius_y = -2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = goes9_scaled_config();
  c.z_search_radius_y = 0;
  c.segment_rows = 1;  // the only row
  EXPECT_NO_THROW(c.validate());
  c.segment_rows = 2;  // more rows than the 1-row search area
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace sma::core
