#include "cube/dimension.h"

#include <gtest/gtest.h>

namespace rps {
namespace {

TEST(DimensionTest, IntegerMapping) {
  const Dimension age = Dimension::Integer("age", 18, 80);
  EXPECT_EQ(age.name(), "age");
  EXPECT_EQ(age.size(), 80);
  EXPECT_TRUE(age.is_integer());

  auto idx = age.IndexOfInt(18);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 0);
  EXPECT_EQ(age.IndexOfInt(37).value(), 19);
  EXPECT_EQ(age.IndexOfInt(97).value(), 79);
  EXPECT_EQ(age.IndexOfInt(98).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(age.IndexOfInt(17).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(age.SlotLabel(19), "37");
}

TEST(DimensionTest, BinnedMapping) {
  const Dimension amount = Dimension::Binned("amount", 0.0, 100.0, 10);
  EXPECT_EQ(amount.size(), 10);
  EXPECT_TRUE(amount.is_binned());
  EXPECT_EQ(amount.IndexOfDouble(0.0).value(), 0);
  EXPECT_EQ(amount.IndexOfDouble(9.999).value(), 0);
  EXPECT_EQ(amount.IndexOfDouble(10.0).value(), 1);
  EXPECT_EQ(amount.IndexOfDouble(99.9).value(), 9);
  EXPECT_EQ(amount.IndexOfDouble(100.0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(amount.IndexOfDouble(-0.1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(DimensionTest, CategoricalMapping) {
  const Dimension region =
      Dimension::Categorical("region", {"North", "South", "East", "West"});
  EXPECT_EQ(region.size(), 4);
  EXPECT_TRUE(region.is_categorical());
  EXPECT_EQ(region.IndexOfLabel("North").value(), 0);
  EXPECT_EQ(region.IndexOfLabel("West").value(), 3);
  EXPECT_EQ(region.IndexOfLabel("Central").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(region.SlotLabel(1), "South");
}

TEST(DimensionTest, KindMismatchIsFailedPrecondition) {
  const Dimension age = Dimension::Integer("age", 0, 10);
  EXPECT_EQ(age.IndexOfDouble(1.0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(age.IndexOfLabel("x").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DimensionDeathTest, DuplicateLabelsRejected) {
  EXPECT_DEATH(Dimension::Categorical("r", {"a", "a"}), "unique");
}

}  // namespace
}  // namespace rps
