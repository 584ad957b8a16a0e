#include "cube/dimension.h"

#include <cmath>
#include <limits>

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

TEST(DimensionTest, ExtremeIntegersAreOutOfRange) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // value - origin overflows int64 for these; the mapping must still
  // answer with a Status (UBSan flags the overflow if it happens).
  const Dimension age = Dimension::Integer("age", 18, 60);
  EXPECT_EQ(age.IndexOfInt(kMin).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(age.IndexOfInt(kMax).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(age.TryIndexOfInt(kMin), Dimension::kNoIndex);

  const Dimension below_zero = Dimension::Integer("delta", -10, 20);
  EXPECT_EQ(below_zero.IndexOfInt(kMax).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(below_zero.IndexOfInt(kMin).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(below_zero.IndexOfInt(-10).value(), 0);
  EXPECT_EQ(below_zero.IndexOfInt(9).value(), 19);

  // A domain at either end of int64: its last and first values map,
  // and the values just past them do not.
  const Dimension top = Dimension::Integer("top", kMax - 3, 4);
  EXPECT_EQ(top.IndexOfInt(kMax).value(), 3);
  EXPECT_EQ(top.IndexOfInt(kMin).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(top.IndexOfInt(kMax - 4).status().code(),
            StatusCode::kOutOfRange);
  const Dimension bottom = Dimension::Integer("bottom", kMin, 4);
  EXPECT_EQ(bottom.IndexOfInt(kMin).value(), 0);
  EXPECT_EQ(bottom.IndexOfInt(kMin + 4).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(bottom.IndexOfInt(kMax).status().code(), StatusCode::kOutOfRange);
}

TEST(DimensionTest, NanAndInfinitiesAreOutOfRange) {
  const Dimension amount = Dimension::Binned("amount", 0.0, 100.0, 10);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(amount.IndexOfDouble(std::nan("")).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(amount.IndexOfDouble(-std::nan("")).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(amount.IndexOfDouble(inf).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(amount.IndexOfDouble(-inf).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(amount.TryIndexOfDouble(std::nan("")), Dimension::kNoIndex);
}

TEST(DimensionTest, TryIndexOfAgreesWithIndexOf) {
  const Dimension age = Dimension::Integer("age", 18, 80);
  const Dimension amount = Dimension::Binned("amount", 0.0, 100.0, 10);
  const Dimension region =
      Dimension::Categorical("region", {"North", "South", "East", "West"});
  for (const int64_t v : {int64_t{17}, int64_t{18}, int64_t{50},
                          int64_t{97}, int64_t{98}}) {
    const Result<int64_t> index = age.IndexOfInt(v);
    EXPECT_EQ(age.TryIndexOfInt(v),
              index.ok() ? index.value() : Dimension::kNoIndex);
    EXPECT_EQ(amount.TryIndexOfInt(v), Dimension::kNoIndex);
  }
  for (const double v : {-0.5, 0.0, 42.0, 99.99, 100.0}) {
    const Result<int64_t> index = amount.IndexOfDouble(v);
    EXPECT_EQ(amount.TryIndexOfDouble(v),
              index.ok() ? index.value() : Dimension::kNoIndex);
    EXPECT_EQ(region.TryIndexOfDouble(v), Dimension::kNoIndex);
  }
  EXPECT_EQ(region.TryIndexOfLabel("East"), 2);
  EXPECT_EQ(region.TryIndexOfLabel("Central"), Dimension::kNoIndex);
  EXPECT_EQ(age.TryIndexOfLabel("East"), Dimension::kNoIndex);
}

TEST(DimensionDeathTest, DuplicateLabelsRejected) {
  EXPECT_DEATH(Dimension::Categorical("r", {"a", "a"}), "unique");
}

}  // namespace
}  // namespace rps
