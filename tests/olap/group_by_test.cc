#include "olap/group_by.h"

#include <memory>

#include <gtest/gtest.h>

#include "olap/sharded_engine.h"

namespace rps {
namespace {

Schema ShopSchema() {
  return Schema("REVENUE",
                {Dimension::Categorical("region", {"North", "South"}),
                 Dimension::Integer("month", 1, 12)});
}

OlapRecord Order(const std::string& region, int64_t month, double revenue) {
  return OlapRecord{{region, month}, revenue};
}

class GroupByTest : public testing::TestWithParam<EngineMethod> {
 protected:
  // Two shards: one per region.
  std::unique_ptr<ShardedOlapEngine> MakeEngine() const {
    auto engine = std::make_unique<ShardedOlapEngine>(ShopSchema(),
                                                      GetParam(), 2);
    engine->Load({
        Order("North", 1, 100), Order("North", 1, 50), Order("North", 2, 30),
        Order("South", 1, 20), Order("South", 3, 70), Order("South", 12, 5),
    });
    return engine;
  }
};

TEST_P(GroupByTest, GroupByCategoricalDimension) {
  const auto engine = MakeEngine();
  const auto rows = GroupBy(*engine, RangeQuery(), "region");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0].slot, "North");
  EXPECT_DOUBLE_EQ(rows.value()[0].sum, 180);
  EXPECT_EQ(rows.value()[0].count, 3);
  EXPECT_DOUBLE_EQ(rows.value()[0].average(), 60);
  EXPECT_EQ(rows.value()[1].slot, "South");
  EXPECT_DOUBLE_EQ(rows.value()[1].sum, 95);
  EXPECT_EQ(rows.value()[1].count, 3);
}

TEST_P(GroupByTest, GroupByRespectsQueryRange) {
  const auto engine = MakeEngine();
  // Months 1..2 only.
  const auto rows = GroupBy(
      *engine, RangeQuery().WhereIntBetween("month", 1, 2), "month");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0].slot, "1");
  EXPECT_DOUBLE_EQ(rows.value()[0].sum, 170);  // 100+50+20
  EXPECT_EQ(rows.value()[1].slot, "2");
  EXPECT_DOUBLE_EQ(rows.value()[1].sum, 30);
}

TEST_P(GroupByTest, EmptySlotsReportZero) {
  const auto engine = MakeEngine();
  const auto rows = GroupBy(
      *engine, RangeQuery().WhereIntBetween("month", 4, 6), "month");
  ASSERT_TRUE(rows.ok());
  for (const GroupRow& row : rows.value()) {
    EXPECT_DOUBLE_EQ(row.sum, 0);
    EXPECT_EQ(row.count, 0);
    EXPECT_DOUBLE_EQ(row.average(), 0);
  }
}

TEST_P(GroupByTest, UnknownDimensionFails) {
  const auto engine = MakeEngine();
  EXPECT_EQ(GroupBy(*engine, RangeQuery(), "city").status().code(),
            StatusCode::kNotFound);
}

TEST_P(GroupByTest, CrossTabulate) {
  const auto engine = MakeEngine();
  const auto tab = CrossTabulate(
      *engine, RangeQuery().WhereIntBetween("month", 1, 3), "region", "month");
  ASSERT_TRUE(tab.ok());
  ASSERT_EQ(tab.value().row_labels.size(), 2u);
  ASSERT_EQ(tab.value().col_labels.size(), 3u);
  EXPECT_DOUBLE_EQ(tab.value().sums[0][0], 150);  // North, month 1
  EXPECT_DOUBLE_EQ(tab.value().sums[0][1], 30);   // North, month 2
  EXPECT_DOUBLE_EQ(tab.value().sums[0][2], 0);    // North, month 3
  EXPECT_DOUBLE_EQ(tab.value().sums[1][0], 20);   // South, month 1
  EXPECT_DOUBLE_EQ(tab.value().sums[1][2], 70);   // South, month 3
  // Cross-tab total equals the range total.
  double total = 0;
  for (const auto& row : tab.value().sums) {
    for (double v : row) total += v;
  }
  EXPECT_DOUBLE_EQ(
      total,
      engine->Sum(RangeQuery().WhereIntBetween("month", 1, 3)).value());
}

TEST_P(GroupByTest, CrossTabNeedsDistinctDimensions) {
  const auto engine = MakeEngine();
  EXPECT_EQ(
      CrossTabulate(*engine, RangeQuery(), "month", "month").status().code(),
      StatusCode::kInvalidArgument);
}

TEST_P(GroupByTest, TopSlotsBySumSortsAndLimits) {
  const auto engine = MakeEngine();
  const auto top = TopSlotsBySum(*engine, RangeQuery(), "month", 2);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top.value().size(), 2u);
  EXPECT_EQ(top.value()[0].slot, "1");  // 170
  EXPECT_DOUBLE_EQ(top.value()[0].sum, 170);
  EXPECT_EQ(top.value()[1].slot, "3");  // 70
  // limit <= 0 returns all rows sorted.
  const auto all = TopSlotsBySum(*engine, RangeQuery(), "month", 0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 12u);
  for (size_t i = 1; i < all.value().size(); ++i) {
    EXPECT_GE(all.value()[i - 1].sum, all.value()[i].sum);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, GroupByTest,
    testing::Values(EngineMethod::kNaive, EngineMethod::kRelativePrefixSum),
    [](const testing::TestParamInfo<EngineMethod>& info) {
      return std::string(EngineMethodName(info.param));
    });

}  // namespace
}  // namespace rps
