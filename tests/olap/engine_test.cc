// End-to-end integration tests of the serving engine (one shard, the
// plain case) across every backing method: load records, query
// SUM/COUNT/AVERAGE, insert streaming records (the paper's
// "near-current" requirement), and rolling windows.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "olap/sharded_engine.h"
#include "util/random.h"

namespace rps {
namespace {

Schema SalesSchema() {
  return Schema("SALES", {Dimension::Integer("age", 18, 50),   // 18..67
                          Dimension::Integer("day", 0, 90)});  // 0..89
}

OlapRecord Sale(int64_t age, int64_t day, double amount) {
  return OlapRecord{{age, day}, amount};
}

class EngineMethodTest : public testing::TestWithParam<EngineMethod> {};

TEST_P(EngineMethodTest, LoadAndAggregate) {
  ShardedOlapEngine engine(SalesSchema(), GetParam());
  const IngestReport report = engine.Load({
      Sale(37, 10, 100.0),
      Sale(37, 11, 50.0),
      Sale(45, 10, 25.0),
      Sale(20, 80, 10.0),
      Sale(99, 10, 999.0),  // age out of domain -> rejected
  });
  EXPECT_EQ(report.accepted, 4);
  EXPECT_EQ(report.rejected, 1);

  // Paper Section 1: "find the total sales for customers with an age
  // from 37 to 52, over [days 10..11]".
  const RangeQuery query = RangeQuery()
                               .WhereIntBetween("age", 37, 52)
                               .WhereIntBetween("day", 10, 11);
  EXPECT_DOUBLE_EQ(engine.Sum(query).value(), 175.0);
  EXPECT_EQ(engine.Count(query).value(), 3);
  EXPECT_DOUBLE_EQ(engine.Average(query).value(), 175.0 / 3);

  // Whole-cube query.
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 185.0);
  EXPECT_EQ(engine.Count(RangeQuery()).value(), 4);
}

TEST_P(EngineMethodTest, InsertKeepsAggregatesCurrent) {
  ShardedOlapEngine engine(SalesSchema(), GetParam());
  engine.Load({Sale(30, 0, 10.0)});
  ASSERT_TRUE(engine.Insert(Sale(30, 1, 5.0)).ok());
  ASSERT_TRUE(engine.Insert(Sale(31, 1, 7.0)).ok());
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 22.0);
  EXPECT_EQ(engine.Count(RangeQuery()).value(), 3);
  EXPECT_DOUBLE_EQ(
      engine.Sum(RangeQuery().WhereIntBetween("day", 1, 1)).value(), 12.0);
  // Out-of-domain insert fails and changes nothing.
  EXPECT_FALSE(engine.Insert(Sale(10, 1, 3.0)).ok());
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 22.0);
}

TEST_P(EngineMethodTest, AverageOverEmptyRangeFails) {
  ShardedOlapEngine engine(SalesSchema(), GetParam());
  engine.Load({Sale(30, 0, 10.0)});
  const auto avg =
      engine.Average(RangeQuery().WhereIntBetween("day", 50, 60));
  EXPECT_EQ(avg.status().code(), StatusCode::kFailedPrecondition);
}

TEST_P(EngineMethodTest, RollingSumWindows) {
  ShardedOlapEngine engine(SalesSchema(), GetParam());
  engine.Load({
      Sale(30, 0, 1.0),
      Sale(30, 1, 2.0),
      Sale(30, 2, 4.0),
      Sale(30, 3, 8.0),
  });
  const auto rolling = engine.RollingSum(
      RangeQuery().WhereIntBetween("day", 0, 3), "day", 2);
  ASSERT_TRUE(rolling.ok());
  const std::vector<double> expected = {1.0, 3.0, 6.0, 12.0};
  EXPECT_EQ(rolling.value(), expected);

  // Window of 1 is the per-day series.
  const auto daily = engine.RollingSum(
      RangeQuery().WhereIntBetween("day", 0, 3), "day", 1);
  const std::vector<double> expected_daily = {1.0, 2.0, 4.0, 8.0};
  EXPECT_EQ(daily.value(), expected_daily);
}

TEST_P(EngineMethodTest, RollingAverageHandlesEmptyWindows) {
  ShardedOlapEngine engine(SalesSchema(), GetParam());
  engine.Load({Sale(30, 1, 6.0), Sale(31, 1, 2.0)});
  const auto rolling = engine.RollingAverage(
      RangeQuery().WhereIntBetween("day", 0, 2), "day", 1);
  ASSERT_TRUE(rolling.ok());
  const std::vector<double> expected = {0.0, 4.0, 0.0};
  EXPECT_EQ(rolling.value(), expected);
}

TEST_P(EngineMethodTest, RollingRejectsBadArguments) {
  ShardedOlapEngine engine(SalesSchema(), GetParam());
  EXPECT_EQ(engine.RollingSum(RangeQuery(), "day", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RollingSum(RangeQuery(), "week", 2).status().code(),
            StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, EngineMethodTest,
    testing::Values(EngineMethod::kNaive, EngineMethod::kPrefixSum,
                    EngineMethod::kRelativePrefixSum, EngineMethod::kFenwick,
                    EngineMethod::kHierarchicalRps),
    [](const testing::TestParamInfo<EngineMethod>& info) {
      return std::string(EngineMethodName(info.param));
    });

TEST(EngineCrossMethodTest, AllMethodsAgreeUnderRandomWorkload) {
  Rng rng(0x515);
  std::vector<OlapRecord> records;
  for (int i = 0; i < 400; ++i) {
    records.push_back(Sale(rng.UniformInt(18, 67), rng.UniformInt(0, 89),
                           static_cast<double>(rng.UniformInt(1, 500))));
  }
  std::vector<std::unique_ptr<ShardedOlapEngine>> engines;
  for (const EngineMethod method :
       {EngineMethod::kNaive, EngineMethod::kPrefixSum,
        EngineMethod::kRelativePrefixSum, EngineMethod::kFenwick,
        EngineMethod::kHierarchicalRps}) {
    engines.push_back(
        std::make_unique<ShardedOlapEngine>(SalesSchema(), method));
  }
  for (auto& engine : engines) engine->Load(records);

  for (int step = 0; step < 40; ++step) {
    // Insert the same record everywhere.
    const OlapRecord record = Sale(rng.UniformInt(18, 67),
                                   rng.UniformInt(0, 89),
                                   static_cast<double>(rng.UniformInt(1, 99)));
    for (auto& engine : engines) ASSERT_TRUE(engine->Insert(record).ok());

    const int64_t age_a = rng.UniformInt(18, 67);
    const int64_t age_b = rng.UniformInt(18, 67);
    const int64_t day_a = rng.UniformInt(0, 89);
    const int64_t day_b = rng.UniformInt(0, 89);
    const RangeQuery query =
        RangeQuery()
            .WhereIntBetween("age", std::min(age_a, age_b),
                             std::max(age_a, age_b))
            .WhereIntBetween("day", std::min(day_a, day_b),
                             std::max(day_a, day_b));
    const double expected_sum = engines[0]->Sum(query).value();
    const int64_t expected_count = engines[0]->Count(query).value();
    for (size_t e = 1; e < engines.size(); ++e) {
      ASSERT_NEAR(engines[e]->Sum(query).value(), expected_sum, 1e-6)
          << EngineMethodName(engines[e]->method());
      ASSERT_EQ(engines[e]->Count(query).value(), expected_count)
          << EngineMethodName(engines[e]->method());
    }
  }
}

TEST(EngineUpdateCostTest, RpsUpdatesCheaperThanPrefixSum) {
  // The paper's headline: near-current data is affordable with RPS.
  // Insert a stream of records and compare cumulative touched cells.
  Rng rng(0x616);
  ShardedOlapEngine ps(SalesSchema(), EngineMethod::kPrefixSum);
  ShardedOlapEngine rps(SalesSchema(), EngineMethod::kRelativePrefixSum);
  ps.Load({});
  rps.Load({});
  for (int i = 0; i < 50; ++i) {
    const OlapRecord record = Sale(rng.UniformInt(18, 67),
                                   rng.UniformInt(0, 89), 1.0);
    ASSERT_TRUE(ps.Insert(record).ok());
    ASSERT_TRUE(rps.Insert(record).ok());
  }
  EXPECT_LT(rps.cumulative_update_cells(), ps.cumulative_update_cells() / 4)
      << "RPS should touch far fewer cells than the prefix sum method";
}

}  // namespace
}  // namespace rps
