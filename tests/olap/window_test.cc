#include "olap/window.h"

#include <memory>

#include <gtest/gtest.h>

#include "olap/sharded_engine.h"

namespace rps {
namespace {

// Three shards over the ten days, so every series crosses shard
// boundaries.
std::unique_ptr<ShardedOlapEngine> MakeEngine() {
  auto engine = std::make_unique<ShardedOlapEngine>(
      Schema("V", {Dimension::Integer("day", 0, 10),
                   Dimension::Integer("store", 0, 2)}),
      EngineMethod::kRelativePrefixSum, /*shards=*/3);
  // day d carries value d+1 in store 0 and 10*(d+1) in store 1.
  std::vector<OlapRecord> records;
  for (int64_t day = 0; day < 10; ++day) {
    records.push_back(
        OlapRecord{{day, int64_t{0}}, static_cast<double>(day + 1)});
    records.push_back(
        OlapRecord{{day, int64_t{1}}, static_cast<double>(10 * (day + 1))});
  }
  engine->Load(records);
  return engine;
}

TEST(WindowTest, SlotSeries) {
  const auto engine = MakeEngine();
  const auto series = SlotSeries(
      *engine, RangeQuery().WhereIntBetween("store", 0, 0), "day");
  ASSERT_TRUE(series.ok());
  const std::vector<double> expected = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(series.value(), expected);
  // Both stores: 11x.
  const auto both = SlotSeries(*engine, RangeQuery(), "day");
  ASSERT_TRUE(both.ok());
  EXPECT_DOUBLE_EQ(both.value()[0], 11);
  EXPECT_DOUBLE_EQ(both.value()[9], 110);
}

TEST(WindowTest, SlotSeriesRespectsSubrange) {
  const auto engine = MakeEngine();
  const auto series = SlotSeries(
      *engine,
      RangeQuery().WhereIntBetween("day", 3, 5).WhereIntBetween("store", 0,
                                                                0),
      "day");
  ASSERT_TRUE(series.ok());
  const std::vector<double> expected = {4, 5, 6};
  EXPECT_EQ(series.value(), expected);
}

TEST(WindowTest, PeriodDelta) {
  const auto engine = MakeEngine();
  const auto deltas = PeriodDelta(
      *engine, RangeQuery().WhereIntBetween("store", 0, 0), "day", 1);
  ASSERT_TRUE(deltas.ok());
  // series 1..10 -> first element kept, then constant +1.
  EXPECT_DOUBLE_EQ(deltas.value()[0], 1);
  for (size_t i = 1; i < deltas.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(deltas.value()[i], 1) << i;
  }
  // lag 3: out[i] = series[i]-series[i-3] = 3 for i >= 3.
  const auto lag3 = PeriodDelta(
      *engine, RangeQuery().WhereIntBetween("store", 0, 0), "day", 3);
  ASSERT_TRUE(lag3.ok());
  EXPECT_DOUBLE_EQ(lag3.value()[2], 3);  // i < lag: raw series value
  EXPECT_DOUBLE_EQ(lag3.value()[3], 3);
  EXPECT_DOUBLE_EQ(lag3.value()[9], 3);
}

TEST(WindowTest, PeriodDeltaRejectsBadLag) {
  const auto engine = MakeEngine();
  EXPECT_EQ(PeriodDelta(*engine, RangeQuery(), "day", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WindowTest, CumulativeSeries) {
  const auto engine = MakeEngine();
  const auto cumulative = CumulativeSeries(
      *engine, RangeQuery().WhereIntBetween("store", 0, 0), "day");
  ASSERT_TRUE(cumulative.ok());
  // 1, 3, 6, 10, ... triangular numbers.
  const std::vector<double>& c = cumulative.value();
  EXPECT_DOUBLE_EQ(c[0], 1);
  EXPECT_DOUBLE_EQ(c[1], 3);
  EXPECT_DOUBLE_EQ(c[9], 55);
  // Monotone non-decreasing for non-negative data.
  for (size_t i = 1; i < c.size(); ++i) EXPECT_GE(c[i], c[i - 1]);
}

TEST(WindowTest, UnknownDimensionFails) {
  const auto engine = MakeEngine();
  EXPECT_EQ(SlotSeries(*engine, RangeQuery(), "week").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(CumulativeSeries(*engine, RangeQuery(), "week").status().code(),
            StatusCode::kNotFound);
}

TEST(WindowTest, CumulativeSeriesRespectsSubrange) {
  const auto engine = MakeEngine();
  // Days 3..6, store 0 only: slot values 4,5,6,7 -> cumulative
  // 4,9,15,22 (the running sum restarts at the subrange, not day 0).
  const auto cumulative = CumulativeSeries(
      *engine,
      RangeQuery().WhereIntBetween("day", 3, 6).WhereIntBetween("store", 0,
                                                                0),
      "day");
  ASSERT_TRUE(cumulative.ok());
  const std::vector<double> expected = {4, 9, 15, 22};
  EXPECT_EQ(cumulative.value(), expected);
}

TEST(WindowTest, CumulativeMatchesRunningSlotSeries) {
  // Cross-check the two series against each other: cumulative[i]
  // must equal the running total of the per-slot series.
  const auto engine = MakeEngine();
  const RangeQuery query = RangeQuery().WhereIntBetween("day", 1, 8);
  const auto slots = SlotSeries(*engine, query, "day");
  const auto cumulative = CumulativeSeries(*engine, query, "day");
  ASSERT_TRUE(slots.ok());
  ASSERT_TRUE(cumulative.ok());
  double running = 0;
  ASSERT_EQ(slots.value().size(), cumulative.value().size());
  for (size_t i = 0; i < slots.value().size(); ++i) {
    running += slots.value()[i];
    EXPECT_DOUBLE_EQ(cumulative.value()[i], running) << i;
  }
}

TEST(WindowTest, PeriodDeltaLagLargerThanSeriesKeepsRawValues) {
  const auto engine = MakeEngine();
  // 10 slots with lag 50: no slot has an earlier period, so every
  // element is the raw series value.
  const auto deltas = PeriodDelta(
      *engine, RangeQuery().WhereIntBetween("store", 0, 0), "day", 50);
  ASSERT_TRUE(deltas.ok());
  const auto series = SlotSeries(
      *engine, RangeQuery().WhereIntBetween("store", 0, 0), "day");
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(deltas.value(), series.value());
}

TEST(WindowTest, PeriodDeltaUnknownDimensionFails) {
  const auto engine = MakeEngine();
  EXPECT_EQ(PeriodDelta(*engine, RangeQuery(), "week", 1).status().code(),
            StatusCode::kNotFound);
}

TEST(WindowTest, BadQueryPropagatesThroughEverySeries) {
  const auto engine = MakeEngine();
  // "hour" is not a dimension, so query resolution itself fails and
  // each series function must surface that status.
  const RangeQuery bad = RangeQuery().WhereIntBetween("hour", 0, 1);
  EXPECT_FALSE(SlotSeries(*engine, bad, "day").ok());
  EXPECT_FALSE(PeriodDelta(*engine, bad, "day", 1).ok());
  EXPECT_FALSE(CumulativeSeries(*engine, bad, "day").ok());
}

TEST(WindowTest, SingleSlotRange) {
  const auto engine = MakeEngine();
  const auto series = SlotSeries(
      *engine,
      RangeQuery().WhereIntBetween("day", 4, 4).WhereIntBetween("store", 1,
                                                                1),
      "day");
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series.value().size(), 1u);
  EXPECT_DOUBLE_EQ(series.value()[0], 50);
}

TEST(WindowTest, LiveUpdatesReflectImmediately) {
  const auto engine = MakeEngine();
  ASSERT_TRUE(
      engine->Insert(OlapRecord{{int64_t{0}, int64_t{0}}, 100.0}).ok());
  const auto series = SlotSeries(
      *engine, RangeQuery().WhereIntBetween("store", 0, 0), "day");
  ASSERT_TRUE(series.ok());
  EXPECT_DOUBLE_EQ(series.value()[0], 101);
}

}  // namespace
}  // namespace rps
