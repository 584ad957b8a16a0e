#include "olap/sharded_engine.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "olap/group_by.h"
#include "olap/window.h"
#include "util/epoch.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace rps {
namespace {

Schema TwoDee(int64_t rows, int64_t cols) {
  return Schema("MEASURE", {Dimension::Integer("d0", 0, rows),
                            Dimension::Integer("d1", 0, cols)});
}

OlapRecord Rec(int64_t r, int64_t c, double measure) {
  return OlapRecord{{r, c}, measure};
}

TEST(ShardedEngineTest, ShardCountClampedToDimensionZero) {
  ShardedOlapEngine engine(TwoDee(4, 16), EngineMethod::kRelativePrefixSum,
                           99, nullptr);
  EXPECT_EQ(engine.shards(), 4);  // at most one shard per row
  ShardedOlapEngine one(TwoDee(4, 16), EngineMethod::kRelativePrefixSum, 1,
                        nullptr);
  EXPECT_EQ(one.shards(), 1);
}

TEST(ShardedEngineTest, LoadThenCrossShardSums) {
  // 10 rows over 3 shards: slices of 4, 3, 3 rows.
  ShardedOlapEngine engine(TwoDee(10, 6), EngineMethod::kRelativePrefixSum,
                           3, nullptr);
  EXPECT_EQ(engine.shards(), 3);
  std::vector<OlapRecord> records;
  for (int64_t r = 0; r < 10; ++r) {
    for (int64_t c = 0; c < 6; ++c) {
      records.push_back(Rec(r, c, static_cast<double>(r * 6 + c)));
    }
  }
  const IngestReport report = engine.Load(records);
  EXPECT_EQ(report.accepted, 60);
  EXPECT_EQ(report.rejected, 0);

  // Whole cube: sum 0..59.
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 59.0 * 60.0 / 2.0);
  // A range crossing all three shard boundaries.
  const RangeQuery cross =
      RangeQuery().WhereIntBetween("d0", 2, 8).WhereIntBetween("d1", 1, 4);
  double expected = 0;
  for (int64_t r = 2; r <= 8; ++r) {
    for (int64_t c = 1; c <= 4; ++c) expected += static_cast<double>(r * 6 + c);
  }
  EXPECT_DOUBLE_EQ(engine.Sum(cross).value(), expected);
  // A range within a single interior shard.
  EXPECT_DOUBLE_EQ(
      engine.Sum(RangeQuery().WhereIntBetween("d0", 5, 6)).value(),
      [&] {
        double sum = 0;
        for (int64_t r = 5; r <= 6; ++r) {
          for (int64_t c = 0; c < 6; ++c) sum += static_cast<double>(r * 6 + c);
        }
        return sum;
      }());
  EXPECT_EQ(engine.Count(cross).value(), 7 * 4);
}

TEST(ShardedEngineTest, LoadCountsRejects) {
  ShardedOlapEngine engine(TwoDee(4, 4), EngineMethod::kRelativePrefixSum, 2,
                           nullptr);
  const IngestReport report =
      engine.Load({Rec(0, 0, 1), Rec(9, 0, 1), Rec(3, 3, 2)});
  EXPECT_EQ(report.accepted, 2);
  EXPECT_EQ(report.rejected, 1);
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 3);
}

TEST(ShardedEngineTest, InsertBatchIsAllOrNothing) {
  ShardedOlapEngine engine(TwoDee(8, 8), EngineMethod::kRelativePrefixSum, 4,
                           nullptr);
  const uint64_t before = engine.generation();
  // One bad record poisons the whole batch: nothing lands.
  const std::vector<OlapRecord> bad = {Rec(0, 0, 5), Rec(42, 0, 5)};
  EXPECT_FALSE(engine.InsertBatch(bad).ok());
  EXPECT_EQ(engine.generation(), before);
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 0);

  const std::vector<OlapRecord> good = {Rec(0, 0, 5), Rec(7, 7, 2)};
  ASSERT_TRUE(engine.InsertBatch(good).ok());
  EXPECT_EQ(engine.generation(), before + 1);  // one publish per batch
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 7);
}

TEST(ShardedEngineTest, GenerationAdvancesOncePerPublish) {
  ShardedOlapEngine engine(TwoDee(8, 4), EngineMethod::kRelativePrefixSum, 2,
                           nullptr);
  const uint64_t start = engine.generation();
  ASSERT_TRUE(engine.Insert(Rec(0, 0, 1)).ok());
  ASSERT_TRUE(engine.Insert(Rec(7, 3, 1)).ok());
  EXPECT_EQ(engine.generation(), start + 2);
  engine.Load({Rec(1, 1, 1)});
  EXPECT_EQ(engine.generation(), start + 3);
}

TEST(ShardedEngineTest, MatchesUnshardedEngineOnEverySurface) {
  // Five shards against one (the unsharded plain case) on identical
  // data, through every read operator.
  ShardedOlapEngine reference(TwoDee(12, 5), EngineMethod::kRelativePrefixSum,
                              1, nullptr);
  ShardedOlapEngine sharded(TwoDee(12, 5), EngineMethod::kRelativePrefixSum,
                           5, nullptr);
  std::vector<OlapRecord> records;
  for (int64_t r = 0; r < 12; ++r) {
    for (int64_t c = 0; c < 5; ++c) {
      if ((r + c) % 3 == 0) records.push_back(Rec(r, c, r * 1.0 + c * 10.0));
    }
  }
  reference.Load(records);
  sharded.Load(records);

  std::vector<RangeQuery> queries;
  for (int64_t lo = 0; lo < 12; lo += 2) {
    for (int64_t hi = lo; hi < 12; hi += 3) {
      queries.push_back(RangeQuery().WhereIntBetween("d0", lo, hi));
    }
  }
  for (const RangeQuery& query : queries) {
    EXPECT_DOUBLE_EQ(sharded.Sum(query).value(),
                     reference.Sum(query).value());
    EXPECT_EQ(sharded.Count(query).value(), reference.Count(query).value());
  }
  const Result<std::vector<double>> batch = sharded.QueryBatch(queries);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch.value()[i], reference.Sum(queries[i]).value()) << i;
  }
  const RangeQuery all;
  EXPECT_DOUBLE_EQ(sharded.Average(all).value(),
                   reference.Average(all).value());
  EXPECT_EQ(sharded.RollingSum(all, "d0", 3).value(),
            reference.RollingSum(all, "d0", 3).value());
  EXPECT_EQ(sharded.RollingAverage(all, "d0", 4).value(),
            reference.RollingAverage(all, "d0", 4).value());
  EXPECT_EQ(SlotSeries(sharded, all, "d0").value(),
            SlotSeries(reference, all, "d0").value());
  EXPECT_EQ(PeriodDelta(sharded, all, "d0", 2).value(),
            PeriodDelta(reference, all, "d0", 2).value());
  EXPECT_EQ(CumulativeSeries(sharded, all, "d1").value(),
            CumulativeSeries(reference, all, "d1").value());
  EXPECT_EQ(CrossTabulate(sharded, all, "d0", "d1").value().sums,
            CrossTabulate(reference, all, "d0", "d1").value().sums);
  const auto groups = GroupBy(sharded, all, "d0").value();
  const auto reference_groups = GroupBy(reference, all, "d0").value();
  ASSERT_EQ(groups.size(), reference_groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    EXPECT_DOUBLE_EQ(groups[i].sum, reference_groups[i].sum) << i;
    EXPECT_EQ(groups[i].count, reference_groups[i].count) << i;
  }
  EXPECT_EQ(TopSlotsBySum(sharded, all, "d0", 3).value()[0].slot,
            TopSlotsBySum(reference, all, "d0", 3).value()[0].slot);
}

TEST(ShardedEngineTest, AverageFailsOnEmptyRange) {
  ShardedOlapEngine engine(TwoDee(4, 4), EngineMethod::kRelativePrefixSum, 2,
                           nullptr);
  EXPECT_EQ(engine.Average(RangeQuery()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedEngineTest, QueryErrorsPropagate) {
  ShardedOlapEngine engine(TwoDee(4, 4), EngineMethod::kRelativePrefixSum, 2,
                           nullptr);
  EXPECT_FALSE(engine.Sum(RangeQuery().WhereIntBetween("week", 0, 1)).ok());
  EXPECT_FALSE(engine.Insert(OlapRecord{{int64_t{0}}, 1.0}).ok());
}

TEST(ShardedEngineTest, HealthAndVarzPayloads) {
  ShardedOlapEngine engine(TwoDee(9, 3), EngineMethod::kRelativePrefixSum, 4,
                           nullptr);
  ASSERT_TRUE(engine.Insert(Rec(2, 1, 1)).ok());
  const std::string health = engine.HealthJson();
  EXPECT_NE(health.find("\"method\":\"relative_prefix_sum\""),
            std::string::npos)
      << health;
  EXPECT_NE(health.find("\"update_cells\":" +
                        std::to_string(engine.cumulative_update_cells())),
            std::string::npos)
      << health;
  EXPECT_GT(engine.cumulative_update_cells(), 0);
  EXPECT_NE(health.find("\"shards\":4"), std::string::npos) << health;
  const std::string varz = engine.VarzJson();
  // One row per shard with its dimension-0 slice.
  EXPECT_NE(varz.find("\"shard\":0"), std::string::npos) << varz;
  EXPECT_NE(varz.find("\"shard\":3"), std::string::npos) << varz;
  EXPECT_NE(varz.find("\"epoch\""), std::string::npos) << varz;
}

TEST(ShardedEngineTest, IsolatedDomainDrainsOnDestruction) {
  EpochDomain domain;
  {
    ShardedOlapEngine engine(TwoDee(6, 6), EngineMethod::kRelativePrefixSum,
                             2, nullptr, &domain);
    ASSERT_TRUE(engine.Insert(Rec(0, 0, 1)).ok());
    ASSERT_TRUE(engine.Insert(Rec(5, 5, 1)).ok());
    EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 2);
  }
  // Every retired version was freed when the engine tore down.
  EXPECT_EQ(domain.RetiredCount(), 0);
}

TEST(ShardedEngineTest, LoadFreesTheVersionItReplaces) {
  EpochDomain domain;
  ShardedOlapEngine engine(TwoDee(6, 6), EngineMethod::kRelativePrefixSum, 2,
                           nullptr, &domain);
  ASSERT_EQ(engine.Load({Rec(0, 0, 1)}).accepted, 1);
  // No reader is pinned, so the replaced version is already freed.
  EXPECT_EQ(domain.RetiredCount(), 0);
  {
    // A reader pinned across a Load keeps the version it pinned,
    // readable, until it unpins.
    const ShardedOlapEngine::ReadView view(engine, "test.pinned_read");
    ASSERT_EQ(engine.Load({Rec(1, 1, 5)}).accepted, 1);
    EXPECT_EQ(domain.RetiredCount(), 1);
    EXPECT_DOUBLE_EQ(view.SumOverCells(Box::All(Shape{6, 6})).value(), 1);
  }
  ASSERT_TRUE(engine
                  .LoadCells(NdArray<double>(Shape{6, 6}, 2.0),
                             NdArray<int64_t>(Shape{6, 6}, int64_t{1}))
                  .ok());
  EXPECT_EQ(domain.RetiredCount(), 0);
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 72);
}

TEST(ServingFactoryTest, RoutesOnShardCount) {
  const auto shards_of = [](int shards) {
    const auto engine = MakeServingEngine(
        TwoDee(64, 8), EngineMethod::kRelativePrefixSum, shards, nullptr);
    return dynamic_cast<const ShardedOlapEngine&>(*engine).shards();
  };
  EXPECT_EQ(shards_of(2), 2);
  // < 1: the thread-pool default.
  const int pool_default = std::min(ThreadPool::DefaultThreads(), 64);
  EXPECT_EQ(shards_of(0), pool_default);
  EXPECT_EQ(shards_of(-1), pool_default);
}

// InsertBatch hands each touched shard's records to one AddBatch per
// structure (a one-record batch, as every Insert makes, is an Add
// inside RelativePrefixSum::AddBatch); the result must equal one
// Insert per record on every cell and prefix sum, bit for bit
// (integral measures), for every method.
TEST(ShardedEngineTest, InsertBatchEqualsOneInsertPerRecord) {
  const Schema schema = TwoDee(37, 29);
  for (const EngineMethod method :
       {EngineMethod::kRelativePrefixSum, EngineMethod::kFenwick,
        EngineMethod::kHierarchicalRps}) {
    for (const int shards : {1, 3}) {
      ShardedOlapEngine batched(schema, method, shards, nullptr);
      ShardedOlapEngine one_by_one(schema, method, shards, nullptr);
      Rng rng(17 + shards);
      for (int round = 0; round < 6; ++round) {
        // Alternate the newest rows (one box row of the last shard), the
        // whole cube, and repeats of a few cells.
        std::vector<OlapRecord> batch;
        for (int i = 0; i < 80; ++i) {
          const int64_t row = round % 3 == 0 ? rng.UniformInt(31, 36)
                              : round % 3 == 1 ? rng.UniformInt(0, 36)
                                               : 3 * rng.UniformInt(0, 2);
          const int64_t col =
              round % 3 == 2 ? rng.UniformInt(0, 1) : rng.UniformInt(0, 28);
          batch.push_back(
              Rec(row, col, static_cast<double>(rng.UniformInt(-500, 500))));
        }
        ASSERT_TRUE(batched.InsertBatch(batch).ok());
        for (const OlapRecord& record : batch) {
          ASSERT_TRUE(one_by_one.Insert(record).ok());
        }
      }
      std::vector<std::tuple<CellIndex, double, int64_t>> want;
      one_by_one.FreezeCells().ForEach(
          [&](const CellIndex& cell, double sum, int64_t count) {
            want.emplace_back(cell, sum, count);
          });
      size_t i = 0;
      batched.FreezeCells().ForEach(
          [&](const CellIndex& cell, double sum, int64_t count) {
            ASSERT_LT(i, want.size());
            const auto& [want_cell, want_sum, want_count] = want[i++];
            EXPECT_EQ(cell, want_cell);
            EXPECT_EQ(std::memcmp(&sum, &want_sum, sizeof(double)), 0)
                << EngineMethodName(method) << " S=" << shards << " cell "
                << cell.ToString() << ": " << sum << " vs " << want_sum;
            EXPECT_EQ(count, want_count)
                << EngineMethodName(method) << " S=" << shards << " cell "
                << cell.ToString();
          });
      EXPECT_EQ(i, want.size());
      // ValueAt reads only RP cells; prefix sums read the overlay too.
      for (int64_t r = 0; r < 37; ++r) {
        for (int64_t c = 0; c < 29; ++c) {
          const RangeQuery prefix = RangeQuery()
                                        .WhereIntBetween("d0", 0, r)
                                        .WhereIntBetween("d1", 0, c);
          const double got = batched.Sum(prefix).value();
          const double expected = one_by_one.Sum(prefix).value();
          ASSERT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
              << EngineMethodName(method) << " S=" << shards << " prefix ("
              << r << ", " << c << "): " << got << " vs " << expected;
          ASSERT_EQ(batched.Count(prefix).value(),
                    one_by_one.Count(prefix).value());
        }
      }
    }
  }
}

TEST(ShardedEngineTest, EveryEngineMethodWorksSharded) {
  for (const EngineMethod method :
       {EngineMethod::kNaive, EngineMethod::kPrefixSum,
        EngineMethod::kRelativePrefixSum, EngineMethod::kFenwick,
        EngineMethod::kHierarchicalRps}) {
    ShardedOlapEngine engine(TwoDee(8, 8), method, 3, nullptr);
    ASSERT_TRUE(engine.Insert(Rec(1, 1, 4)).ok()) << EngineMethodName(method);
    ASSERT_TRUE(engine.Insert(Rec(6, 7, 5)).ok()) << EngineMethodName(method);
    EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 9)
        << EngineMethodName(method);
  }
}

}  // namespace
}  // namespace rps
