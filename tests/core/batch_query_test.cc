// RangeSumBatch conformance: for every method the batched path must
// agree with the per-query RangeSum loop -- including the RPS batch
// (a chunked loop of the single-query lookup, so bit-identical even
// for double), the deduplicating hierarchical evaluation, the
// base-class fallback, and the pool-parallel chunking (forced by
// lowering min_parallel_cells).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "core/fenwick_method.h"
#include "core/hierarchical_rps.h"
#include "core/naive_method.h"
#include "core/prefix_sum_method.h"
#include "core/relative_prefix_sum.h"
#include "olap/sharded_engine.h"
#include "util/random.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

std::vector<Box> MakeQueries(const Shape& shape, int count, uint64_t seed) {
  UniformQueryGen gen(shape, seed);
  std::vector<Box> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) queries.push_back(gen.Next());
  return queries;
}

void ExpectBatchMatchesLoop(const QueryMethod<int64_t>& method,
                            const std::vector<Box>& queries) {
  std::vector<int64_t> batch(queries.size());
  method.RangeSumBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], method.RangeSum(queries[i]))
        << method.name() << " query " << i;
  }
}

TEST(BatchQueryTest, MatchesLoopAcrossMethods) {
  const Shape shape = Shape::FromExtents({37, 23});
  const NdArray<int64_t> cube = UniformCube(shape, -50, 50, 7);
  const std::vector<Box> queries = MakeQueries(shape, 200, 11);

  ExpectBatchMatchesLoop(RelativePrefixSum<int64_t>(cube), queries);
  ExpectBatchMatchesLoop(HierarchicalRps<int64_t>(cube), queries);
  // Base-class fallback paths.
  ExpectBatchMatchesLoop(NaiveMethod<int64_t>(cube), queries);
  ExpectBatchMatchesLoop(PrefixSumMethod<int64_t>(cube), queries);
  ExpectBatchMatchesLoop(FenwickMethod<int64_t>(cube), queries);
}

TEST(BatchQueryTest, ThreeDimensional) {
  const Shape shape = Shape::FromExtents({13, 9, 11});
  const NdArray<int64_t> cube = UniformCube(shape, 0, 99, 3);
  const std::vector<Box> queries = MakeQueries(shape, 150, 17);
  ExpectBatchMatchesLoop(RelativePrefixSum<int64_t>(cube), queries);
  ExpectBatchMatchesLoop(HierarchicalRps<int64_t>(cube), queries);
}

TEST(BatchQueryTest, EmptyBatch) {
  const Shape shape = Shape::FromExtents({16, 16});
  const RelativePrefixSum<int64_t> rps(UniformCube(shape, 0, 9, 5));
  std::vector<Box> queries;
  std::vector<int64_t> results;
  rps.RangeSumBatch(queries, results);  // must not touch anything
  const HierarchicalRps<int64_t> hier(UniformCube(shape, 0, 9, 5));
  hier.RangeSumBatch(queries, results);
}

TEST(BatchQueryTest, DuplicateAndAdjacentQueriesShareCorners) {
  const Shape shape = Shape::FromExtents({32, 32});
  const RelativePrefixSum<int64_t> rps(UniformCube(shape, -9, 9, 13));
  // Duplicates, full-cube queries (all corners skip or clamp), and
  // single-cell queries all in one batch.
  std::vector<Box> queries;
  const Box whole = Box::All(shape);
  const Box cell(CellIndex{5, 7}, CellIndex{5, 7});
  for (int i = 0; i < 8; ++i) {
    queries.push_back(whole);
    queries.push_back(cell);
    queries.push_back(Box(CellIndex{0, 3}, CellIndex{20, 30}));
  }
  ExpectBatchMatchesLoop(rps, queries);
}

TEST(BatchQueryTest, ParallelChunkingMatchesSerial) {
  const Shape shape = Shape::FromExtents({41, 29});
  const NdArray<int64_t> cube = UniformCube(shape, -100, 100, 23);
  const std::vector<Box> queries = MakeQueries(shape, 300, 29);

  RelativePrefixSum<int64_t> forced(cube);
  ParallelPolicy policy;
  policy.min_parallel_cells = 1;  // every batch takes the pool path
  forced.set_parallel_policy(policy);
  ExpectBatchMatchesLoop(forced, queries);

  HierarchicalRps<int64_t> forced_hier(cube);
  forced_hier.set_parallel_policy(policy);
  ExpectBatchMatchesLoop(forced_hier, queries);
}

TEST(BatchQueryTest, BatchCountsLookupsLikeTheLoop) {
  const Shape shape = Shape::FromExtents({24, 24});
  const RelativePrefixSum<int64_t> rps(UniformCube(shape, 0, 9, 31));
  const std::vector<Box> queries = MakeQueries(shape, 64, 37);

  rps.ResetLookupStats();
  std::vector<int64_t> batch(queries.size());
  rps.RangeSumBatch(queries, batch);
  const auto batch_stats = rps.lookup_stats();

  rps.ResetLookupStats();
  for (const Box& query : queries) (void)rps.RangeSum(query);
  const auto loop_stats = rps.lookup_stats();

  // The batch runs the loop's lookups, so it reads what the loop
  // reads (never more), and both paths read something.
  EXPECT_GT(batch_stats.total(), 0);
  EXPECT_LE(batch_stats.overlay_reads, loop_stats.overlay_reads);
  EXPECT_LE(batch_stats.rp_reads, loop_stats.rp_reads);
}

TEST(BatchQueryTest, EngineQueryBatch) {
  Schema schema("SALES", {Dimension::Integer("x", 0, 16),
                          Dimension::Integer("y", 0, 16)});
  ShardedOlapEngine engine(schema, EngineMethod::kRelativePrefixSum);

  std::vector<OlapRecord> records;
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    records.push_back(OlapRecord{
        {FieldValue(rng.UniformInt(0, 15)), FieldValue(rng.UniformInt(0, 15))},
        static_cast<double>(rng.UniformInt(1, 9))});
  }
  const IngestReport report = engine.Load(records);
  ASSERT_EQ(report.accepted, 200);

  std::vector<RangeQuery> queries;
  for (int i = 0; i < 32; ++i) {
    RangeQuery query;
    const int64_t x0 = rng.UniformInt(0, 15);
    const int64_t y0 = rng.UniformInt(0, 15);
    query.WhereIntBetween("x", x0, rng.UniformInt(x0, 15));
    query.WhereIntBetween("y", y0, rng.UniformInt(y0, 15));
    queries.push_back(query);
  }

  const Result<std::vector<double>> batch = engine.QueryBatch(queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Result<double> single = engine.Sum(queries[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ(batch.value()[i], single.value()) << "query " << i;
  }

  // A bad query fails the whole batch.
  RangeQuery bad;
  bad.WhereIntBetween("nope", 0, 1);
  queries.push_back(bad);
  EXPECT_FALSE(engine.QueryBatch(queries).ok());
}

// Cent-valued measures: double addition is not associative, so a
// batch must add the cells RangeSum adds in RangeSum's order to give
// the same bits.
double Cents(Rng& rng) {
  return static_cast<double>(rng.UniformInt(1, 100000)) / 100.0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(BatchQueryTest, BatchAndSingleAgreeBitwiseOnNonIntegralMeasures) {
  const Shape shape = Shape::FromExtents({64, 48});
  NdArray<double> cube(shape, 0.0);
  Rng rng(53);
  for (int64_t i = 0; i < shape.num_cells(); ++i) {
    cube.at_linear(i) = Cents(rng);
  }
  const RelativePrefixSum<double> rps(cube);
  const std::vector<Box> queries = MakeQueries(shape, 2000, 59);
  std::vector<double> batch(queries.size());
  rps.RangeSumBatch(queries, batch);
  int differing = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!SameBits(batch[i], rps.RangeSum(queries[i]))) ++differing;
  }
  EXPECT_EQ(differing, 0);
}

TEST(BatchQueryTest, EngineBatchesAgreeBitwiseWithSum) {
  const Schema schema("SALES", {Dimension::Integer("x", 0, 48),
                                Dimension::Integer("y", 0, 40)});
  Rng rng(61);
  std::vector<OlapRecord> records;
  for (int i = 0; i < 4000; ++i) {
    records.push_back(OlapRecord{{FieldValue(rng.UniformInt(0, 47)),
                                  FieldValue(rng.UniformInt(0, 39))},
                                 Cents(rng)});
  }
  std::vector<RangeQuery> queries;
  for (int i = 0; i < 300; ++i) {
    const int64_t x0 = rng.UniformInt(0, 47);
    const int64_t y0 = rng.UniformInt(0, 39);
    queries.push_back(RangeQuery()
                          .WhereIntBetween("x", x0, rng.UniformInt(x0, 47))
                          .WhereIntBetween("y", y0, rng.UniformInt(y0, 39)));
  }
  for (const int shards : {1, 3}) {
    ShardedOlapEngine engine(schema, EngineMethod::kRelativePrefixSum, shards,
                             nullptr);
    ASSERT_EQ(engine.Load(records).accepted, 4000);

    const Result<std::vector<double>> batch = engine.QueryBatch(queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    int differing = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!SameBits(batch.value()[i], engine.Sum(queries[i]).value())) {
        ++differing;
      }
    }
    EXPECT_EQ(differing, 0) << "QueryBatch, shards=" << shards;

    // Rolling windows of 5 along y over x in [3, 40].
    const Result<std::vector<double>> rolling = engine.RollingSum(
        RangeQuery().WhereIntBetween("x", 3, 40), "y", 5);
    ASSERT_TRUE(rolling.ok()) << rolling.status().ToString();
    ASSERT_EQ(rolling.value().size(), 40u);
    differing = 0;
    for (int64_t p = 0; p < 40; ++p) {
      const RangeQuery window =
          RangeQuery()
              .WhereIntBetween("x", 3, 40)
              .WhereIntBetween("y", std::max<int64_t>(0, p - 4), p);
      if (!SameBits(rolling.value()[static_cast<size_t>(p)],
                    engine.Sum(window).value())) {
        ++differing;
      }
    }
    EXPECT_EQ(differing, 0) << "RollingSum, shards=" << shards;
  }
}

// The concurrent serving configuration: three shards, so every batch
// splits into per-shard sub-batches and merges them.
TEST(BatchQueryTest, ConcurrentEngineQueryBatch) {
  Schema schema("V", {Dimension::Integer("x", 0, 8)});
  ShardedOlapEngine engine(schema, EngineMethod::kRelativePrefixSum, 3);

  std::vector<OlapRecord> records;
  for (int i = 0; i < 8; ++i) {
    records.push_back(OlapRecord{{FieldValue(int64_t{i})}, 2.0});
  }
  engine.Load(records);

  std::vector<RangeQuery> queries(3);
  queries[0].WhereIntBetween("x", 0, 7);
  queries[1].WhereIntBetween("x", 2, 4);
  queries[2].WhereIntBetween("x", 7, 7);
  const Result<std::vector<double>> batch = engine.QueryBatch(queries);
  ASSERT_TRUE(batch.ok());
  EXPECT_DOUBLE_EQ(batch.value()[0], 16.0);
  EXPECT_DOUBLE_EQ(batch.value()[1], 6.0);
  EXPECT_DOUBLE_EQ(batch.value()[2], 2.0);
}

}  // namespace
}  // namespace rps
