// Snapshot-isolation test for the sharded engine: a reader holding an
// epoch pin must see exactly one published generation end-to-end,
// even while a writer publishes cross-shard batches underneath it.
//
// The writer only ever applies balanced batches -- +delta to a cell
// in the first shard and -delta to a cell in the last shard, in ONE
// InsertBatch -- so the whole-cube SUM is invariant in every
// published version. A reader that ever computed a sum from two
// different generations (a torn cross-shard read) would break the
// invariant. The composed operators (GROUP BY, cumulative series) read
// many boxes from one pinned version, so their totals must hold the
// invariant too. Runs under the tsan preset via the `concurrency`
// label.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "olap/group_by.h"
#include "olap/sharded_engine.h"
#include "olap/window.h"
#include "testing/test_seed.h"
#include "util/random.h"

namespace rps {
namespace {

constexpr int64_t kRows = 32;
constexpr int64_t kCols = 32;

Schema CubeSchema() {
  return Schema("MEASURE", {Dimension::Integer("d0", 0, kRows),
                            Dimension::Integer("d1", 0, kCols)});
}

TEST(ShardedLinearizabilityTest, ReadersSeeOneGenerationEndToEnd) {
  const uint64_t seed = testing::TestSeed(4242);
  EpochDomain domain;
  ShardedOlapEngine engine(CubeSchema(), EngineMethod::kRelativePrefixSum, 4,
                           nullptr, &domain);

  // Preload every cell with 1: total = kRows * kCols, and the
  // balanced writer keeps it exactly there forever.
  std::vector<OlapRecord> preload;
  for (int64_t r = 0; r < kRows; ++r) {
    for (int64_t c = 0; c < kCols; ++c) {
      preload.push_back(OlapRecord{{r, c}, 1.0});
    }
  }
  ASSERT_EQ(engine.Load(preload).rejected, 0);
  const double invariant = static_cast<double>(kRows * kCols);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn_reads{0};
  std::atomic<int64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(seed + 17 * static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        // Whole-cube sum: crosses every shard, so a torn read of any
        // in-flight batch shifts it away from the invariant.
        const Result<double> sum = engine.Sum(RangeQuery());
        ASSERT_TRUE(sum.ok());
        if (sum.value() != invariant) torn_reads.fetch_add(1);

        // Split consistency: left + right of a random column split
        // must equal a whole-cube sum taken in the SAME batch, since
        // QueryBatch answers the batch against one pinned version.
        const int64_t split = rng.UniformInt(0, kCols - 2);
        const std::vector<RangeQuery> batch = {
            RangeQuery().WhereIntBetween("d1", 0, split),
            RangeQuery().WhereIntBetween("d1", split + 1, kCols - 1),
            RangeQuery(),
        };
        const Result<std::vector<double>> parts = engine.QueryBatch(batch);
        ASSERT_TRUE(parts.ok());
        if (parts.value()[0] + parts.value()[1] != parts.value()[2]) {
          torn_reads.fetch_add(1);
        }
        if (parts.value()[2] != invariant) torn_reads.fetch_add(1);

        // GROUP BY over every row and a cumulative series over every
        // column: each is answered from one version, so the rows sum,
        // and the series ends, at the invariant.
        const Result<std::vector<GroupRow>> rows =
            GroupBy(engine, RangeQuery(), "d0");
        ASSERT_TRUE(rows.ok());
        double rows_total = 0;
        for (const GroupRow& row : rows.value()) rows_total += row.sum;
        if (rows_total != invariant) torn_reads.fetch_add(1);
        const Result<std::vector<double>> cumulative =
            CumulativeSeries(engine, RangeQuery(), "d1");
        ASSERT_TRUE(cumulative.ok());
        if (cumulative.value().back() != invariant) torn_reads.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }

  // The writer: balanced cross-shard batches. Cells in row 0 live in
  // the first shard, cells in row kRows-1 in the last.
  std::thread writer([&] {
    Rng rng(seed + 999);
    uint64_t last_generation = engine.generation();
    for (int i = 0; i < 400; ++i) {
      const double delta = static_cast<double>(rng.UniformInt(1, 5));
      const std::vector<OlapRecord> batch = {
          OlapRecord{{int64_t{0}, rng.UniformInt(0, kCols - 1)}, delta},
          OlapRecord{{kRows - 1, rng.UniformInt(0, kCols - 1)}, -delta},
      };
      if (!engine.InsertBatch(batch).ok()) {
        ADD_FAILURE() << "balanced batch rejected at iteration " << i;
        break;  // still reaches the stop below; readers are released
      }
      const uint64_t generation = engine.generation();
      EXPECT_GT(generation, last_generation);  // publish is monotonic
      last_generation = generation;
    }
    stop.store(true);
  });

  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn_reads.load(), 0)
      << "a reader combined shard states from different generations"
      << testing::SeedMessage(seed);
  EXPECT_GT(reads.load(), 0);
  // All retired versions reclaimable once readers are gone.
  domain.Drain();
  EXPECT_EQ(domain.RetiredCount(), 0);
}

TEST(ShardedLinearizabilityTest, PinnedReaderHoldsItsSnapshotAcrossQueries) {
  EpochDomain domain;
  ShardedOlapEngine engine(CubeSchema(), EngineMethod::kRelativePrefixSum, 4,
                           nullptr, &domain);
  ASSERT_EQ(engine.Load({OlapRecord{{int64_t{0}, int64_t{0}}, 7.0}}).rejected,
            0);

  // RollingSum answers every window against one pinned version; a
  // concurrent publish between windows must not bleed in. Interleave
  // deterministically: snapshot query, publish, re-query.
  const Result<std::vector<double>> before =
      engine.RollingSum(RangeQuery(), "d0", kRows);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(engine.Insert(OlapRecord{{kRows - 1, int64_t{0}}, 100.0}).ok());
  const Result<std::vector<double>> after =
      engine.RollingSum(RangeQuery(), "d0", kRows);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(before.value().back(), 7.0);
  EXPECT_DOUBLE_EQ(after.value().back(), 107.0);
}

}  // namespace
}  // namespace rps
