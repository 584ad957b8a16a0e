// Readers sharing one RelativePrefixSum count their cell lookups in
// per-thread cells: once they are done, lookup_stats() is exactly K
// times what one reader counts for the same queries, and the
// process-wide query counter gained exactly K times the queries. This
// binary carries the `concurrency` ctest label, so the tsan preset
// runs it under ThreadSanitizer.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/relative_prefix_sum.h"
#include "obs/metrics.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

TEST(LookupStatsConcurrencyTest, SharedReadersCountExactly) {
  constexpr int kReaders = 4;
  constexpr int kQueries = 2000;
  const Shape shape{64, 64};
  const RelativePrefixSum<int64_t> rps(UniformCube(shape, 0, 9, 3), nullptr);
  UniformQueryGen gen(shape, 11);
  std::vector<Box> queries;
  for (int i = 0; i < kQueries; ++i) queries.push_back(gen.Next());
  const auto run_queries = [&] {
    int64_t total = 0;
    for (const Box& query : queries) total += rps.RangeSum(query);
    return total;
  };

  rps.ResetLookupStats();
  const int64_t expected = run_queries();
  const auto one = rps.lookup_stats();
  ASSERT_GT(one.total(), 0);

  obs::Counter& queries_total =
      obs::MetricRegistry::Global().GetCounter("rps_core_rps_queries_total");
  const int64_t queries_before = queries_total.Value();
  rps.ResetLookupStats();
  std::vector<int64_t> totals(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back(
        [&, t] { totals[static_cast<size_t>(t)] = run_queries(); });
  }
  for (std::thread& reader : readers) reader.join();

  for (const int64_t total : totals) EXPECT_EQ(total, expected);
  const auto all = rps.lookup_stats();
  EXPECT_EQ(all.overlay_reads, kReaders * one.overlay_reads);
  EXPECT_EQ(all.rp_reads, kReaders * one.rp_reads);
  EXPECT_EQ(queries_total.Value() - queries_before,
            int64_t{kReaders} * kQueries);

  // A copy carries the totals, and its own reads add to them.
  const RelativePrefixSum<int64_t> copy = rps;
  EXPECT_EQ(copy.lookup_stats().total(), all.total());
  run_queries();
  EXPECT_EQ(copy.lookup_stats().total(), all.total());
  EXPECT_EQ(rps.lookup_stats().total(), all.total() + one.total());
}

}  // namespace
}  // namespace rps
