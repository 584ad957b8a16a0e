// TSan-targeted stress tests for the serving engine: concurrent
// loaders, inserters, and readers hammering one ShardedOlapEngine, to
// prove its copy-on-write publication race-free and lossless. These
// run in every configuration but are labeled `concurrency` so the
// `tsan` ctest preset selects them; the value assertions are coarse
// (status OK, values in range) -- the sanitizer provides the real
// verdict on the races.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "olap/group_by.h"
#include "olap/sharded_engine.h"
#include "util/random.h"

namespace rps {
namespace {

constexpr int kShards = 2;

Schema SmallSchema() {
  return Schema("V", {Dimension::Integer("x", 0, 16),
                      Dimension::Integer("y", 0, 16)});
}

OlapRecord UnitRecord(Rng& rng) {
  return OlapRecord{{rng.UniformInt(0, 15), rng.UniformInt(0, 15)}, 1.0};
}

// A loader repeatedly replacing the cube contents and an inserter
// streaming point updates, racing readers running every query type.
TEST(ConcurrentStressTest, LoadersInsertersAndReadersRace) {
  ShardedOlapEngine engine(SmallSchema(), EngineMethod::kRelativePrefixSum,
                           kShards);
  engine.Load({});

  constexpr int kLoads = 20;
  constexpr int kRecordsPerLoad = 64;
  constexpr int kInserts = 200;
  constexpr int kMaxLiveRecords = kRecordsPerLoad + kInserts;
  std::atomic<bool> done{false};
  std::atomic<int> bad_observations{0};

  std::thread loader([&] {
    Rng rng(11);
    for (int load = 0; load < kLoads; ++load) {
      std::vector<OlapRecord> records;
      records.reserve(kRecordsPerLoad);
      for (int i = 0; i < kRecordsPerLoad; ++i) {
        records.push_back(UnitRecord(rng));
      }
      const IngestReport report = engine.Load(records);
      if (report.accepted != kRecordsPerLoad) ++bad_observations;
    }
  });

  std::thread inserter([&] {
    Rng rng(13);
    for (int i = 0; i < kInserts; ++i) {
      if (!engine.Insert(UnitRecord(rng)).ok()) ++bad_observations;
    }
  });

  // Every record carries measure 1.0, so any consistent snapshot's
  // SUM is an integer in [0, kMaxLiveRecords].
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto sum = engine.Sum(RangeQuery());
        const auto count = engine.Count(RangeQuery());
        const auto rows = GroupBy(engine, RangeQuery(), "x");
        const auto rolling = engine.RollingSum(RangeQuery(), "y", 4);
        if (!sum.ok() || !count.ok() || !rows.ok() || !rolling.ok()) {
          ++bad_observations;
          continue;
        }
        const double s = sum.value();
        if (s < 0 || s > kMaxLiveRecords ||
            s != static_cast<double>(static_cast<int64_t>(s))) {
          ++bad_observations;
        }
        if (count.value() < 0 || count.value() > kMaxLiveRecords) {
          ++bad_observations;
        }
        // GroupBy rows come from one pinned version, so they are
        // mutually consistent: their total is one snapshot's SUM.
        double group_total = 0;
        for (const GroupRow& row : rows.value()) group_total += row.sum;
        if (group_total < 0 || group_total > kMaxLiveRecords) {
          ++bad_observations;
        }
      }
    });
  }

  loader.join();
  inserter.join();
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(bad_observations.load(), 0);
  // The loader ran last-to-finish or not; either way the final state
  // is the last load plus every insert that landed after it -- all we
  // can assert deterministically is integrality and bounds.
  const double final_sum = engine.Sum(RangeQuery()).value();
  EXPECT_GE(final_sum, 0);
  EXPECT_LE(final_sum, kMaxLiveRecords);
  EXPECT_EQ(final_sum, static_cast<double>(engine.Count(RangeQuery()).value()));
}

// Writers must serialize: two insert streams racing for the writer
// mutex, each publishing a cloned shard, lose no updates.
TEST(ConcurrentStressTest, ConcurrentInsertersLoseNoUpdates) {
  ShardedOlapEngine engine(SmallSchema(), EngineMethod::kRelativePrefixSum,
                           kShards);
  engine.Load({});

  constexpr int kPerWriter = 250;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&engine, &failures, w] {
      Rng rng(static_cast<uint64_t>(17 + w));
      for (int i = 0; i < kPerWriter; ++i) {
        if (!engine.Insert(UnitRecord(rng)).ok()) ++failures;
      }
    });
  }
  for (auto& writer : writers) writer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_DOUBLE_EQ(engine.Sum(RangeQuery()).value(), 2.0 * kPerWriter);
  EXPECT_EQ(engine.Count(RangeQuery()).value(), 2 * kPerWriter);
}

}  // namespace
}  // namespace rps
