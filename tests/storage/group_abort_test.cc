// Fault-injected group-commit regressions. The hazards specific to
// batched durability: a transiently-failed group must roll the log
// back to the last GROUP boundary before retrying (or replay
// double-counts every record in the partial group); an exhausted
// retry must fail every waiter in the group while leaving the log
// clean for the next group; and records acknowledged into a rotated
// log must survive a crashed pipelined checkpoint via fold-forward
// recovery. Runs in the faults CI preset.

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "olap/durable_engine.h"
#include "storage/durable_rps.h"
#include "storage/fault_env.h"
#include "storage/group_commit.h"
#include "storage/wal.h"
#include "testing/temp_dir.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

constexpr int kDims = 2;

class GroupAbortTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fail::FailpointRegistry::Global().DisarmAll();
    fault_env::ClearSimulatedCrash();
  }

  static void Arm(const std::string& site, fail::TriggerPolicy policy) {
    fail::FailpointRegistry::Global().Get(site).Arm(policy);
  }

  testing::ScopedTempDir tmp_{"rps_group_abort"};
};

// A transient short write lands somewhere inside a multi-writer
// group. The commit thread must roll the partial group back and
// retry; every waiter still succeeds and replay sees each record
// exactly once.
TEST_F(GroupAbortTest, TransientShortWriteRetriesGroupWithoutDoubleApply) {
  constexpr int kWriters = 4;
  constexpr int64_t kPerWriter = 25;
  const std::string path = tmp_.file("wal.log");
  auto opened = WriteAheadLog::OpenForAppend(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(opened.ok());
  GroupCommitOptions options;
  options.retry = RetryPolicy::NoBackoff(4);
  GroupCommitWal wal(std::move(opened).value(), options);

  // Every 3rd physical WAL write fails after persisting a prefix.
  Arm("io.wal.short_write", fail::TriggerPolicy::EveryNth(3));
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&wal, w] {
      for (int64_t i = 0; i < kPerWriter; ++i) {
        const int64_t payload = static_cast<int64_t>(w) * kPerWriter + i;
        const CellIndex cell{static_cast<int64_t>(w), i};
        ASSERT_TRUE(wal.Append(cell, &payload).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  fail::FailpointRegistry::Global().DisarmAll();
  wal.Shutdown();

  auto replay = WriteAheadLog::Replay(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().tail_truncated);
  ASSERT_EQ(replay.value().records.size(),
            static_cast<size_t>(kWriters * kPerWriter));
  std::vector<int> seen(kWriters * kPerWriter, 0);
  for (const WalRecord& record : replay.value().records) {
    int64_t payload = 0;
    std::memcpy(&payload, record.payload.data(), sizeof(payload));
    ASSERT_GE(payload, 0);
    ASSERT_LT(payload, kWriters * kPerWriter);
    seen[static_cast<size_t>(payload)] += 1;
  }
  for (int count : seen) EXPECT_EQ(count, 1);  // no double-apply on retry
}

// Retries exhausted: the whole group fails, every waiter gets the
// error, and the log is left at a clean group boundary so the next
// group (after the fault clears) commits normally.
TEST_F(GroupAbortTest, ExhaustedRetriesFailWholeGroupAtCleanBoundary) {
  const std::string path = tmp_.file("wal.log");
  auto opened = WriteAheadLog::OpenForAppend(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(opened.ok());
  GroupCommitOptions options;
  options.retry = RetryPolicy::NoBackoff(1);  // single attempt, no retry
  GroupCommitWal wal(std::move(opened).value(), options);

  const int64_t first = 1;
  ASSERT_TRUE(wal.Append(CellIndex{0, 0}, &first).ok());

  Arm("io.wal.short_write", fail::TriggerPolicy::Always());
  std::vector<Status> results(3);
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&wal, &results, w] {
      const int64_t payload = 100 + w;
      const CellIndex cell{1, static_cast<int64_t>(w)};
      results[static_cast<size_t>(w)] = wal.Append(cell, &payload);
    });
  }
  for (std::thread& writer : writers) writer.join();
  for (const Status& result : results) {
    EXPECT_FALSE(result.ok());  // every waiter saw its group abort
  }

  fail::FailpointRegistry::Global().DisarmAll();
  const int64_t last = 2;
  ASSERT_TRUE(wal.Append(CellIndex{2, 2}, &last).ok());
  wal.Shutdown();

  // Only the two successful records are on disk; the aborted groups
  // were rolled back to the boundary, not left as torn bytes.
  auto replay = WriteAheadLog::Replay(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().tail_truncated);
  ASSERT_EQ(replay.value().records.size(), 2u);
  EXPECT_EQ(replay.value().records[0].cell[0], 0);
  EXPECT_EQ(replay.value().records[1].cell[0], 2);
}

// A torn write (prefix persisted, then process death) mid-stream:
// groups committed before the crash replay intact.
TEST_F(GroupAbortTest, TornWriteCrashKeepsCommittedGroupsReadable) {
  const std::string path = tmp_.file("wal.log");
  auto opened = WriteAheadLog::OpenForAppend(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(opened.ok());
  {
    GroupCommitWal wal(std::move(opened).value(), GroupCommitOptions{});
    for (int64_t i = 0; i < 10; ++i) {
      const CellIndex cell{i, i};
      ASSERT_TRUE(wal.Append(cell, &i).ok());
    }
    Arm("io.wal.torn_write", fail::TriggerPolicy::Once());
    const int64_t doomed = 99;
    EXPECT_FALSE(wal.Append(CellIndex{9, 9}, &doomed).ok());
    EXPECT_TRUE(fault_env::SimulatedCrashActive());
  }  // "post-mortem" teardown: shutdown with the crash still active

  fault_env::ClearSimulatedCrash();
  auto replay = WriteAheadLog::Replay(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(replay.value().records[static_cast<size_t>(i)].cell[0], i);
  }
}

// The pipelined-checkpoint crash hazard: records acknowledged AFTER
// rotation live in wal-(N+1) while CURRENT still names N. Crash the
// snapshot write with such records in flight; recovery must
// fold-forward the orphan log or acknowledged durable records are
// silently lost.
TEST_F(GroupAbortTest, FoldForwardRecoversAckedRecordsAfterCheckpointCrash) {
  const Shape shape{8, 8};
  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 41);
  DurableOptions options;
  options.group_commit = true;
  auto created = DurableRps<int64_t>::Create(oracle, CellIndex{3, 3},
                                             tmp_.path(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  {
    auto durable = std::move(created).value();
    Rng rng(8);
    for (int i = 0; i < 20; ++i) {
      const CellIndex cell{rng.UniformInt(0, 7), rng.UniformInt(0, 7)};
      const int64_t delta = rng.UniformInt(1, 9);
      oracle.at(cell) += delta;
      ASSERT_TRUE(durable.Add(cell, delta).ok());
    }
    // The hook runs after rotation (writers live again, appends now
    // land in wal-2) and before the snapshot write: push five more
    // acknowledged records, then kill the snapshot write.
    durable.set_checkpoint_write_hook([&] {
      Rng hook_rng(9);
      for (int i = 0; i < 5; ++i) {
        const CellIndex cell{hook_rng.UniformInt(0, 7),
                             hook_rng.UniformInt(0, 7)};
        const int64_t delta = hook_rng.UniformInt(1, 9);
        oracle.at(cell) += delta;
        ASSERT_TRUE(durable.Add(cell, delta).ok());
      }
      Arm("io.snapshot.crash", fail::TriggerPolicy::Once());
    });
    EXPECT_FALSE(durable.Checkpoint().ok());
    EXPECT_TRUE(fault_env::SimulatedCrashActive());
    EXPECT_EQ(durable.generation(), 1);  // commit never happened
  }

  fault_env::ClearSimulatedCrash();
  WalReplay replay;
  auto reopened = DurableRps<int64_t>::Open(tmp_.path(), &replay);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // All 25 acknowledged records were folded in: 20 from wal-1 plus
  // the 5 orphans from the rotated wal-2.
  EXPECT_EQ(replay.records.size(), 25u);
  // Fold-forward immediately checkpoints the merged state past every
  // rotated log (wal-2 existed, so the fresh generation is 3).
  EXPECT_EQ(reopened.value().generation(), 3);
  UniformQueryGen gen(shape, 43);
  for (int trial = 0; trial < 30; ++trial) {
    const Box range = gen.Next();
    ASSERT_EQ(reopened.value().RangeSum(range), oracle.SumBox(range));
  }
  ASSERT_EQ(reopened.value().RangeSum(Box::All(shape)),
            oracle.SumBox(Box::All(shape)));
}

// A store created where an earlier one lived owns the directory: the
// earlier store's wal-3 must not come back as an orphan log when a
// checkpoint of the new store crashes after rotating to wal-2.
TEST_F(GroupAbortTest, CreateDiscardsAnEarlierStoresGenerations) {
  const Shape shape{8, 8};
  DurableOptions options;
  options.group_commit = true;
  {
    auto earlier = DurableRps<int64_t>::Create(
        UniformCube(shape, 0, 9, 50), CellIndex{3, 3}, tmp_.path(), options);
    ASSERT_TRUE(earlier.ok()) << earlier.status().ToString();
    ASSERT_TRUE(earlier.value().Checkpoint().ok());
    ASSERT_TRUE(earlier.value().Checkpoint().ok());
    ASSERT_EQ(earlier.value().generation(), 3);
    for (int64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(earlier.value().Add(CellIndex{i, i}, 1000).ok());
    }
  }

  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 51);
  auto created = DurableRps<int64_t>::Create(oracle, CellIndex{3, 3},
                                             tmp_.path(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  {
    auto durable = std::move(created).value();
    Rng rng(52);
    for (int i = 0; i < 12; ++i) {
      const CellIndex cell{rng.UniformInt(0, 7), rng.UniformInt(0, 7)};
      const int64_t delta = rng.UniformInt(1, 9);
      oracle.at(cell) += delta;
      ASSERT_TRUE(durable.Add(cell, delta).ok());
    }
    durable.set_checkpoint_write_hook(
        [] { Arm("io.snapshot.crash", fail::TriggerPolicy::Once()); });
    EXPECT_FALSE(durable.Checkpoint().ok());
    EXPECT_EQ(durable.generation(), 1);
  }

  fault_env::ClearSimulatedCrash();
  WalReplay replay;
  auto reopened = DurableRps<int64_t>::Open(tmp_.path(), &replay);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replay.records.size(), 12u);
  CellIndex cell = CellIndex::Filled(2, 0);
  do {
    ASSERT_EQ(reopened.value().RangeSum(Box::Cell(cell)), oracle.at(cell))
        << cell.ToString();
  } while (NextIndex(shape, cell));
}

// The same hazard on the durable serving engine. Its image is framed
// as WAL records, so the image write dies at io.wal.crash.
TEST_F(GroupAbortTest,
       DurableEngineFoldForwardRecoversAckedRecordsAfterCheckpointCrash) {
  constexpr int64_t kSide = 8;
  const Schema schema("MEASURE", {Dimension::Integer("d0", 0, kSide),
                                  Dimension::Integer("d1", 0, kSide)});
  const Shape shape{kSide, kSide};
  NdArray<int64_t> oracle(shape, 0);
  const auto insert = [&](DurableOlapEngine& engine, Rng& rng) {
    const CellIndex cell{rng.UniformInt(0, 7), rng.UniformInt(0, 7)};
    const int64_t measure = rng.UniformInt(1, 9);
    oracle.at(cell) += measure;
    OlapRecord record;
    record.values = {cell[0], cell[1]};
    record.measure = static_cast<double>(measure);
    return engine.Insert(record);
  };
  const auto sum = [](const DurableOlapEngine& engine, const Box& range) {
    RangeQuery query;
    query.WhereIntBetween("d0", range.lo()[0], range.hi()[0]);
    query.WhereIntBetween("d1", range.lo()[1], range.hi()[1]);
    return static_cast<int64_t>(engine.Sum(query).value());
  };
  DurableOptions options;
  options.group_commit = true;
  {
    auto created = DurableOlapEngine::Create(
        schema, EngineMethod::kRelativePrefixSum, /*shards=*/2, tmp_.path(),
        options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    Rng rng(8);
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(insert(*engine, rng).ok());
    // After rotation (appends land in wal-2) and before the image
    // write: push five more acknowledged records, then kill the write.
    engine->set_checkpoint_write_hook([&] {
      Rng hook_rng(9);
      for (int i = 0; i < 5; ++i) ASSERT_TRUE(insert(*engine, hook_rng).ok());
      Arm("io.wal.crash", fail::TriggerPolicy::Once());
    });
    EXPECT_FALSE(engine->Checkpoint().ok());
    EXPECT_TRUE(fault_env::SimulatedCrashActive());
    EXPECT_EQ(engine->generation(), 1);  // commit never happened
  }

  fault_env::ClearSimulatedCrash();
  int64_t replayed = 0;
  auto reopened = DurableOlapEngine::Open(
      schema, EngineMethod::kRelativePrefixSum, /*shards=*/2, tmp_.path(),
      options, &ThreadPool::Global(), &replayed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // All 25 acknowledged records were folded in: 20 from wal-1 plus
  // the 5 orphans from the rotated wal-2.
  EXPECT_EQ(replayed, 25);
  // Fold-forward checkpoints the merged state past every rotated log.
  EXPECT_EQ(reopened.value()->generation(), 3);
  UniformQueryGen gen(shape, 43);
  for (int trial = 0; trial < 30; ++trial) {
    const Box range = gen.Next();
    ASSERT_EQ(sum(*reopened.value(), range), oracle.SumBox(range));
  }
  ASSERT_EQ(sum(*reopened.value(), Box::All(shape)),
            oracle.SumBox(Box::All(shape)));
}

}  // namespace
}  // namespace rps
