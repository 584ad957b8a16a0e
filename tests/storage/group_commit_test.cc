// Group-commit WAL under concurrency: many writers funneling through
// the commit thread must each see their record durable before Append
// returns, with exactly-once replay; rotation must hand the commit
// thread a fresh log without losing records; and the pipelined
// checkpoint built on top must not block concurrent Adds while the
// base write is in flight (the zero-stall pin for this subsystem).
//
// Runs under the tsan preset (LABELS concurrency).

#include "storage/group_commit.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "olap/durable_engine.h"
#include "storage/durable_rps.h"
#include "storage/wal.h"
#include "testing/temp_dir.h"
#include "util/mutex.h"
#include "util/random.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

constexpr int kDims = 2;

Result<WriteAheadLog> OpenLog(const std::string& path) {
  return WriteAheadLog::OpenForAppend(path, kDims, sizeof(int64_t));
}

class GroupCommitTest : public ::testing::Test {
 protected:
  testing::ScopedTempDir tmp_{"rps_group_commit"};
};

TEST_F(GroupCommitTest, SingleWriterRoundtrip) {
  const std::string path = tmp_.file("wal.log");
  auto opened = OpenLog(path);
  ASSERT_TRUE(opened.ok());
  GroupCommitWal wal(std::move(opened).value(), GroupCommitOptions{});
  for (int64_t i = 0; i < 10; ++i) {
    const CellIndex cell{i, i * 2};
    ASSERT_TRUE(wal.Append(cell, &i).ok());
  }
  EXPECT_EQ(wal.appended(), 10);
  EXPECT_EQ(wal.last_durable_seq(), 10u);
  wal.Shutdown();

  auto replay = WriteAheadLog::Replay(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().tail_truncated);
  ASSERT_EQ(replay.value().records.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(replay.value().records[static_cast<size_t>(i)].cell[0], i);
  }
}

TEST_F(GroupCommitTest, ManyWritersEveryRecordDurableExactlyOnce) {
  constexpr int kWriters = 8;
  constexpr int64_t kPerWriter = 200;
  const std::string path = tmp_.file("wal.log");
  auto opened = OpenLog(path);
  ASSERT_TRUE(opened.ok());
  GroupCommitWal wal(std::move(opened).value(), GroupCommitOptions{});

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&wal, w] {
      for (int64_t i = 0; i < kPerWriter; ++i) {
        const int64_t payload = static_cast<int64_t>(w) * kPerWriter + i;
        const CellIndex cell{static_cast<int64_t>(w), i};
        ASSERT_TRUE(wal.Append(cell, &payload).ok());
        // Durable-before-return: the global durable watermark must
        // already cover this writer's record.
        ASSERT_GE(wal.last_durable_seq(), 1u);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(wal.appended(), kWriters * kPerWriter);
  EXPECT_EQ(wal.last_durable_seq(),
            static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(wal.last_assigned_seq(), wal.last_durable_seq());
  wal.Shutdown();

  auto replay = WriteAheadLog::Replay(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(),
            static_cast<size_t>(kWriters * kPerWriter));
  // Exactly-once: every payload value appears once.
  std::vector<int> seen(kWriters * kPerWriter, 0);
  for (const WalRecord& record : replay.value().records) {
    int64_t payload = 0;
    ASSERT_EQ(record.payload.size(), sizeof(payload));
    std::memcpy(&payload, record.payload.data(), sizeof(payload));
    ASSERT_GE(payload, 0);
    ASSERT_LT(payload, kWriters * kPerWriter);
    seen[static_cast<size_t>(payload)] += 1;
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST_F(GroupCommitTest, AppendManySharesArrivalOrder) {
  const std::string path = tmp_.file("wal.log");
  auto opened = OpenLog(path);
  ASSERT_TRUE(opened.ok());
  GroupCommitWal wal(std::move(opened).value(), GroupCommitOptions{});

  std::vector<CellIndex> cells;
  std::vector<int64_t> payloads;
  for (int64_t i = 0; i < 32; ++i) {
    cells.push_back(CellIndex{i, 0});
    payloads.push_back(i * 7);
  }
  std::vector<WalAppend> records;
  for (size_t i = 0; i < cells.size(); ++i) {
    records.push_back(WalAppend{&cells[i], &payloads[i]});
  }
  ASSERT_TRUE(wal.AppendMany(records.data(),
                             static_cast<int64_t>(records.size())).ok());
  wal.Shutdown();
  auto replay = WriteAheadLog::Replay(path, kDims, sizeof(int64_t));
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 32u);
  for (int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(replay.value().records[static_cast<size_t>(i)].cell[0], i);
  }
}

TEST_F(GroupCommitTest, RotateSwitchesToFreshLog) {
  const std::string first = tmp_.file("wal-1.log");
  const std::string second = tmp_.file("wal-2.log");
  auto opened = OpenLog(first);
  ASSERT_TRUE(opened.ok());
  GroupCommitWal wal(std::move(opened).value(), GroupCommitOptions{});
  const int64_t payload = 1;
  const CellIndex cell{1, 1};
  ASSERT_TRUE(wal.Append(cell, &payload).ok());
  ASSERT_TRUE(wal.Append(cell, &payload).ok());

  auto next = OpenLog(second);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(wal.Rotate(std::move(next).value()).ok());
  ASSERT_TRUE(wal.Append(cell, &payload).ok());
  wal.Shutdown();

  auto first_replay = WriteAheadLog::Replay(first, kDims, sizeof(int64_t));
  auto second_replay = WriteAheadLog::Replay(second, kDims, sizeof(int64_t));
  ASSERT_TRUE(first_replay.ok());
  ASSERT_TRUE(second_replay.ok());
  EXPECT_EQ(first_replay.value().records.size(), 2u);
  EXPECT_EQ(second_replay.value().records.size(), 1u);
}

// DurableRps in group-commit mode: concurrent Adds from many threads,
// interleaved pipelined checkpoints, then reopen-and-verify against a
// per-thread tally (deltas commute, so the oracle is exact).
TEST_F(GroupCommitTest, DurableRpsGroupModeConcurrentAddsAndCheckpoints) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 120;
  const Shape shape{12, 12};
  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 17);

  DurableOptions options;
  options.group_commit = true;
  {
    auto created = DurableRps<int64_t>::Create(oracle, CellIndex{4, 4},
                                               tmp_.path(), options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto durable = std::move(created).value();
    ASSERT_TRUE(durable.group_commit());

    Mutex oracle_mu{"test.oracle"};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        Rng rng(100 + static_cast<uint64_t>(w));
        for (int i = 0; i < kPerWriter; ++i) {
          const CellIndex cell{rng.UniformInt(0, 11), rng.UniformInt(0, 11)};
          const int64_t delta = rng.UniformInt(-5, 5);
          ASSERT_TRUE(durable.Add(cell, delta).ok());
          MutexLock lock(&oracle_mu);
          oracle.at(cell) += delta;
        }
      });
    }
    // Checkpoints race the writers: each one rotates the log under
    // the apply gate and persists in the background path.
    for (int c = 0; c < 3; ++c) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ASSERT_TRUE(durable.Checkpoint().ok());
    }
    for (std::thread& writer : writers) writer.join();
    ASSERT_TRUE(durable.Checkpoint().ok());
    EXPECT_EQ(durable.wal_records(), 0);
  }

  WalReplay replay;
  auto reopened = DurableRps<int64_t>::Open(tmp_.path(), &replay,
                                            DurableOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(replay.records.empty());  // final checkpoint drained the log
  UniformQueryGen gen(shape, 23);
  for (int trial = 0; trial < 40; ++trial) {
    const Box range = gen.Next();
    ASSERT_EQ(reopened.value().RangeSum(range), oracle.SumBox(range));
  }
}

// The non-blocking pin: while a pipelined checkpoint is parked in its
// background write phase, Add must complete -- writers were released
// at rotation. A regression to the stop-the-world checkpoint deadlocks
// here (the hook never returns until the Add finishes).
TEST_F(GroupCommitTest, CheckpointDoesNotBlockConcurrentAdd) {
  const Shape shape{8, 8};
  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 29);
  DurableOptions options;
  options.group_commit = true;
  auto created = DurableRps<int64_t>::Create(oracle, CellIndex{4, 4},
                                             tmp_.path(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto durable = std::move(created).value();
  ASSERT_TRUE(durable.Add(CellIndex{1, 1}, 3).ok());
  oracle.at(CellIndex{1, 1}) += 3;

  // The hook runs after rotation, before the base write: do a full
  // durable Add from inside the parked checkpoint. It lands in the
  // rotated log and must finish while checkpoint_in_flight() is true.
  std::atomic<bool> add_completed{false};
  durable.set_checkpoint_write_hook([&] {
    EXPECT_TRUE(durable.checkpoint_in_flight());
    std::thread writer([&] {
      ASSERT_TRUE(durable.Add(CellIndex{2, 2}, 5).ok());
      add_completed.store(true);
    });
    writer.join();  // completes only because writers are not blocked
    EXPECT_TRUE(add_completed.load());
  });
  oracle.at(CellIndex{2, 2}) += 5;
  ASSERT_TRUE(durable.Checkpoint().ok());
  EXPECT_TRUE(add_completed.load());
  EXPECT_FALSE(durable.checkpoint_in_flight());
  // The checkpointed structure has the pre-rotation state; the add
  // that ran mid-checkpoint lives in the rotated log. Both must
  // survive a reopen.
  durable.set_checkpoint_write_hook(nullptr);
  EXPECT_EQ(durable.RangeSum(Box::All(shape)), oracle.SumBox(Box::All(shape)));
  EXPECT_EQ(durable.wal_records(), 1);

  // Health payload reports the pipelined-checkpoint state fields.
  const std::string health = durable.HealthJson();
  EXPECT_NE(health.find("\"wal_generation\":"), std::string::npos);
  EXPECT_NE(health.find("\"checkpoint_in_flight\":false"), std::string::npos);
  EXPECT_NE(health.find("\"mode\":\"group_commit\""), std::string::npos);
  EXPECT_NE(health.find("\"commit_queue_depth\":"), std::string::npos);
}

// The frozen image shares the live structure's box-row chunks. Adds
// that land while the image is written, in the box row a pre-freeze
// Add already wrote, must stay out of the image: they live in the
// rotated log, and replaying it onto an image that had absorbed them
// would count them twice.
TEST_F(GroupCommitTest, CheckpointImageExcludesAddsInItsBoxRows) {
  const Shape shape{8, 8};
  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 31);
  {
    DurableOptions options;
    options.group_commit = true;
    auto created = DurableRps<int64_t>::Create(oracle, CellIndex{4, 4},
                                               tmp_.path(), options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto durable = std::move(created).value();
    // Box row 1 (cube rows 4..7), written before the freeze.
    ASSERT_TRUE(durable.Add(CellIndex{5, 2}, 3).ok());
    oracle.at(CellIndex{5, 2}) += 3;

    const std::vector<std::pair<CellIndex, int64_t>> during = {
        {CellIndex{5, 2}, 4}, {CellIndex{6, 6}, -2}, {CellIndex{4, 0}, 9}};
    durable.set_checkpoint_write_hook([&] {
      std::thread writer([&] {
        for (const auto& [cell, delta] : during) {
          ASSERT_TRUE(durable.Add(cell, delta).ok());
        }
      });
      writer.join();
    });
    for (const auto& [cell, delta] : during) oracle.at(cell) += delta;
    ASSERT_TRUE(durable.Checkpoint().ok());
    durable.set_checkpoint_write_hook(nullptr);
    EXPECT_EQ(durable.wal_records(), static_cast<int64_t>(during.size()));
  }

  WalReplay replay;
  auto reopened = DurableRps<int64_t>::Open(tmp_.path(), &replay,
                                            DurableOptions{});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replay.records.size(), 3u);
  CellIndex cell = CellIndex::Filled(2, 0);
  do {
    ASSERT_EQ(reopened.value().ValueAt(cell), oracle.at(cell))
        << cell.ToString();
  } while (NextIndex(shape, cell));
  UniformQueryGen gen(shape, 37);
  for (int trial = 0; trial < 40; ++trial) {
    const Box range = gen.Next();
    ASSERT_EQ(reopened.value().RangeSum(range), oracle.SumBox(range));
  }
}

// The same pin on the durable serving engine, whose checkpoint
// freezes a published version (S shard references) instead of cloning
// a structure, and reads its cells back after writers are released.
TEST_F(GroupCommitTest, DurableEngineCheckpointDoesNotBlockConcurrentAdd) {
  constexpr int64_t kSide = 8;
  const Schema schema("MEASURE", {Dimension::Integer("d0", 0, kSide),
                                  Dimension::Integer("d1", 0, kSide)});
  const auto record = [](int64_t d0, int64_t d1, double measure) {
    OlapRecord out;
    out.values = {d0, d1};
    out.measure = measure;
    return out;
  };
  RangeQuery all;
  all.WhereIntBetween("d0", 0, kSide - 1);
  all.WhereIntBetween("d1", 0, kSide - 1);
  DurableOptions options;
  options.group_commit = true;
  auto created = DurableOlapEngine::Create(
      schema, EngineMethod::kRelativePrefixSum, /*shards=*/2, tmp_.path(),
      options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  ASSERT_TRUE(engine->Insert(record(1, 1, 3)).ok());

  // The hook runs after rotation, before the image write: do a full
  // durable Insert from inside the parked checkpoint. It lands in the
  // rotated log and must finish while checkpoint_in_flight() is true.
  std::atomic<bool> add_completed{false};
  engine->set_checkpoint_write_hook([&] {
    EXPECT_TRUE(engine->checkpoint_in_flight());
    std::thread writer([&] {
      ASSERT_TRUE(engine->Insert(record(2, 2, 5)).ok());
      add_completed.store(true);
    });
    writer.join();  // completes only because writers are not blocked
    EXPECT_TRUE(add_completed.load());
  });
  ASSERT_TRUE(engine->Checkpoint().ok());
  EXPECT_TRUE(add_completed.load());
  EXPECT_FALSE(engine->checkpoint_in_flight());
  // The image has the pre-rotation state; the insert that ran
  // mid-checkpoint lives in the rotated log.
  engine->set_checkpoint_write_hook(nullptr);
  EXPECT_EQ(engine->Sum(all).value(), 8.0);
  EXPECT_EQ(engine->wal_records(), 1);

  // Health payload reports the pipelined-checkpoint state fields.
  const std::string health = engine->HealthJson();
  EXPECT_NE(health.find("\"wal_generation\":"), std::string::npos);
  EXPECT_NE(health.find("\"checkpoint_in_flight\":false"), std::string::npos);
  EXPECT_NE(health.find("\"mode\":\"group_commit\""), std::string::npos);
  EXPECT_NE(health.find("\"commit_queue_depth\":"), std::string::npos);
}

// DurableOlapEngine in group-commit mode: the multi-writer durable
// ingest stress. Every Insert is durable before it returns; after a
// crash (handle drop, no checkpoint) recovery must replay them all.
TEST_F(GroupCommitTest, DurableEngineGroupModeMultiWriterStress) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 100;
  constexpr int64_t kSide = 16;
  Schema schema("MEASURE", {Dimension::Integer("d0", 0, kSide),
                            Dimension::Integer("d1", 0, kSide)});
  DurableOptions options;
  options.group_commit = true;

  std::atomic<int64_t> expected_sum{0};
  {
    auto created = DurableOlapEngine::Create(schema,
                                             EngineMethod::kRelativePrefixSum,
                                             /*shards=*/0, tmp_.path(),
                                             options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    ASSERT_TRUE(engine->group_commit());

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        Rng rng(7 + static_cast<uint64_t>(w));
        for (int i = 0; i < kPerWriter; ++i) {
          OlapRecord record;
          record.values.emplace_back(rng.UniformInt(0, kSide - 1));
          record.values.emplace_back(rng.UniformInt(0, kSide - 1));
          const int64_t measure = rng.UniformInt(1, 9);
          record.measure = static_cast<double>(measure);
          ASSERT_TRUE(engine->Insert(record).ok());
          expected_sum.fetch_add(measure);
        }
      });
    }
    // A mid-stress pipelined checkpoint must not stall the writers.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(engine->Checkpoint().ok());
    for (std::thread& writer : writers) writer.join();
    // "Crash": handle dropped without a final checkpoint.
  }

  int64_t replayed = 0;
  auto reopened = DurableOlapEngine::Open(schema,
                                          EngineMethod::kRelativePrefixSum,
                                          /*shards=*/0, tmp_.path(), options,
                                          &ThreadPool::Global(), &replayed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RangeQuery all;
  all.WhereIntBetween("d0", 0, kSide - 1);
  all.WhereIntBetween("d1", 0, kSide - 1);
  const Result<double> total = reopened.value()->Sum(all);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(std::llround(total.value()), expected_sum.load());
  const Result<int64_t> count = reopened.value()->Count(all);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), kWriters * kPerWriter);
}

}  // namespace
}  // namespace rps
