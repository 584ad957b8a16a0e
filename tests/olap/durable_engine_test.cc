// DurableOlapEngine unit tests, run in BOTH durability modes
// (per-record and group commit): accepted records must survive a
// handle drop with no checkpoint, checkpoints must advance the
// generation and empty the replay, bulk Load must be durable through
// its implicit checkpoint, the health payload must expose the durable
// state beside the inner engine's, and Open must refuse a schema of
// another geometry.
//
// Runs under the tsan preset (LABELS concurrency): the store's commit
// thread and the checkpoint's version read-back.

#include "olap/durable_engine.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "olap/group_by.h"
#include "olap/window.h"
#include "testing/temp_dir.h"
#include "util/random.h"

namespace rps {
namespace {

constexpr int64_t kSide = 8;

Schema TestSchema() {
  return Schema("MEASURE", {Dimension::Integer("d0", 0, kSide),
                            Dimension::Integer("d1", 0, kSide)});
}

OlapRecord Record(int64_t d0, int64_t d1, double measure) {
  OlapRecord record;
  record.values = {d0, d1};
  record.measure = measure;
  return record;
}

RangeQuery WholeCube() {
  RangeQuery query;
  query.WhereIntBetween("d0", 0, kSide - 1);
  query.WhereIntBetween("d1", 0, kSide - 1);
  return query;
}

// Parameter: group_commit on/off. Every behavior below must hold in
// both modes; only the barrier batching differs.
class DurableEngineTest : public ::testing::TestWithParam<bool> {
 protected:
  DurableOptions Options() const {
    DurableOptions options;
    options.group_commit = GetParam();
    return options;
  }

  Result<std::unique_ptr<DurableOlapEngine>> Create() {
    return DurableOlapEngine::Create(TestSchema(),
                                     EngineMethod::kRelativePrefixSum,
                                     /*shards=*/0, tmp_.path(), Options());
  }

  Result<std::unique_ptr<DurableOlapEngine>> Open(int64_t* replayed) {
    return DurableOlapEngine::Open(TestSchema(),
                                   EngineMethod::kRelativePrefixSum,
                                   /*shards=*/0, tmp_.path(), Options(),
                                   &ThreadPool::Global(), replayed);
  }

  testing::ScopedTempDir tmp_{"rps_durable_engine"};
};

TEST_P(DurableEngineTest, InsertsSurviveReopenWithoutCheckpoint) {
  double expected_sum = 0;
  {
    auto created = Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    EXPECT_EQ(engine->group_commit(), GetParam());
    EXPECT_EQ(engine->generation(), 1);
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
      const double measure = static_cast<double>(rng.UniformInt(1, 9));
      ASSERT_TRUE(engine->Insert(Record(rng.UniformInt(0, kSide - 1),
                                        rng.UniformInt(0, kSide - 1),
                                        measure)).ok());
      expected_sum += measure;
    }
    EXPECT_EQ(engine->wal_records(), 50);
  }  // dropped with a populated log: recovery is pure replay

  int64_t replayed = 0;
  auto reopened = Open(&replayed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replayed, 50);
  const Result<double> sum = reopened.value()->Sum(WholeCube());
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value(), expected_sum);
  const Result<int64_t> count = reopened.value()->Count(WholeCube());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 50);
  // The composed operators run on the recovered engine through inner().
  const ShardedOlapEngine& inner = reopened.value()->inner();
  const Result<std::vector<GroupRow>> rows = GroupBy(inner, WholeCube(), "d0");
  ASSERT_TRUE(rows.ok());
  int64_t rows_count = 0;
  for (const GroupRow& row : rows.value()) rows_count += row.count;
  EXPECT_EQ(rows_count, 50);
  const Result<std::vector<double>> cumulative =
      CumulativeSeries(inner, WholeCube(), "d1");
  ASSERT_TRUE(cumulative.ok());
  EXPECT_DOUBLE_EQ(cumulative.value().back(), expected_sum);
}

TEST_P(DurableEngineTest, CheckpointAdvancesGenerationAndEmptiesReplay) {
  {
    auto created = Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    ASSERT_TRUE(engine->Insert(Record(1, 2, 4.0)).ok());
    ASSERT_TRUE(engine->Insert(Record(3, 4, 6.0)).ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    EXPECT_EQ(engine->generation(), 2);
    EXPECT_EQ(engine->wal_generation(), 2);
    EXPECT_FALSE(engine->checkpoint_in_flight());
    EXPECT_EQ(engine->wal_records(), 0);
    // Post-checkpoint inserts land in the new generation's log.
    ASSERT_TRUE(engine->Insert(Record(5, 6, 8.0)).ok());
    EXPECT_EQ(engine->wal_records(), 1);
  }

  int64_t replayed = 0;
  auto reopened = Open(&replayed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replayed, 1);  // only the post-checkpoint insert replays
  EXPECT_EQ(reopened.value()->generation(), 2);
  const Result<double> sum = reopened.value()->Sum(WholeCube());
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value(), 18.0);
}

TEST_P(DurableEngineTest, BulkLoadIsDurableThroughItsCheckpoint) {
  {
    auto created = Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    // Pre-load writes are replaced by the load, not merged.
    ASSERT_TRUE(engine->Insert(Record(0, 0, 100.0)).ok());
    std::vector<OlapRecord> records;
    for (int64_t i = 0; i < kSide; ++i) {
      records.push_back(Record(i, i, static_cast<double>(i + 1)));
    }
    const IngestReport report = engine->Load(records);
    EXPECT_EQ(report.accepted, kSide);
    EXPECT_EQ(report.rejected, 0);
    EXPECT_GT(engine->generation(), 1);  // Load checkpointed
  }

  int64_t replayed = 0;
  auto reopened = Open(&replayed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replayed, 0);  // everything lives in the base file
  const Result<double> sum = reopened.value()->Sum(WholeCube());
  ASSERT_TRUE(sum.ok());
  // 1 + 2 + ... + kSide, the pre-load record gone.
  EXPECT_DOUBLE_EQ(sum.value(), static_cast<double>(kSide * (kSide + 1) / 2));
  const Result<int64_t> count = reopened.value()->Count(WholeCube());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), kSide);
}

TEST_P(DurableEngineTest, InsertBatchIsDurableAsOneCall) {
  {
    auto created = Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    std::vector<OlapRecord> batch;
    for (int i = 0; i < 20; ++i) {
      batch.push_back(Record(i % kSide, (i * 3) % kSide, 2.0));
    }
    ASSERT_TRUE(engine->InsertBatch(batch).ok());
    EXPECT_EQ(engine->wal_records(), 20);
  }
  int64_t replayed = 0;
  auto reopened = Open(&replayed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replayed, 20);
  const Result<double> sum = reopened.value()->Sum(WholeCube());
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value(), 40.0);
}

TEST_P(DurableEngineTest, HealthJsonNestsDurableAndEngineState) {
  auto created = Create();
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  ASSERT_TRUE(engine->Insert(Record(2, 2, 1.0)).ok());
  const std::string health = engine->HealthJson();
  EXPECT_NE(health.find("\"durable\":"), std::string::npos);
  EXPECT_NE(health.find("\"engine\":"), std::string::npos);
  EXPECT_NE(health.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(health.find("\"wal_generation\":1"), std::string::npos);
  EXPECT_NE(health.find("\"checkpoint_in_flight\":false"), std::string::npos);
  EXPECT_NE(health.find("\"wal_records\":1"), std::string::npos);
  const std::string mode = GetParam() ? "\"mode\":\"group_commit\""
                                      : "\"mode\":\"per_record\"";
  EXPECT_NE(health.find(mode), std::string::npos);
}

TEST_P(DurableEngineTest, OpenValidatesRecordGeometry) {
  {
    auto created = Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(created.value()->Insert(Record(1, 1, 1.0)).ok());
    // Checkpoint so the base file holds records: a committed base
    // that fails record parsing is reported as corruption, not
    // silently dropped like a torn log tail.
    ASSERT_TRUE(created.value()->Checkpoint().ok());
  }
  // A 3-dimensional schema cannot replay a 2-dimensional directory.
  Schema wrong("MEASURE", {Dimension::Integer("d0", 0, kSide),
                           Dimension::Integer("d1", 0, kSide),
                           Dimension::Integer("d2", 0, kSide)});
  auto reopened = DurableOlapEngine::Open(std::move(wrong),
                                          EngineMethod::kRelativePrefixSum,
                                          /*shards=*/0, tmp_.path(),
                                          Options());
  EXPECT_FALSE(reopened.ok());
}

// The manifest records the schema's geometry. A directory written
// under an 8x8 integer schema refuses a schema with other extents, an
// other origin or binned values -- each would reinterpret every cell --
// and reopens under the same schema at any shard count and with any
// method, since the image holds cells.
TEST_P(DurableEngineTest, OpenChecksSchemaGeometry) {
  {
    auto created = Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
      if (i == 25) {
        ASSERT_TRUE(engine->Checkpoint().ok());  // image + log
      }
      ASSERT_TRUE(engine->Insert(Record(rng.UniformInt(0, kSide - 1),
                                        rng.UniformInt(0, kSide - 1),
                                        static_cast<double>(
                                            rng.UniformInt(1, 9)))).ok());
    }
  }
  const Dimension d1 = Dimension::Integer("d1", 0, kSide);
  const Schema mismatched[] = {
      Schema("MEASURE", {Dimension::Integer("d0", 0, 16),
                         Dimension::Integer("d1", 0, 16)}),
      Schema("MEASURE", {Dimension::Integer("d0", 100, kSide), d1}),
      Schema("MEASURE", {Dimension::Binned("d0", 0.0, 8.0, kSide), d1}),
  };
  for (const Schema& schema : mismatched) {
    auto reopened = DurableOlapEngine::Open(
        schema, EngineMethod::kRelativePrefixSum, /*shards=*/0, tmp_.path(),
        Options());
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument)
        << reopened.status().ToString();
  }

  // Every box's SUM and COUNT, as answered after a reopen.
  const auto answers = [&](EngineMethod method, int shards) {
    std::vector<double> out;
    auto reopened =
        DurableOlapEngine::Open(TestSchema(), method, shards, tmp_.path(),
                                Options());
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    if (!reopened.ok()) return out;
    for (int64_t lo = 0; lo < kSide; lo += 3) {
      for (int64_t hi = lo; hi < kSide; hi += 2) {
        RangeQuery query;
        query.WhereIntBetween("d0", lo, hi);
        query.WhereIntBetween("d1", kSide - 1 - hi, kSide - 1 - lo);
        out.push_back(reopened.value()->Sum(query).value());
        out.push_back(static_cast<double>(
            reopened.value()->Count(query).value()));
      }
    }
    return out;
  };
  const std::vector<double> expected =
      answers(EngineMethod::kRelativePrefixSum, 0);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(answers(EngineMethod::kFenwick, 3), expected);
  EXPECT_EQ(answers(EngineMethod::kPrefixSum, 1), expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, DurableEngineTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "GroupCommit" : "PerRecord";
                         });

}  // namespace
}  // namespace rps
