#include "workload/trace.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/naive_method.h"
#include "core/relative_prefix_sum.h"
#include "testing/temp_dir.h"
#include "workload/data_gen.h"

namespace rps {
namespace {

TEST(TraceTest, RecordedTraceHasRequestedMix) {
  const Trace trace = RecordMixedTrace(Shape{12, 12}, 30, 20, 1);
  EXPECT_EQ(trace.shape, (Shape{12, 12}));
  int64_t queries = 0;
  int64_t updates = 0;
  for (const TraceOp& op : trace.ops) {
    if (op.kind == TraceOp::Kind::kQuery) {
      ++queries;
      EXPECT_TRUE(op.range.Within(trace.shape));
    } else {
      ++updates;
      EXPECT_TRUE(trace.shape.Contains(op.cell));
      EXPECT_NE(op.delta, 0);
    }
  }
  EXPECT_EQ(queries, 30);
  EXPECT_EQ(updates, 20);
}

TEST(TraceTest, RecordingIsDeterministic) {
  const Trace a = RecordMixedTrace(Shape{9, 9}, 15, 15, 7);
  const Trace b = RecordMixedTrace(Shape{9, 9}, 15, 15, 7);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << i;
    if (a.ops[i].kind == TraceOp::Kind::kQuery) {
      EXPECT_EQ(a.ops[i].range, b.ops[i].range) << i;
    } else {
      EXPECT_EQ(a.ops[i].cell, b.ops[i].cell) << i;
      EXPECT_EQ(a.ops[i].delta, b.ops[i].delta) << i;
    }
  }
}

TEST(TraceTest, SaveLoadRoundTrip) {
  const testing::ScopedTempDir tmp("rps_trace");
  const std::string path = tmp.file("roundtrip.bin");
  const Trace original = RecordMixedTrace(Shape{8, 6, 4}, 25, 25, 3);
  ASSERT_TRUE(SaveTrace(original, path).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().shape, original.shape);
  ASSERT_EQ(loaded.value().ops.size(), original.ops.size());
  // Replay both against identical structures: identical outcomes.
  const NdArray<int64_t> cube = UniformCube(Shape{8, 6, 4}, 0, 9, 9);
  NaiveMethod<int64_t> from_original(cube);
  NaiveMethod<int64_t> from_loaded(cube);
  const auto r1 = ReplayTrace(from_original, original);
  const auto r2 = ReplayTrace(from_loaded, loaded.value());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().query_checksum, r2.value().query_checksum);
  EXPECT_EQ(r1.value().update_cells, r2.value().update_cells);
}

TEST(TraceTest, ReplayAcrossMethodsGivesIdenticalChecksums) {
  const Shape shape{14, 14};
  const Trace trace = RecordMixedTrace(shape, 40, 40, 5);
  const NdArray<int64_t> cube = UniformCube(shape, 0, 9, 6);
  NaiveMethod<int64_t> naive(cube);
  RelativePrefixSum<int64_t> rps(cube);
  const auto naive_report = ReplayTrace(naive, trace);
  const auto rps_report = ReplayTrace(rps, trace);
  ASSERT_TRUE(naive_report.ok());
  ASSERT_TRUE(rps_report.ok());
  EXPECT_EQ(naive_report.value().query_checksum,
            rps_report.value().query_checksum);
  EXPECT_EQ(naive_report.value().queries, 40);
  EXPECT_EQ(rps_report.value().updates, 40);
  EXPECT_GT(rps_report.value().update_cells,
            naive_report.value().update_cells);
}

TEST(TraceTest, ShapeMismatchRejected) {
  const Trace trace = RecordMixedTrace(Shape{8, 8}, 5, 5, 1);
  NaiveMethod<int64_t> wrong(NdArray<int64_t>(Shape{9, 9}, 0));
  EXPECT_EQ(ReplayTrace(wrong, trace).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TraceTest, CorruptFileRejected) {
  const testing::ScopedTempDir tmp("rps_trace");
  const std::string path = tmp.file("corrupt.bin");
  const Trace trace = RecordMixedTrace(Shape{8, 8}, 10, 10, 2);
  ASSERT_TRUE(SaveTrace(trace, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);
  std::fputc(0x7E, f);
  std::fclose(f);
  EXPECT_FALSE(LoadTrace(path).ok());
}

TEST(TraceTest, GarbageAndMissingFiles) {
  const testing::ScopedTempDir tmp("rps_trace");
  const std::string path = tmp.file("garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a trace", f);
  std::fclose(f);
  EXPECT_FALSE(LoadTrace(path).ok());
  EXPECT_FALSE(LoadTrace(tmp.file("missing.bin")).ok());
}

}  // namespace
}  // namespace rps
