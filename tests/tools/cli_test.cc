// Tests for the rps_tool CLI: argument/shape/cell/range parsing and
// end-to-end subcommand flows over temp files.

#include "tools/cli.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "cube/cube_io.h"
#include "util/epoch.h"

namespace rps::cli {
namespace {

TEST(ParseArgsTest, CommandOptionsPositional) {
  const auto parsed =
      ParseArgs({"build", "--cube", "a.bin", "--out", "b.snap", "extra"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().command, "build");
  EXPECT_EQ(parsed.value().options.at("cube"), "a.bin");
  EXPECT_EQ(parsed.value().options.at("out"), "b.snap");
  ASSERT_EQ(parsed.value().positional.size(), 1u);
  EXPECT_EQ(parsed.value().positional[0], "extra");
}

TEST(ParseArgsTest, DanglingOptionFails) {
  EXPECT_FALSE(ParseArgs({"gen", "--shape"}).ok());
  EXPECT_FALSE(ParseArgs({}).ok());
}

TEST(ParseShapeTest, ValidAndInvalid) {
  EXPECT_EQ(ParseShape("4x5x6").value(), (Shape{4, 5, 6}));
  EXPECT_EQ(ParseShape("9").value(), (Shape{9}));
  EXPECT_FALSE(ParseShape("").ok());
  EXPECT_FALSE(ParseShape("4x").ok());
  EXPECT_FALSE(ParseShape("4xfive").ok());
  EXPECT_FALSE(ParseShape("0x5").ok());
  EXPECT_FALSE(ParseShape("1x1x1x1x1x1x1x1x1x1x1x1x1").ok());  // > kMaxDims
}

TEST(ParseCellTest, ValidAndInvalid) {
  EXPECT_EQ(ParseCell("3,4").value(), (CellIndex{3, 4}));
  EXPECT_EQ(ParseCell("7").value(), (CellIndex{7}));
  EXPECT_FALSE(ParseCell("3,").ok());
  EXPECT_FALSE(ParseCell("a,b").ok());
}

TEST(ParseRangeTest, ValidAndInvalid) {
  EXPECT_EQ(ParseRange("1,2:5,6").value(),
            Box(CellIndex{1, 2}, CellIndex{5, 6}));
  EXPECT_FALSE(ParseRange("1,2").ok());          // no colon
  EXPECT_FALSE(ParseRange("1,2:5").ok());        // dims mismatch
  EXPECT_FALSE(ParseRange("5,5:1,1").ok());      // inverted
}

class CliEndToEndTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("rps_cli_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++)))
               .string();
    std::filesystem::create_directory(dir_);
    cube_ = dir_ + "/cube.bin";
    snap_ = dir_ + "/structure.snap";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static int counter_;
  std::string dir_;
  std::string cube_;
  std::string snap_;
};

int CliEndToEndTest::counter_ = 0;

TEST_F(CliEndToEndTest, GenBuildInfoQueryUpdateVerify) {
  EXPECT_EQ(RunCli({"gen", "--shape", "32x32", "--seed", "5", "--out",
                    cube_}),
            0);
  ASSERT_TRUE(std::filesystem::exists(cube_));

  EXPECT_EQ(RunCli({"build", "--cube", cube_, "--box", "8x8", "--out",
                    snap_}),
            0);
  ASSERT_TRUE(std::filesystem::exists(snap_));

  EXPECT_EQ(RunCli({"info", "--snap", snap_}), 0);
  EXPECT_EQ(RunCli({"query", "--snap", snap_, "--range", "0,0:31,31"}), 0);
  EXPECT_EQ(RunCli({"verify", "--cube", cube_, "--snap", snap_}), 0);

  // Update in place, then verification against the old cube must fail.
  EXPECT_EQ(RunCli({"update", "--snap", snap_, "--cell", "3,4", "--delta",
                    "100"}),
            0);
  EXPECT_EQ(RunCli({"verify", "--cube", cube_, "--snap", snap_}), 1);

  // The snapshot's new total equals cube total + 100.
  auto cube = LoadCube<int64_t>(cube_);
  auto rps = LoadSnapshot<int64_t>(snap_);
  ASSERT_TRUE(cube.ok());
  ASSERT_TRUE(rps.ok());
  EXPECT_EQ(rps.value().RangeSum(Box::All(cube.value().shape())),
            cube.value().SumBox(Box::All(cube.value().shape())) + 100);
}

TEST_F(CliEndToEndTest, AuditAcceptsHealthySnapshotsAndFlagsCorruption) {
  ASSERT_EQ(RunCli({"gen", "--shape", "16x16", "--seed", "9", "--out",
                    cube_}),
            0);
  ASSERT_EQ(RunCli({"build", "--cube", cube_, "--box", "4x4", "--out",
                    snap_}),
            0);
  EXPECT_EQ(RunCli({"audit", "--snap", snap_}), 0);
  // Audits survive legitimate updates...
  ASSERT_EQ(RunCli({"update", "--snap", snap_, "--cell", "5,6", "--delta",
                    "42"}),
            0);
  EXPECT_EQ(RunCli({"audit", "--snap", snap_, "--samples", "100000"}), 0);

  // ...but fail on a snapshot rebuilt with a corrupted overlay value.
  auto rps = LoadSnapshot<int64_t>(snap_);
  ASSERT_TRUE(rps.ok());
  const NdArray<int64_t> rp = rps.value().MaterializeRp();
  std::vector<int64_t> rp_cells;
  for (int64_t i = 0; i < rp.num_cells(); ++i) {
    rp_cells.push_back(rp.at_linear(i));
  }
  std::vector<int64_t> overlay_values = rps.value().MaterializeOverlay();
  overlay_values[overlay_values.size() / 3] += 11;
  auto corrupted = RelativePrefixSum<int64_t>::FromParts(
      rps.value().shape(), rps.value().geometry().box_size(), rp_cells,
      overlay_values);
  ASSERT_TRUE(corrupted.ok());
  const std::string bad_snap = dir_ + "/corrupt.snap";
  ASSERT_TRUE(SaveSnapshot(corrupted.value(), bad_snap).ok());
  EXPECT_EQ(RunCli({"audit", "--snap", bad_snap, "--samples", "100000"}), 1);

  // Bad arguments.
  EXPECT_EQ(RunCli({"audit", "--snap", snap_, "--samples", "0"}), 1);
  EXPECT_EQ(RunCli({"audit", "--snap", dir_ + "/missing.snap"}), 1);
}

TEST_F(CliEndToEndTest, AllDistributionsGenerate) {
  for (const char* dist : {"uniform", "zipf", "clustered", "sparse"}) {
    const std::string path = dir_ + "/" + dist + ".bin";
    EXPECT_EQ(RunCli({"gen", "--shape", "16x16", "--dist", dist, "--out",
                      path}),
              0)
        << dist;
    auto cube = LoadCube<int64_t>(path);
    ASSERT_TRUE(cube.ok()) << dist;
    EXPECT_EQ(cube.value().shape(), (Shape{16, 16}));
  }
}

TEST_F(CliEndToEndTest, ErrorsReturnNonZero) {
  EXPECT_EQ(RunCli({"frobnicate"}), 2);
  EXPECT_EQ(RunCli({"gen", "--shape", "banana", "--out", cube_}), 1);
  EXPECT_EQ(RunCli({"gen", "--shape", "8x8", "--dist", "exotic", "--out",
                    cube_}),
            1);
  EXPECT_EQ(RunCli({"build", "--cube", dir_ + "/missing.bin", "--out",
                    snap_}),
            1);
  EXPECT_EQ(RunCli({"query", "--snap", dir_ + "/missing.snap", "--range",
                    "0,0:1,1"}),
            1);
  // Out-of-bounds range on a real snapshot.
  ASSERT_EQ(RunCli({"gen", "--shape", "8x8", "--out", cube_}), 0);
  ASSERT_EQ(RunCli({"build", "--cube", cube_, "--out", snap_}), 0);
  EXPECT_EQ(RunCli({"query", "--snap", snap_, "--range", "0,0:63,63"}), 1);
  EXPECT_EQ(RunCli({"update", "--snap", snap_, "--cell", "99,0", "--delta",
                    "1"}),
            1);
  // Box dimensionality mismatch.
  EXPECT_EQ(RunCli({"build", "--cube", cube_, "--box", "4x4x4", "--out",
                    snap_}),
            1);
  // Every serve reader pins an epoch slot, and serve's writer and
  // exposition thread pin two more: the smallest --readers that would
  // overflow the slots is refused before any thread starts.
  EXPECT_EQ(RunCli({"serve", "--readers",
                    std::to_string(EpochDomain::kMaxSlots - 1),
                    "--duration-s", "1"}),
            1);
}

TEST_F(CliEndToEndTest, BenchRunsAllAndSingleMethods) {
  ASSERT_EQ(RunCli({"gen", "--shape", "24x24", "--out", cube_}), 0);
  EXPECT_EQ(RunCli({"bench", "--cube", cube_, "--queries", "20", "--updates",
                    "20"}),
            0);
  EXPECT_EQ(RunCli({"bench", "--cube", cube_, "--method",
                    "relative_prefix_sum", "--queries", "10", "--updates",
                    "10"}),
            0);
  EXPECT_EQ(RunCli({"bench", "--cube", cube_, "--method", "warp_drive"}), 1);
  EXPECT_EQ(RunCli({"bench", "--cube", dir_ + "/missing.bin"}), 1);
}

TEST_F(CliEndToEndTest, TraceRecordAndReplay) {
  const std::string trace = dir_ + "/ops.trace";
  ASSERT_EQ(RunCli({"gen", "--shape", "20x20", "--out", cube_}), 0);
  EXPECT_EQ(RunCli({"trace-record", "--shape", "20x20", "--queries", "15",
                    "--updates", "15", "--out", trace}),
            0);
  ASSERT_TRUE(std::filesystem::exists(trace));
  EXPECT_EQ(RunCli({"trace-replay", "--cube", cube_, "--trace", trace}), 0);
  EXPECT_EQ(RunCli({"trace-replay", "--cube", cube_, "--trace", trace,
                    "--method", "naive"}),
            0);
  // Shape mismatch between cube and trace.
  const std::string small = dir_ + "/small.bin";
  ASSERT_EQ(RunCli({"gen", "--shape", "8x8", "--out", small}), 0);
  EXPECT_EQ(RunCli({"trace-replay", "--cube", small, "--trace", trace}), 1);
  EXPECT_EQ(RunCli({"trace-replay", "--cube", cube_, "--trace", trace,
                    "--method", "nonsense"}),
            1);
}

TEST_F(CliEndToEndTest, MetricsSubcommandWritesParseableJson) {
  const std::string json_path = dir_ + "/metrics.json";
  EXPECT_EQ(RunCli({"metrics", "--shape", "8x8", "--queries", "4",
                    "--updates", "4", "--format", "json", "--json",
                    json_path}),
            0);
  ASSERT_TRUE(std::filesystem::exists(json_path));

  std::ifstream in(json_path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  // Structural spot-checks; the full format is pinned by the obs
  // golden tests, and CI validates against the schema script.
  EXPECT_EQ(json.rfind("{\"counters\":[", 0), 0u);
  EXPECT_NE(json.find("\"rps_bufferpool_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"rps_wal_fsync_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"rps_workload_query_seconds\""), std::string::npos);

  EXPECT_EQ(RunCli({"metrics", "--format", "nonsense"}), 1);
}

TEST_F(CliEndToEndTest, BenchMetricsJsonFlagWritesFile) {
  const std::string json_path = dir_ + "/bench_metrics.json";
  ASSERT_EQ(RunCli({"gen", "--shape", "16x16", "--out", cube_}), 0);
  EXPECT_EQ(RunCli({"bench", "--cube", cube_, "--method",
                    "relative_prefix_sum", "--queries", "5", "--updates",
                    "5", "--metrics-json", json_path}),
            0);
  ASSERT_TRUE(std::filesystem::exists(json_path));
  EXPECT_GT(std::filesystem::file_size(json_path), 0u);
}

TEST_F(CliEndToEndTest, TortureSubcommandRunsAndReports) {
  // A short but real crash/recover run in a caller-supplied scratch
  // directory (kept across the run, removed by the fixture).
  const std::string scratch = dir_ + "/torture";
  std::filesystem::create_directory(scratch);
  EXPECT_EQ(RunCli({"torture", "--cycles", "25", "--seed", "3", "--shape",
                    "8x8", "--box", "3x3", "--dir", scratch}),
            0);
  // Bad arguments.
  EXPECT_EQ(RunCli({"torture", "--shape", "8x8", "--box", "2x2x2"}), 1);
  EXPECT_EQ(RunCli({"torture", "--cycles", "banana"}), 1);
}

TEST_F(CliEndToEndTest, CubeFileRoundTripsThroughIo) {
  const NdArray<int64_t> cube = [] {
    NdArray<int64_t> c(Shape{5, 7});
    for (int64_t i = 0; i < c.num_cells(); ++i) c.at_linear(i) = i * 3 - 20;
    return c;
  }();
  ASSERT_TRUE(SaveCube(cube, cube_).ok());
  auto loaded = LoadCube<int64_t>(cube_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), cube);
  // Wrong type rejected.
  EXPECT_FALSE(LoadCube<int32_t>(cube_).ok());
}

}  // namespace
}  // namespace rps::cli
