// Snapshot round-trip, corruption detection, and cross-type checks.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "testing/temp_dir.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  testing::ScopedTempDir tmp_{"rps_snapshot"};
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  const Shape shape{13, 9};
  const NdArray<int64_t> cube = UniformCube(shape, -40, 90, 3);
  RelativePrefixSum<int64_t> original(cube, CellIndex{4, 3});
  original.Add(CellIndex{5, 5}, 17);  // make it diverge from the build

  const std::string path = tmp_.file("roundtrip.bin");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());

  auto loaded = LoadSnapshot<int64_t>(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().shape(), shape);
  EXPECT_EQ(loaded.value().geometry().box_size(), (CellIndex{4, 3}));
  // Exact structural equality.
  EXPECT_EQ(loaded.value().MaterializeRp(), original.MaterializeRp());
  const std::vector<int64_t> loaded_overlay =
      loaded.value().MaterializeOverlay();
  const std::vector<int64_t> original_overlay = original.MaterializeOverlay();
  for (size_t slot = 0; slot < original_overlay.size(); ++slot) {
    ASSERT_EQ(loaded_overlay[slot], original_overlay[slot]);
  }
  // And behavioural equality, including after further updates.
  RelativePrefixSum<int64_t> restored = std::move(loaded).value();
  restored.Add(CellIndex{0, 0}, -3);
  original.Add(CellIndex{0, 0}, -3);
  CellIndex cell = CellIndex::Filled(2, 0);
  do {
    ASSERT_EQ(restored.PrefixSum(cell), original.PrefixSum(cell));
  } while (NextIndex(shape, cell));
}

TEST_F(SnapshotTest, DoubleValuedRoundTrip) {
  const Shape shape{8, 8};
  NdArray<double> cube(shape);
  Rng rng(9);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = rng.UniformDouble() * 100;
  }
  RelativePrefixSum<double> original(cube);
  const std::string path = tmp_.file("double.bin");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto loaded = LoadSnapshot<double>(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().MaterializeRp(), original.MaterializeRp());
}

TEST_F(SnapshotTest, ValueSizeMismatchRejected) {
  const NdArray<int64_t> cube = UniformCube(Shape{6, 6}, 0, 9, 1);
  RelativePrefixSum<int64_t> original(cube);
  const std::string path = tmp_.file("size.bin");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto loaded = LoadSnapshot<int32_t>(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotTest, BitFlipDetectedByChecksum) {
  const NdArray<int64_t> cube = UniformCube(Shape{10, 10}, 0, 50, 2);
  RelativePrefixSum<int64_t> original(cube);
  const std::string path = tmp_.file("flip.bin");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());

  // Flip one byte in the middle of the payload.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  auto loaded = LoadSnapshot<int64_t>(path);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotTest, TruncationDetected) {
  const NdArray<int64_t> cube = UniformCube(Shape{10, 10}, 0, 50, 4);
  RelativePrefixSum<int64_t> original(cube);
  const std::string path = tmp_.file("trunc.bin");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  auto loaded = LoadSnapshot<int64_t>(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotTest, GarbageFileRejected) {
  const std::string path = tmp_.file("garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a snapshot at all, sorry", f);
  std::fclose(f);
  auto loaded = LoadSnapshot<int64_t>(path);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotTest, MissingFileRejected) {
  auto loaded = LoadSnapshot<int64_t>(tmp_.file("no_such_snapshot.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(FromPartsTest, RejectsWrongSizes) {
  auto result = RelativePrefixSum<int64_t>::FromParts(
      Shape{4, 4}, CellIndex{2, 2}, std::vector<int64_t>(3, 0),
      std::vector<int64_t>(12, 0));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rps
