#include "cube/cube_io.h"

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "testing/temp_dir.h"
#include "util/random.h"

namespace rps {
namespace {

class CubeIoTest : public ::testing::Test {
 protected:
  testing::ScopedTempDir tmp_{"rps_cube_io"};
  const std::string path_ = tmp_.file("cube.bin");
};

TEST_F(CubeIoTest, RoundTripInt64) {
  Rng rng(1);
  NdArray<int64_t> cube(Shape{7, 5, 3});
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = rng.UniformInt(-1000, 1000);
  }
  ASSERT_TRUE(SaveCube(cube, path_).ok());
  auto loaded = LoadCube<int64_t>(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), cube);
}

TEST_F(CubeIoTest, RoundTripDouble) {
  Rng rng(2);
  NdArray<double> cube(Shape{9});
  for (int64_t i = 0; i < 9; ++i) cube.at_linear(i) = rng.UniformDouble();
  ASSERT_TRUE(SaveCube(cube, path_).ok());
  auto loaded = LoadCube<double>(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), cube);
}

TEST_F(CubeIoTest, ValueSizeMismatchRejected) {
  ASSERT_TRUE(SaveCube(NdArray<int64_t>(Shape{4}, 1), path_).ok());
  // The format records sizeof(T) only; a different-size type fails.
  EXPECT_FALSE(LoadCube<int32_t>(path_).ok());
  // Same-size reinterpretation is structurally accepted (documented
  // limitation of the size-tagged format).
  EXPECT_TRUE(LoadCube<double>(path_).ok());
}

TEST_F(CubeIoTest, CorruptionDetected) {
  ASSERT_TRUE(SaveCube(NdArray<int64_t>(Shape{8, 8}, 3), path_).ok());
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 50, SEEK_SET);
  std::fputc(0x5A, f);
  std::fclose(f);
  EXPECT_FALSE(LoadCube<int64_t>(path_).ok());
}

TEST_F(CubeIoTest, NotACubeFileRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  std::fputs("RPSSNAP1 -- wrong magic family", f);
  std::fclose(f);
  EXPECT_FALSE(LoadCube<int64_t>(path_).ok());
}

TEST_F(CubeIoTest, MissingFileRejected) {
  EXPECT_EQ(LoadCube<int64_t>(tmp_.file("missing.bin"))
                .status()
                .code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace rps
