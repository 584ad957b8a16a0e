#include "util/binary_io.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/temp_dir.h"
#include "util/crc32.h"

namespace rps {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32::Of("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32::Of("", 0), 0x00000000u);
  EXPECT_EQ(Crc32::Of("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 incremental;
  incremental.Update(data.data(), 10);
  incremental.Update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(incremental.value(), Crc32::Of(data.data(), data.size()));
}

TEST(BinaryIoTest, ScalarAndVectorRoundTrip) {
  const testing::ScopedTempDir tmp("rps_binary_io");
  const std::string path = tmp.file("roundtrip.bin");
  {
    auto writer = BinaryWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().WriteScalar<int32_t>(-7).ok());
    ASSERT_TRUE(writer.value().WriteScalar<double>(2.5).ok());
    ASSERT_TRUE(
        writer.value().WriteVector<int64_t>({10, 20, 30}).ok());
    ASSERT_TRUE(writer.value().FinishWithChecksum().ok());
  }
  {
    auto reader = BinaryReader::Open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().ReadScalar<int32_t>().value(), -7);
    EXPECT_DOUBLE_EQ(reader.value().ReadScalar<double>().value(), 2.5);
    const auto vec = reader.value().ReadVector<int64_t>(100);
    ASSERT_TRUE(vec.ok());
    EXPECT_EQ(vec.value(), (std::vector<int64_t>{10, 20, 30}));
    EXPECT_TRUE(reader.value().VerifyChecksum().ok());
  }
}

TEST(BinaryIoTest, ChecksumCatchesModification) {
  const testing::ScopedTempDir tmp("rps_binary_io");
  const std::string path = tmp.file("tamper.bin");
  {
    auto writer = std::move(BinaryWriter::Create(path)).value();
    ASSERT_TRUE(writer.WriteScalar<int64_t>(42).ok());
    ASSERT_TRUE(writer.FinishWithChecksum().ok());
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc(0x7F, f);  // clobber first byte
    std::fclose(f);
  }
  auto reader = std::move(BinaryReader::Open(path)).value();
  ASSERT_TRUE(reader.ReadScalar<int64_t>().ok());  // bytes still readable
  EXPECT_EQ(reader.VerifyChecksum().code(), StatusCode::kIoError);
}

TEST(BinaryIoTest, VectorLengthBoundEnforced) {
  const testing::ScopedTempDir tmp("rps_binary_io");
  const std::string path = tmp.file("bound.bin");
  {
    auto writer = std::move(BinaryWriter::Create(path)).value();
    ASSERT_TRUE(writer.WriteVector<int64_t>({1, 2, 3, 4, 5}).ok());
    ASSERT_TRUE(writer.FinishWithChecksum().ok());
  }
  auto reader = std::move(BinaryReader::Open(path)).value();
  const auto vec = reader.ReadVector<int64_t>(3);  // cap below actual
  EXPECT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().code(), StatusCode::kIoError);
}

TEST(BinaryIoTest, ShortReadReported) {
  const testing::ScopedTempDir tmp("rps_binary_io");
  const std::string path = tmp.file("short.bin");
  {
    auto writer = std::move(BinaryWriter::Create(path)).value();
    ASSERT_TRUE(writer.WriteScalar<int32_t>(1).ok());
    ASSERT_TRUE(writer.FinishWithChecksum().ok());
  }
  auto reader = std::move(BinaryReader::Open(path)).value();
  ASSERT_TRUE(reader.ReadScalar<int32_t>().ok());
  ASSERT_TRUE(reader.ReadScalar<uint32_t>().ok());  // consumes checksum
  EXPECT_EQ(reader.ReadScalar<int64_t>().status().code(),
            StatusCode::kIoError);
}

TEST(BinaryIoTest, MissingFileReported) {
  const testing::ScopedTempDir tmp("rps_binary_io");
  EXPECT_EQ(BinaryReader::Open(tmp.file("does_not_exist.bin"))
                .status()
                .code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace rps
