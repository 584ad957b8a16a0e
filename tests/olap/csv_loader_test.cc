#include "olap/csv_loader.h"

#include <gtest/gtest.h>

#include "olap/sharded_engine.h"

namespace rps {
namespace {

Schema TestSchema() {
  return Schema("SALES",
                {Dimension::Integer("age", 18, 60),
                 Dimension::Categorical("region", {"N", "S"}),
                 Dimension::Binned("amount", 0.0, 1000.0, 10)});
}

TEST(CsvLoaderTest, ParsesWellFormedRows) {
  const std::string csv =
      "age,region,amount,sales\n"
      "37,N,150.5,99.5\n"
      "52, S ,999.0,12\n";
  const auto report = ParseCsv(TestSchema(), csv, /*has_header=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().lines_parsed, 2);
  EXPECT_TRUE(report.value().errors.empty());
  ASSERT_EQ(report.value().records.size(), 2u);
  const OlapRecord& first = report.value().records[0];
  EXPECT_EQ(std::get<int64_t>(first.values[0]), 37);
  EXPECT_EQ(std::get<std::string>(first.values[1]), "N");
  EXPECT_DOUBLE_EQ(std::get<double>(first.values[2]), 150.5);
  EXPECT_DOUBLE_EQ(first.measure, 99.5);
  // Whitespace-trimmed label.
  EXPECT_EQ(std::get<std::string>(report.value().records[1].values[1]), "S");
}

TEST(CsvLoaderTest, NoHeaderMode) {
  const auto report = ParseCsv(TestSchema(), "40,N,10.0,5\n", false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().lines_parsed, 1);
}

TEST(CsvLoaderTest, SkipsBlankLines) {
  const auto report =
      ParseCsv(TestSchema(), "\n40,N,10.0,5\n\n\n41,S,20.0,6\n", false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().lines_parsed, 2);
  EXPECT_EQ(report.value().lines_skipped, 3);
}

TEST(CsvLoaderTest, ReportsFieldCountErrors) {
  const auto report = ParseCsv(TestSchema(), "40,N,10.0\n40,N,10.0,5,6\n",
                               false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().lines_parsed, 0);
  ASSERT_EQ(report.value().errors.size(), 2u);
  EXPECT_NE(report.value().errors[0].find("line 1"), std::string::npos);
  EXPECT_NE(report.value().errors[1].find("line 2"), std::string::npos);
}

TEST(CsvLoaderTest, ReportsTypeErrorsAndContinues) {
  const std::string csv =
      "abc,N,10.0,5\n"     // bad int
      "40,N,xyz,5\n"       // bad double
      "40,N,10.0,oops\n"   // bad measure
      "41,S,20.0,6\n";     // good
  const auto report = ParseCsv(TestSchema(), csv, false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().lines_parsed, 1);
  EXPECT_EQ(report.value().errors.size(), 3u);
  EXPECT_NE(report.value().errors[0].find("bad integer"), std::string::npos);
  EXPECT_NE(report.value().errors[1].find("bad number"), std::string::npos);
  EXPECT_NE(report.value().errors[2].find("bad measure"), std::string::npos);
}

TEST(CsvLoaderTest, WindowsLineEndings) {
  const auto report = ParseCsv(TestSchema(), "40,N,10.0,5\r\n41,S,20.0,6\r\n",
                               false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().lines_parsed, 2);
  EXPECT_TRUE(report.value().errors.empty());
}

TEST(CsvLoaderTest, EndToEndWithEngine) {
  const std::string csv =
      "age,region,amount,sales\n"
      "37,N,150.0,100\n"
      "37,N,250.0,50\n"
      "52,S,100.0,25\n"
      "17,N,100.0,999\n";  // age below domain: parses, rejected by Load
  const auto report = ParseCsv(TestSchema(), csv, true);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().records.size(), 4u);

  ShardedOlapEngine engine(TestSchema(), EngineMethod::kRelativePrefixSum);
  const IngestReport loaded = engine.Load(report.value().records);
  EXPECT_EQ(loaded.accepted, 3);
  EXPECT_EQ(loaded.rejected, 1);
  EXPECT_DOUBLE_EQ(
      engine.Sum(RangeQuery().WhereIntBetween("age", 37, 37)).value(), 150);
}

TEST(CsvLoaderTest, EmptyInput) {
  const auto report = ParseCsv(TestSchema(), "", false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().lines_parsed, 0);
  EXPECT_TRUE(report.value().records.empty());
}

}  // namespace
}  // namespace rps
