// CSV-to-dashboard pipeline: parse raw CSV orders, load them into an
// OLAP engine backed by relative prefix sums, and answer GROUP BY /
// cross-tab questions -- then keep ingesting live rows.

#include <cstdio>
#include <string>

#include "olap/sharded_engine.h"
#include "olap/csv_loader.h"
#include "olap/group_by.h"
#include "util/random.h"

namespace {

rps::Schema MakeSchema() {
  return rps::Schema(
      "SALES",
      {rps::Dimension::Categorical("store", {"Downtown", "Airport", "Mall"}),
       rps::Dimension::Integer("day", 1, 28),
       rps::Dimension::Binned("ticket", 0.0, 500.0, 10)});
}

// A synthetic CSV export (in practice this would be read from disk).
std::string SyntheticCsv() {
  rps::Rng rng(77);
  const char* stores[] = {"Downtown", "Airport", "Mall"};
  std::string csv = "store,day,ticket,sales\n";
  for (int i = 0; i < 5000; ++i) {
    const char* store = stores[rng.UniformInt(0, 2)];
    const int64_t day = rng.UniformInt(1, 28);
    const double ticket = static_cast<double>(rng.UniformInt(5, 499));
    csv += std::string(store) + "," + std::to_string(day) + "," +
           std::to_string(ticket) + "," + std::to_string(ticket) + "\n";
  }
  // A few malformed lines, as real exports have.
  csv += "Downtown,not_a_day,10.0,10.0\n";
  csv += "Downtown,3\n";
  return csv;
}

}  // namespace

int main() {
  const rps::Schema schema = MakeSchema();
  const auto parsed = rps::ParseCsv(schema, SyntheticCsv(), true);
  RPS_CHECK(parsed.ok());
  std::printf("parsed %lld rows (%zu malformed lines reported)\n",
              static_cast<long long>(parsed.value().lines_parsed),
              parsed.value().errors.size());
  for (const std::string& error : parsed.value().errors) {
    std::printf("  %s\n", error.c_str());
  }

  rps::ShardedOlapEngine engine(schema, rps::EngineMethod::kRelativePrefixSum);
  const rps::IngestReport loaded = engine.Load(parsed.value().records);
  std::printf("loaded %lld records\n\n",
              static_cast<long long>(loaded.accepted));

  // GROUP BY store.
  const auto by_store = rps::GroupBy(engine, rps::RangeQuery(), "store");
  RPS_CHECK(by_store.ok());
  std::printf("revenue by store:\n");
  for (const rps::GroupRow& row : by_store.value()) {
    std::printf("  %-9s sum=%10.0f  count=%5lld  avg=%7.2f\n",
                row.slot.c_str(), row.sum,
                static_cast<long long>(row.count), row.average());
  }

  // Cross-tab: store x week-1 days.
  const auto tab = rps::CrossTabulate(
      engine, rps::RangeQuery().WhereIntBetween("day", 1, 7), "store", "day");
  RPS_CHECK(tab.ok());
  std::printf("\nweek 1 revenue, store x day:\n        ");
  for (const std::string& col : tab.value().col_labels) {
    std::printf("%8s", col.c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < tab.value().row_labels.size(); ++r) {
    std::printf("%-8s", tab.value().row_labels[r].c_str());
    for (double v : tab.value().sums[r]) std::printf("%8.0f", v);
    std::printf("\n");
  }

  // Live ingest keeps every aggregate current.
  RPS_CHECK(engine
                .Insert(rps::OlapRecord{
                    {std::string("Airport"), int64_t{7}, 450.0}, 450.0})
                .ok());
  const auto airport = engine.Sum(rps::RangeQuery()
                                      .WhereLabelIs("store", "Airport")
                                      .WhereIntBetween("day", 7, 7));
  std::printf("\nAirport day-7 revenue after live insert: %.0f\n",
              airport.value());
  return 0;
}
