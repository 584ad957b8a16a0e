// A 4-dimensional OLAP dashboard: REVENUE over
// region x product line x week x order-size bucket, exercising
// categorical and binned dimensions, AVERAGE, and the paper's ROLLING
// SUM / ROLLING AVERAGE operators on top of the relative prefix sum
// engine.

#include <cstdio>
#include <string>
#include <vector>

#include "olap/sharded_engine.h"
#include "util/random.h"

namespace {

rps::Schema MakeSchema() {
  return rps::Schema(
      "REVENUE",
      {rps::Dimension::Categorical("region",
                                   {"North", "South", "East", "West"}),
       rps::Dimension::Categorical(
           "product", {"Widgets", "Gadgets", "Gizmos", "Doodads", "Sprockets"}),
       rps::Dimension::Integer("week", 1, 52),
       rps::Dimension::Binned("order_size", 0.0, 10000.0, 20)});
}

std::vector<rps::OlapRecord> SyntheticOrders(int64_t count, uint64_t seed) {
  rps::Rng rng(seed);
  const std::vector<std::string> regions = {"North", "South", "East", "West"};
  const std::vector<std::string> products = {"Widgets", "Gadgets", "Gizmos",
                                             "Doodads", "Sprockets"};
  std::vector<rps::OlapRecord> orders;
  orders.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const std::string region =
        regions[static_cast<size_t>(rng.UniformInt(0, 3))];
    const std::string product =
        products[static_cast<size_t>(rng.UniformInt(0, 4))];
    const int64_t week = rng.UniformInt(1, 52);
    const double size = static_cast<double>(rng.UniformInt(10, 9999));
    orders.push_back(
        rps::OlapRecord{{region, product, week, size}, size});
  }
  return orders;
}

}  // namespace

int main() {
  rps::ShardedOlapEngine engine(MakeSchema(),
                                rps::EngineMethod::kRelativePrefixSum);
  const rps::IngestReport report = engine.Load(SyntheticOrders(120000, 99));
  std::printf("loaded %lld orders into a %s cube\n",
              static_cast<long long>(report.accepted),
              engine.schema().CubeShape().ToString().c_str());

  // Regional quarter totals (weeks 1-13).
  std::printf("\nQ1 (weeks 1-13) revenue by region:\n");
  for (const char* region : {"North", "South", "East", "West"}) {
    const auto sum = engine.Sum(rps::RangeQuery()
                                    .WhereLabelIs("region", region)
                                    .WhereIntBetween("week", 1, 13));
    RPS_CHECK(sum.ok());
    std::printf("  %-6s %12.0f\n", region, sum.value());
  }

  // Large East-region orders: count and average ticket.
  const rps::RangeQuery big_east = rps::RangeQuery()
                                       .WhereLabelIs("region", "East")
                                       .WhereDoubleBetween("order_size",
                                                           5000.0, 10000.0);
  std::printf("\nEast large orders (>= $5000): count=%lld avg=$%.2f\n",
              static_cast<long long>(engine.Count(big_east).value()),
              engine.Average(big_east).value());

  // 4-week rolling revenue for Widgets, weeks 1..12.
  const auto rolling = engine.RollingSum(
      rps::RangeQuery()
          .WhereLabelIs("product", "Widgets")
          .WhereIntBetween("week", 1, 12),
      "week", 4);
  RPS_CHECK(rolling.ok());
  std::printf("\nWidgets 4-week rolling revenue (weeks 1-12):\n  ");
  for (double value : rolling.value()) std::printf("%.0f ", value);
  std::printf("\n");

  // Live inserts keep every view current.
  RPS_CHECK(engine
                .Insert(rps::OlapRecord{
                    {std::string("West"), std::string("Gizmos"), int64_t{26},
                     7500.0},
                    7500.0})
                .ok());
  const auto west_gizmos = engine.Sum(rps::RangeQuery()
                                          .WhereLabelIs("region", "West")
                                          .WhereLabelIs("product", "Gizmos")
                                          .WhereIntBetween("week", 26, 26));
  std::printf("\nafter live insert, West/Gizmos week 26 revenue: %.0f\n",
              west_gizmos.value());
  std::printf("insert touched %lld cells across SUM+COUNT structures\n",
              static_cast<long long>(engine.cumulative_update_cells()));
  return 0;
}
