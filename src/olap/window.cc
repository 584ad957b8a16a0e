#include "olap/window.h"

#include <algorithm>
#include <limits>

namespace rps {

std::vector<Box> WindowBoxes(const Box& range, int dimension,
                             int64_t window) {
  std::vector<Box> boxes;
  boxes.reserve(static_cast<size_t>(range.Extent(dimension)));
  for (int64_t p = range.lo()[dimension]; p <= range.hi()[dimension]; ++p) {
    CellIndex lo = range.lo();
    CellIndex hi = range.hi();
    lo[dimension] = std::max(range.lo()[dimension], p - window + 1);
    hi[dimension] = p;
    boxes.emplace_back(lo, hi);
  }
  return boxes;
}

Result<std::vector<double>> WindowSums(const ShardedOlapEngine::ReadView& view,
                                       const RangeQuery& query,
                                       const std::string& dimension,
                                       int64_t window) {
  RPS_ASSIGN_OR_RETURN(const int j, view.schema().DimensionIndex(dimension));
  RPS_ASSIGN_OR_RETURN(const Box range, view.Resolve(query));
  return view.SumBatch(WindowBoxes(range, j, window));
}

Result<std::vector<double>> SlotSeries(const ShardedOlapEngine& engine,
                                       const RangeQuery& query,
                                       const std::string& dimension) {
  const ShardedOlapEngine::ReadView view(engine, "engine.slot_series");
  return WindowSums(view, query, dimension, 1);
}

Result<std::vector<double>> PeriodDelta(const ShardedOlapEngine& engine,
                                        const RangeQuery& query,
                                        const std::string& dimension,
                                        int64_t lag) {
  if (lag < 1) return Status::InvalidArgument("lag must be >= 1");
  const ShardedOlapEngine::ReadView view(engine, "engine.period_delta");
  RPS_ASSIGN_OR_RETURN(const std::vector<double> series,
                       WindowSums(view, query, dimension, 1));
  std::vector<double> deltas(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    deltas[i] = (static_cast<int64_t>(i) >= lag)
                    ? series[i] - series[i - static_cast<size_t>(lag)]
                    : series[i];
  }
  return deltas;
}

Result<std::vector<double>> CumulativeSeries(const ShardedOlapEngine& engine,
                                             const RangeQuery& query,
                                             const std::string& dimension) {
  const ShardedOlapEngine::ReadView view(engine, "engine.cumulative_series");
  return WindowSums(view, query, dimension,
                    std::numeric_limits<int64_t>::max());
}

}  // namespace rps
