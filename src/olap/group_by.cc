#include "olap/group_by.h"

#include <algorithm>

#include "olap/sharded_engine.h"
#include "olap/window.h"

namespace rps {
namespace {

/// GROUP BY rows of `query` along `dimension`, from `view`'s version.
Result<std::vector<GroupRow>> GroupRows(const ShardedOlapEngine::ReadView& view,
                                        const RangeQuery& query,
                                        const std::string& dimension) {
  RPS_ASSIGN_OR_RETURN(const int j, view.schema().DimensionIndex(dimension));
  RPS_ASSIGN_OR_RETURN(const Box range, view.Resolve(query));
  const std::vector<Box> slots = WindowBoxes(range, j, 1);
  RPS_ASSIGN_OR_RETURN(const std::vector<double> sums, view.SumBatch(slots));
  RPS_ASSIGN_OR_RETURN(const std::vector<int64_t> counts,
                       view.CountBatch(slots));
  const Dimension& dim = view.schema().dimensions()[static_cast<size_t>(j)];
  std::vector<GroupRow> rows(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    rows[i].slot = dim.SlotLabel(slots[i].lo()[j]);
    rows[i].sum = sums[i];
    rows[i].count = counts[i];
  }
  return rows;
}

}  // namespace

Result<std::vector<GroupRow>> GroupBy(const ShardedOlapEngine& engine,
                                      const RangeQuery& query,
                                      const std::string& dimension) {
  const ShardedOlapEngine::ReadView view(engine, "engine.group_by");
  return GroupRows(view, query, dimension);
}

Result<CrossTab> CrossTabulate(const ShardedOlapEngine& engine,
                               const RangeQuery& query,
                               const std::string& row_dimension,
                               const std::string& col_dimension) {
  const ShardedOlapEngine::ReadView view(engine, "engine.cross_tab");
  const Schema& schema = view.schema();
  RPS_ASSIGN_OR_RETURN(const int r, schema.DimensionIndex(row_dimension));
  RPS_ASSIGN_OR_RETURN(const int c, schema.DimensionIndex(col_dimension));
  if (r == c) {
    return Status::InvalidArgument(
        "cross-tab needs two distinct dimensions");
  }
  RPS_ASSIGN_OR_RETURN(const Box range, view.Resolve(query));
  const Dimension& row_dim = schema.dimensions()[static_cast<size_t>(r)];
  const Dimension& col_dim = schema.dimensions()[static_cast<size_t>(c)];

  // One batch per row keeps the boxes in flight to one row's worth;
  // every row still comes from the view's one version.
  CrossTab tab;
  for (int64_t q = range.lo()[c]; q <= range.hi()[c]; ++q) {
    tab.col_labels.push_back(col_dim.SlotLabel(q));
  }
  for (const Box& row : WindowBoxes(range, r, 1)) {
    tab.row_labels.push_back(row_dim.SlotLabel(row.lo()[r]));
    RPS_ASSIGN_OR_RETURN(std::vector<double> sums,
                         view.SumBatch(WindowBoxes(row, c, 1)));
    tab.sums.push_back(std::move(sums));
  }
  return tab;
}

Result<std::vector<GroupRow>> TopSlotsBySum(const ShardedOlapEngine& engine,
                                            const RangeQuery& query,
                                            const std::string& dimension,
                                            int64_t limit) {
  const ShardedOlapEngine::ReadView view(engine, "engine.top_slots");
  RPS_ASSIGN_OR_RETURN(std::vector<GroupRow> rows,
                       GroupRows(view, query, dimension));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const GroupRow& a, const GroupRow& b) {
                     return a.sum > b.sum;
                   });
  if (limit > 0 && static_cast<int64_t>(rows.size()) > limit) {
    rows.resize(static_cast<size_t>(limit));
  }
  return rows;
}

}  // namespace rps
