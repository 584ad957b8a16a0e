// GROUP BY over a range query: per-slot aggregates along one or two
// dimensions, computed as a series of range sums (the data cube's
// cross-tab use from Gray et al., built on the paper's range-sum
// primitive). Each operator answers every cell of its result from one
// pinned version, so rows and columns are mutually consistent under
// concurrent writers.

#ifndef RPS_OLAP_GROUP_BY_H_
#define RPS_OLAP_GROUP_BY_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace rps {

class ShardedOlapEngine;
class RangeQuery;

/// One output row of a 1-dimensional GROUP BY.
struct GroupRow {
  std::string slot;  // human-readable slot label
  double sum = 0;
  int64_t count = 0;

  double average() const {
    return count == 0 ? 0 : sum / static_cast<double>(count);
  }
};

/// SUM/COUNT of `query`'s range grouped by each slot of `dimension`
/// (restricted to the query's range on that dimension). One batched
/// range sum per slot: O(extent * 2^d) lookups with the RPS/PS
/// engines, fewer with HierarchicalRps, which shares their corners.
Result<std::vector<GroupRow>> GroupBy(const ShardedOlapEngine& engine,
                                      const RangeQuery& query,
                                      const std::string& dimension);

/// Two-dimensional cross-tab: rows x columns of SUMs, with labels.
struct CrossTab {
  std::vector<std::string> row_labels;
  std::vector<std::string> col_labels;
  // sums[r][c] for row r, column c.
  std::vector<std::vector<double>> sums;
};

Result<CrossTab> CrossTabulate(const ShardedOlapEngine& engine,
                               const RangeQuery& query,
                               const std::string& row_dimension,
                               const std::string& col_dimension);

/// The `limit` group rows with the largest SUM, descending (ties keep
/// slot order). limit <= 0 returns every row sorted.
Result<std::vector<GroupRow>> TopSlotsBySum(const ShardedOlapEngine& engine,
                                            const RangeQuery& query,
                                            const std::string& dimension,
                                            int64_t limit);

}  // namespace rps

#endif  // RPS_OLAP_GROUP_BY_H_
