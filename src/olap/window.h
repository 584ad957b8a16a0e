// Window operators over one dimension, built on range sums: per-slot
// series, period-over-period deltas, and cumulative series. Together
// with RollingSum/RollingAverage (olap/sharded_engine.h) these cover
// the paper's ROLLING operators and the trend questions its
// introduction motivates ("queries of this form can be very useful in
// finding trends"). Each series is answered from one pinned version.

#ifndef RPS_OLAP_WINDOW_H_
#define RPS_OLAP_WINDOW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cube/box.h"
#include "olap/sharded_engine.h"
#include "util/status.h"

namespace rps {

/// The boxes of a window series along `dimension`: for each slot p of
/// `range` on that dimension, `range` restricted to slots
/// [max(lo, p - window + 1), p]. window = 1 gives per-slot slices; a
/// window at least the range's extent gives cumulative prefixes.
std::vector<Box> WindowBoxes(const Box& range, int dimension, int64_t window);

/// SUMs of `query`'s range over its WindowBoxes along `dimension`,
/// from `view`'s version (the body of RollingSum and the series
/// below).
Result<std::vector<double>> WindowSums(const ShardedOlapEngine::ReadView& view,
                                       const RangeQuery& query,
                                       const std::string& dimension,
                                       int64_t window);

/// SUM per slot of `dimension` within the query range (the series
/// GROUP BY produces, without labels/counts).
Result<std::vector<double>> SlotSeries(const ShardedOlapEngine& engine,
                                       const RangeQuery& query,
                                       const std::string& dimension);

/// Period-over-period delta: out[i] = series[i] - series[i - lag],
/// with out[i] = series[i] for i < lag (no earlier period). lag >= 1.
/// E.g. lag=7 on a day dimension gives week-over-week change.
Result<std::vector<double>> PeriodDelta(const ShardedOlapEngine& engine,
                                        const RangeQuery& query,
                                        const std::string& dimension,
                                        int64_t lag);

/// Cumulative sums along `dimension` within the query range:
/// out[i] = sum of slots lo..lo+i.
Result<std::vector<double>> CumulativeSeries(const ShardedOlapEngine& engine,
                                             const RangeQuery& query,
                                             const std::string& dimension);

}  // namespace rps

#endif  // RPS_OLAP_WINDOW_H_
