// Common interface over range-sum query methods.
//
// The paper compares three approaches on the same operations: the
// naive method, the prefix sum method of Ho et al., and the relative
// prefix sum method. QueryMethod lets tests, benchmarks and the OLAP
// engine drive any of them interchangeably.

#ifndef RPS_CORE_METHOD_H_
#define RPS_CORE_METHOD_H_

#include <memory>
#include <span>
#include <string>

#include "core/stats.h"
#include "cube/nd_array.h"
#include "util/check.h"

namespace rps {

/// A structure answering range-sum queries over a dense data cube and
/// accepting point updates. T must form a group under +/- (the paper's
/// invertible-operator requirement).
///
/// Thread-compatibility: const methods may be called concurrently;
/// updates require external synchronization.
template <typename T>
class QueryMethod {
 public:
  virtual ~QueryMethod() = default;

  /// Short stable identifier, e.g. "naive", "prefix_sum",
  /// "relative_prefix_sum".
  virtual std::string name() const = 0;

  /// (Re)builds the structure from `source`. Invalidates prior state.
  virtual void Build(const NdArray<T>& source) = 0;

  virtual const Shape& shape() const = 0;

  /// Sum of the cube cells inside `range` (inclusive bounds). The
  /// range must lie within shape().
  virtual T RangeSum(const Box& range) const = 0;

  /// Answers many range sums in one call: results[i] becomes
  /// RangeSum(ranges[i]). `results` must have exactly ranges.size()
  /// entries. The base implementation loops; structures override it
  /// to share per-block work between queries hitting the same region
  /// (and may answer large batches in parallel), so batch results for
  /// floating T can differ from the serial loop in the last bits.
  virtual void RangeSumBatch(std::span<const Box> ranges,
                             std::span<T> results) const {
    RPS_CHECK(ranges.size() == results.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      results[i] = RangeSum(ranges[i]);
    }
  }

  /// Adds `delta` to one cell. Returns exact touched-cell counts.
  virtual UpdateStats Add(const CellIndex& cell, T delta) = 0;

  /// One record of a batch update.
  struct CellDelta {
    CellIndex cell;
    T delta;
  };

  /// Adds every record's delta to its cell: the same end state as one
  /// Add per record, in order (bit for bit for integral T; a floating
  /// T may see additions regrouped). Returns the cells written. The
  /// base implementation loops over Add; RelativePrefixSum writes each
  /// cell the batch reaches once.
  virtual UpdateStats AddBatch(std::span<const CellDelta> deltas) {
    UpdateStats stats;
    for (const CellDelta& record : deltas) {
      stats += Add(record.cell, record.delta);
    }
    return stats;
  }

  /// Sets one cell to `value` (the paper's update model: "given any
  /// new value for a cell"). Returns exact touched-cell counts.
  virtual UpdateStats Set(const CellIndex& cell, T value) = 0;

  /// Current value of one cube cell.
  virtual T ValueAt(const CellIndex& cell) const = 0;

  /// Independent copy of the structure: writes to either never show in
  /// the other. The sharded engine's copy-on-write publication path
  /// clones a shard, applies a batch to the clone, and atomically
  /// swaps it in. A clone may share storage with its source until a
  /// write copies it (RelativePrefixSum shares box-row chunks).
  /// Returns null when the structure cannot be duplicated (e.g. it
  /// owns an external resource such as a durable log); callers
  /// requiring clonability must check once up front.
  virtual std::unique_ptr<QueryMethod<T>> Clone() const { return nullptr; }

  /// Storage footprint in cells.
  virtual MemoryStats Memory() const = 0;

  /// Cells this structure does not share with another copy: after a
  /// Clone and some writes, the cells the clone has copied. Deep
  /// copies share nothing.
  virtual int64_t UnsharedCells() const { return Memory().total(); }
};

}  // namespace rps

#endif  // RPS_CORE_METHOD_H_
