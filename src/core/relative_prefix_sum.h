// The relative prefix sum structure (the paper's contribution,
// Sections 3-4).
//
// Two components:
//   * an Overlay storing anchor and border values per box
//     (Section 3.1), and
//   * the RP array of box-local prefix sums (Section 3.2):
//     RP[t] = SUM(A[a..t]) where a anchors the box covering t.
//
// A prefix sum P[t] is assembled "on the fly" from one anchor value,
// the border values of the projections of t onto the box's anchor
// faces, and one RP cell (Figure 12); a range sum combines 2^d such
// prefix sums by inclusion-exclusion (Figure 3). Updates touch at most
// the trailing part of one RP box plus bounded border/anchor cells in
// dominating boxes (Section 4.2, Figure 14); with k = sqrt(n) the
// worst case is O(n^(d/2)) cells (Section 4.3). Both components live in
// copy-on-write chunks, one per box row (core/box_row_store.h), so a
// clone shares them and a write copies only the rows it reaches.

#ifndef RPS_CORE_RELATIVE_PREFIX_SUM_H_
#define RPS_CORE_RELATIVE_PREFIX_SUM_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/box_row_store.h"
#include "core/method.h"
#include "core/overlay.h"
#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "cube/box.h"
#include "cube/nd_array.h"
#include "cube/prefix.h"
#include "cube/row_kernels.h"
#include "util/check.h"
#include "util/math.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rps {

/// Sampling knobs for the CheckInvariants self-audits (flat and
/// hierarchical). Every audit always reconstructs the implied source
/// array in full; the knobs bound how many cells of each structure
/// are re-derived from first principles and compared. A budget that
/// covers its whole population turns that sweep exhaustive (and
/// deterministic) instead of randomly sampled.
struct AuditOptions {
  int64_t rp_samples = 256;       // RP cells re-derived as box-local sums
  int64_t overlay_samples = 256;  // overlay stored cells re-derived
  int64_t prefix_samples = 64;    // full prefix-sum assemblies checked
  uint64_t seed = 1;              // sampling seed (audits are deterministic)
};

namespace internal_audit {

/// Equality for audited cell values: exact for integral (and any
/// non-floating) T, relative-tolerance for floating T, where the
/// reconstruct-then-rebuild round trip legitimately reassociates
/// additions.
template <typename T>
bool CellsEqual(const T& actual, const T& expected) {
  if constexpr (std::is_floating_point_v<T>) {
    const T diff = std::fabs(actual - expected);
    const T scale = std::max(
        T{1}, std::max(std::fabs(actual), std::fabs(expected)));
    return diff <= scale * static_cast<T>(1e-9);
  } else {
    return actual == expected;
  }
}

}  // namespace internal_audit

/// Returns the overlay box sizes recommended by the paper's cost
/// analysis: k_j = nearest integer to sqrt(n_j), clamped to
/// [1, n_j] (Section 4.3).
CellIndex RecommendedBoxSize(const Shape& shape);

/// Parallel-execution knobs for structure builds and query batches.
/// Work whose estimated cells fall below `min_parallel_cells` stays
/// on the calling thread, and ParallelFor chunk grains are derived
/// from the same constant -- chunk boundaries depend only on the
/// problem size, never on thread count, so parallel results are
/// bit-identical to serial ones for integral T.
struct ParallelPolicy {
  int64_t min_parallel_cells = kMinCellsPerParallelChunk;
};

/// Sum of prefix-array cells by inclusion-exclusion over the 2^d
/// corners of `range`: the query of the prefix sum method, reused by
/// builders and tests. `prefix` must be a full prefix-sum array.
template <typename T>
T SumFromPrefixArray(const NdArray<T>& prefix, const Box& range) {
  const int d = range.dims();
  RPS_CHECK(range.Within(prefix.shape()));
  T total{};
  CellIndex corner = CellIndex::Filled(d, 0);
  for (uint32_t mask = 0; mask < (1u << d); ++mask) {
    bool skip = false;
    int low_picks = 0;
    for (int j = 0; j < d; ++j) {
      if (mask & (1u << j)) {
        ++low_picks;
        if (range.lo()[j] == 0) {
          skip = true;  // empty prefix below index 0
          break;
        }
        corner[j] = range.lo()[j] - 1;
      } else {
        corner[j] = range.hi()[j];
      }
    }
    if (skip) continue;
    if (low_picks % 2 == 0) {
      total += prefix.at(corner);
    } else {
      total -= prefix.at(corner);
    }
  }
  return total;
}

template <typename T>
class RelativePrefixSum final : public QueryMethod<T> {
 public:
  /// Builds the structure for `source` with the recommended
  /// (sqrt(n)) box sizes. `pool` (borrowed, must outlive the
  /// structure; may be null for strictly serial execution) runs the
  /// build and large query batches in parallel when the work clears
  /// the ParallelPolicy threshold.
  explicit RelativePrefixSum(const NdArray<T>& source,
                             ThreadPool* pool = &ThreadPool::Global())
      : RelativePrefixSum(source, RecommendedBoxSize(source.shape()), pool) {}

  /// Builds with explicit per-dimension box sizes (each in
  /// [1, extent]).
  RelativePrefixSum(const NdArray<T>& source, const CellIndex& box_size,
                    ThreadPool* pool = &ThreadPool::Global())
      : geometry_(std::make_shared<const OverlayGeometry>(source.shape(),
                                                          box_size)),
        pool_(pool) {
    BuildFrom(source);
  }

  /// Reassembles a structure from previously extracted contents
  /// (snapshot loading -- see core/snapshot.h). `rp_cells` is the RP
  /// array in linear order; `overlay_values` the overlay in slot
  /// order. Sizes must match the geometry exactly.
  static Result<RelativePrefixSum> FromParts(
      const Shape& shape, const CellIndex& box_size, std::vector<T> rp_cells,
      std::vector<T> overlay_values,
      ThreadPool* pool = &ThreadPool::Global()) {
    RelativePrefixSum parts(shape, box_size, PartsTag{}, pool);
    if (static_cast<int64_t>(rp_cells.size()) != shape.num_cells()) {
      return Status::InvalidArgument("RP cell count mismatch");
    }
    if (static_cast<int64_t>(overlay_values.size()) !=
        parts.geometry().total_stored_cells()) {
      return Status::InvalidArgument("overlay value count mismatch");
    }
    parts.store_ = BoxRowStore<T>(parts.geometry(), rp_cells.data(),
                                  overlay_values.data());
    return parts;
  }

  std::string name() const override { return "relative_prefix_sum"; }

  void Build(const NdArray<T>& source) override {
    RPS_CHECK(source.shape() == shape());
    BuildFrom(source);
  }

  const Shape& shape() const override { return geometry_->cube_shape(); }
  const OverlayGeometry& geometry() const { return *geometry_; }

  /// P[t] = SUM(A[0..t]), assembled from anchor + border values + one
  /// RP cell. At most 2^d + 1 cell reads.
  T PrefixSum(const CellIndex& target) const;

  T RangeSum(const Box& range) const override;

  /// The RangeSum of every box, in order, with the same cell reads and
  /// additions (so bit-identical answers for every T). Batches whose
  /// estimated cell reads clear ParallelPolicy::min_parallel_cells run
  /// chunks of queries on the pool.
  void RangeSumBatch(std::span<const Box> ranges,
                     std::span<T> results) const override;

  UpdateStats Add(const CellIndex& cell, T delta) override;

  using CellDelta = typename QueryMethod<T>::CellDelta;

  /// Writes every cell the batch's records reach once, with the summed
  /// delta of the records that reach it (OverlayGeometry::ScatterBatch):
  /// records in one box row share their dominating boxes' runs and
  /// their covering boxes' RP slices. Returns the cells written, each
  /// counted once; a batch of one record is an Add. Equal to one Add
  /// per record bit for bit for integral T.
  UpdateStats AddBatch(std::span<const CellDelta> deltas) override;

  UpdateStats Set(const CellIndex& cell, T value) override {
    return Add(cell, value - ValueAt(cell));
  }

  /// Recovers A[cell] from the RP array by box-local differencing
  /// (2^d RP reads; A itself is not stored).
  T ValueAt(const CellIndex& cell) const override;

  /// Shares every box-row chunk (O(box rows)); each copy copies a
  /// chunk on its first write to it (core/box_row_store.h).
  std::unique_ptr<QueryMethod<T>> Clone() const override {
    return std::make_unique<RelativePrefixSum<T>>(*this);
  }

  MemoryStats Memory() const override {
    return MemoryStats{shape().num_cells(), geometry().total_stored_cells()};
  }

  /// The cells of the chunks this copy created: none right after a
  /// copy, then the box rows its writes reached.
  int64_t UnsharedCells() const override { return store_.UnsharedCells(); }

  /// Box row `r`'s chunk: its RP cells, then its overlay values
  /// (OverlayGeometry::BoxRow). Two copies share the row while their
  /// spans start at the same address. Valid until this structure
  /// writes the row or is destroyed.
  std::span<const T> box_row_cells(int64_t r) const {
    return {store_.cells(r), static_cast<size_t>(store_.row_cells(r))};
  }

  /// Copies of the RP array and of the overlay values in slot order,
  /// assembled from the chunks (tests, audits, tools).
  NdArray<T> MaterializeRp() const;
  std::vector<T> MaterializeOverlay() const;

  /// The stored overlay value with in-box `offsets` of box `box_index`.
  T OverlayAt(const CellIndex& box_index, const CellIndex& offsets) const {
    const int64_t r = box_index[0];
    return store_.cells(r)[geometry().box_row(r).SlotIndex(
        geometry().SlotOf(box_index, offsets))];
  }

  /// The pool used by Build and large query batches (null means
  /// strictly serial). Borrowed; callers keep ownership.
  ThreadPool* thread_pool() const { return pool_; }
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Parallelism knobs; tests lower min_parallel_cells to force the
  /// parallel paths on small cubes.
  const ParallelPolicy& parallel_policy() const { return policy_; }
  void set_parallel_policy(const ParallelPolicy& policy) { policy_ = policy; }

  /// Self-audit from first principles (tests and `rps_tool audit`).
  /// Recovers the source array A implied by the RP array, builds A's
  /// prefix array P, and re-derives samples of every component
  /// against their definitions:
  ///   * geometry bookkeeping (OverlayGeometry::CheckInvariants) and
  ///     one chunk of the geometry's size per box row,
  ///   * RP[t] == SUM(A[anchor(t)..t])  (Section 3.2),
  ///   * overlay stored values == their defining region sums,
  ///     via val(c) = P[c] - RP[c] - SUM(proper projections)
  ///     (DESIGN.md Section 1),
  ///   * PrefixSum(t) == P[t]  (the Figure 12 assembly).
  /// Returns the first violation. O(N * 2^d) time, O(N) extra memory.
  Status CheckInvariants(const AuditOptions& options = AuditOptions{}) const;

  /// Cell-lookup accounting in the paper's cost unit (Section 4.1:
  /// a prefix lookup needs one anchor value, the border values of the
  /// target's projections, and one RP cell). Counters accumulate
  /// across queries, per instance, in per-thread cells
  /// (obs::PerThreadCells), so concurrent readers (the serving
  /// engine's pinned views) write no shared cache line;
  /// lookup_stats() sums the cells, exact when no query runs
  /// concurrently. Process-wide operation totals go to the
  /// MetricRegistry (rps_core_rps_*) instead.
  struct LookupStats {
    int64_t overlay_reads = 0;
    int64_t rp_reads = 0;
    int64_t total() const { return overlay_reads + rp_reads; }
  };
  LookupStats lookup_stats() const {
    int64_t reads[2];
    lookups_.SumAll(reads);
    return {reads[kOverlayReads], reads[kRpReads]};
  }
  void ResetLookupStats() const { lookups_.Reset(); }

 private:
  struct PartsTag {};
  RelativePrefixSum(const Shape& shape, const CellIndex& box_size, PartsTag,
                    ThreadPool* pool)
      : geometry_(std::make_shared<const OverlayGeometry>(shape, box_size)),
        pool_(pool) {}

  void BuildFrom(const NdArray<T>& source);

  // Computes the stored values of box `box_index` into its box row's
  // chunk from the full prefix array and the chunk's RP cells (build
  // step; boxes are independent of each other).
  void FillOverlayBox(const NdArray<T>& prefix,
                      const OverlayGeometry::BoxRow& row,
                      const CellIndex& box_index, T* chunk) const;

  // Publishes the reads of one or more lookups, counted locally.
  void Publish(const LookupStats& reads) const {
    lookups_.Add(kOverlayReads, reads.overlay_reads);
    lookups_.Add(kRpReads, reads.rp_reads);
  }

  // The Figure 12 assembly of P[target], every query path's one
  // lookup: (anchor + RP[t]) + (0 + borders in subset-mask order),
  // all read from the target's box-row chunk. kDims as in
  // OverlayGeometry::Corner.
  template <int kDims>
  T PrefixAt(const int64_t* target, LookupStats* reads) const;

  // Inclusion-exclusion over the 2^d corners of `range`, in corner
  // mask order; d = 2 takes the compile-time instance.
  T SumOf(const Box& range, LookupStats* reads) const {
    return shape().dims() == 2 ? SumOf<2>(range, reads)
                               : SumOf<0>(range, reads);
  }
  template <int kDims>
  T SumOf(const Box& range, LookupStats* reads) const;

  // Adds `delta` to every cell an update of `cell` writes
  // (OverlayGeometry::Scatter). Makes each box row's chunk private
  // before its first write. kDims as in OverlayGeometry::Corner.
  // Returns cells touched.
  UpdateStats ScatterAdd(const CellIndex& cell, T delta) {
    int64_t at[kMaxDims];
    for (int j = 0; j < cell.dims(); ++j) at[j] = cell[j];
    return shape().dims() == 2 ? ScatterAdd<2>(at, delta)
                               : ScatterAdd<0>(at, delta);
  }
  template <int kDims>
  UpdateStats ScatterAdd(const int64_t* cell, T delta);

  // The two counts of the per-instance lookup cells, which carry
  // their totals across structure copies.
  static constexpr int kOverlayReads = 0;
  static constexpr int kRpReads = 1;

  // Immutable, so copies share it.
  std::shared_ptr<const OverlayGeometry> geometry_;
  BoxRowStore<T> store_;
  ThreadPool* pool_ = nullptr;
  ParallelPolicy policy_;
  mutable obs::PerThreadCells<2> lookups_;
};

// ---------------------------------------------------------------------------
// Implementation.

template <typename T>
void RelativePrefixSum<T>::BuildFrom(const NdArray<T>& source) {
  const Shape& shape = source.shape();
  const OverlayGeometry& geo = geometry();
  const int d = shape.dims();
  ThreadPool* pool =
      (pool_ != nullptr && shape.num_cells() >= policy_.min_parallel_cells)
          ? pool_
          : nullptr;

  // Full prefix array P, used once to fill the overlay.
  NdArray<T> prefix = source;
  PrefixSumInPlace(prefix, pool);

  // Each box row's chunk starts as its slab of the source and is built
  // in place: the slab is one box row along dimension 0, so RP is its
  // prefix sums restarted at every box boundary, one segmented
  // row-kernel pass per dimension (O(d*N)), and then its boxes' overlay
  // values. Box rows are independent and large cubes build them in
  // parallel; chunk grains depend only on the geometry, keeping
  // parallel builds bit-identical to serial ones for integral T.
  store_ = BoxRowStore<T>(geo, source.data(), nullptr);
  const int64_t rows = geo.num_box_rows();
  const int64_t per_row = geo.num_boxes() / geo.grid_shape().extent(0);
  auto build_rows = [&](int64_t row_lo, int64_t row_hi) {
    std::vector<int64_t> extents(static_cast<size_t>(d));
    for (int j = 1; j < d; ++j) {
      extents[static_cast<size_t>(j)] = shape.extent(j);
    }
    CellIndex box_index = geo.grid_shape().Delinearize(row_lo * per_row);
    for (int64_t r = row_lo; r < row_hi; ++r) {
      const OverlayGeometry::BoxRow& row = geo.box_row(r);
      T* const chunk = store_.MutableCells(r);
      extents[0] = row.rp_cells / (shape.num_cells() / shape.extent(0));
      const Shape slab = Shape::FromExtents(extents);
      for (int dim = 0; dim < d; ++dim) {
        SegmentedPrefixSumAlongDim(chunk, slab, dim,
                                   dim == 0 ? slab.extent(0)
                                            : geo.box_size()[dim]);
      }
      for (int64_t b = 0; b < per_row; ++b) {
        FillOverlayBox(prefix, row, box_index, chunk);
        NextIndex(geo.grid_shape(), box_index);
      }
    }
  };
  if (pool != nullptr && rows > 1) {
    const int64_t cells_per_row =
        std::max<int64_t>(1, shape.num_cells() / rows);
    const int64_t grain =
        std::max<int64_t>(1, kMinCellsPerParallelChunk / cells_per_row);
    pool->ParallelFor(0, rows, grain, build_rows);
  } else {
    build_rows(0, rows);
  }
}

template <typename T>
void RelativePrefixSum<T>::FillOverlayBox(const NdArray<T>& prefix,
                                          const OverlayGeometry::BoxRow& row,
                                          const CellIndex& box_index,
                                          T* chunk) const {
  // Stored cells are visited in row-major offset order, so every
  // proper projection of a cell (some positive offsets zeroed) is
  // already computed; by
  //   P[c] - RP[c] = sum over S' subset of S(c) of val(c_{S'}),
  // the new value is P[c] - RP[c] minus the previously computed
  // projections (DESIGN.md, Section 1).
  const OverlayGeometry& geo = geometry();
  const int d = prefix.dims();
  const CellIndex anchor = geo.AnchorOf(box_index);
  const CellIndex extents = geo.ExtentsOf(box_index);
  CellIndex extents_hi = extents;
  for (int j = 0; j < d; ++j) extents_hi[j] = extents[j] - 1;
  const Box offsets_box(CellIndex::Filled(d, 0), extents_hi);
  CellIndex offsets = offsets_box.lo();
  do {
    bool stored = false;
    for (int j = 0; j < d; ++j) {
      if (offsets[j] == 0) {
        stored = true;
        break;
      }
    }
    if (!stored) continue;
    CellIndex cell = anchor;
    for (int j = 0; j < d; ++j) cell[j] = anchor[j] + offsets[j];
    T value = prefix.at(cell) -
              chunk[row.RpIndex(shape().Linearize(cell))];
    // Subtract the values of all proper projections (subsets of the
    // positive-offset dimensions).
    int positive[kMaxDims];
    int num_positive = 0;
    for (int j = 0; j < d; ++j) {
      if (offsets[j] > 0) positive[num_positive++] = j;
    }
    CellIndex proj = CellIndex::Filled(d, 0);
    for (uint32_t mask = 0; mask + 1 < (1u << num_positive); ++mask) {
      for (int j = 0; j < d; ++j) proj[j] = 0;
      for (int i = 0; i < num_positive; ++i) {
        if (mask & (1u << i)) proj[positive[i]] = offsets[positive[i]];
      }
      value -= chunk[row.SlotIndex(geo.SlotOf(box_index, proj))];
    }
    chunk[row.SlotIndex(geo.SlotOf(box_index, offsets))] = value;
  } while (NextIndexInBox(offsets_box, offsets));
}

template <typename T>
T RelativePrefixSum<T>::PrefixSum(const CellIndex& target) const {
  RPS_DCHECK(shape().Contains(target));
  int64_t at[kMaxDims];
  for (int j = 0; j < target.dims(); ++j) at[j] = target[j];
  LookupStats reads;
  const T total =
      shape().dims() == 2 ? PrefixAt<2>(at, &reads) : PrefixAt<0>(at, &reads);
  Publish(reads);
  return total;
}

template <typename T>
template <int kDims>
T RelativePrefixSum<T>::PrefixAt(const int64_t* target,
                                 LookupStats* reads) const {
  const OverlayGeometry& geo = geometry();
  const int64_t r = geo.BoxRowOf(target[0]);
  const OverlayGeometry::BoxRow& row = geo.box_row(r);
  const T* chunk = store_.cells(r);
  const int64_t shift = row.rp_cells - row.slot_begin;
  T borders{};
  const OverlayGeometry::CornerCells cells =
      geo.template Corner<kDims>(target, [&](int64_t slot) {
        borders += chunk[slot + shift];
        ++reads->overlay_reads;
      });
  ++reads->overlay_reads;
  ++reads->rp_reads;
  return (chunk[cells.anchor_slot + shift] +
          chunk[cells.rp_cell - row.rp_begin]) +
         borders;
}

template <typename T>
template <int kDims>
T RelativePrefixSum<T>::SumOf(const Box& range, LookupStats* reads) const {
  const int d = kDims > 0 ? kDims : shape().dims();
  T total{};
  int64_t corner[kMaxDims];
  for (uint32_t mask = 0; mask < (1u << d); ++mask) {
    bool skip = false;
    int low_picks = 0;
    for (int j = 0; j < d; ++j) {
      if (mask & (1u << j)) {
        ++low_picks;
        if (range.lo()[j] == 0) {
          skip = true;  // empty prefix below index 0
          break;
        }
        corner[j] = range.lo()[j] - 1;
      } else {
        corner[j] = range.hi()[j];
      }
    }
    if (skip) continue;
    if (low_picks % 2 == 0) {
      total += PrefixAt<kDims>(corner, reads);
    } else {
      total -= PrefixAt<kDims>(corner, reads);
    }
  }
  return total;
}

template <typename T>
T RelativePrefixSum<T>::RangeSum(const Box& range) const {
  // Structure-level operation count; composite structures
  // (HierarchicalRps faces) show up here too.
  static obs::Counter& queries =
      obs::MetricRegistry::Global().GetCounter("rps_core_rps_queries_total");
  queries.Increment();
  // Tree node for slow-query capture: one thread-local load when no
  // collector is active, so the always-on cost stays flat.
  obs::CollectorSpan span("core.rps.range_sum");
  RPS_CHECK(range.Within(shape()));
  LookupStats reads;
  const T total = SumOf(range, &reads);
  Publish(reads);
  return total;
}

template <typename T>
void RelativePrefixSum<T>::RangeSumBatch(std::span<const Box> ranges,
                                         std::span<T> results) const {
  RPS_CHECK(ranges.size() == results.size());
  const int64_t n = static_cast<int64_t>(ranges.size());
  if (n == 0) return;
  static obs::Counter& queries =
      obs::MetricRegistry::Global().GetCounter("rps_core_rps_queries_total");
  queries.Increment(n);
  obs::CollectorSpan span("core.rps.range_sum_batch");

  // Chunks write disjoint results, so they run concurrently.
  const auto sum_chunk = [&](int64_t lo, int64_t hi) {
    LookupStats reads;
    for (int64_t q = lo; q < hi; ++q) {
      const Box& range = ranges[static_cast<size_t>(q)];
      RPS_CHECK(range.Within(shape()));
      results[static_cast<size_t>(q)] = SumOf(range, &reads);
    }
    Publish(reads);
  };
  // Estimated cell reads: 2^d corners with roughly 2^d reads each.
  const int shift = std::min(2 * shape().dims(), 20);
  if (pool_ != nullptr && (n << shift) >= policy_.min_parallel_cells) {
    const int64_t grain =
        std::max<int64_t>(1, policy_.min_parallel_cells >> shift);
    pool_->ParallelFor(0, n, grain, sum_chunk);
  } else {
    sum_chunk(0, n);
  }
}

template <typename T>
NdArray<T> RelativePrefixSum<T>::MaterializeRp() const {
  NdArray<T> rp(shape());
  for (int64_t r = 0; r < geometry().num_box_rows(); ++r) {
    const OverlayGeometry::BoxRow& row = geometry().box_row(r);
    std::copy_n(store_.cells(r), row.rp_cells, rp.data() + row.rp_begin);
  }
  return rp;
}

template <typename T>
std::vector<T> RelativePrefixSum<T>::MaterializeOverlay() const {
  std::vector<T> overlay(static_cast<size_t>(geometry().total_stored_cells()));
  for (int64_t r = 0; r < geometry().num_box_rows(); ++r) {
    const OverlayGeometry::BoxRow& row = geometry().box_row(r);
    std::copy_n(store_.cells(r) + row.rp_cells, row.slots,
                overlay.data() + row.slot_begin);
  }
  return overlay;
}

template <typename T>
T RelativePrefixSum<T>::ValueAt(const CellIndex& cell) const {
  const OverlayGeometry& geo = geometry();
  const Shape& shape = this->shape();
  RPS_DCHECK(shape.Contains(cell));
  // Every cell read lies in the cell's box, so in its box-row chunk.
  const int64_t r = geo.BoxRowOf(cell[0]);
  const OverlayGeometry::BoxRow& row = geo.box_row(r);
  const T* chunk = store_.cells(r);
  // Box-local differencing: A[u] = sum over subsets V of
  // {j : u_j > a_j} of (-1)^|V| RP[u - 1_V], by linear index.
  int64_t linear = 0;
  int64_t step[kMaxDims];  // row-major strides of the dimensions above
  int num_above = 0;
  for (int j = 0; j < shape.dims(); ++j) {
    linear = linear * shape.extent(j) + cell[j];
    for (int i = 0; i < num_above; ++i) step[i] *= shape.extent(j);
    if (geo.OffsetOf(j, cell[j]) > 0) step[num_above++] = 1;
  }
  T total{};
  for (uint32_t mask = 0; mask < (1u << num_above); ++mask) {
    int64_t probe = linear;
    for (int i = 0; i < num_above; ++i) {
      if (mask & (1u << i)) probe -= step[i];
    }
    if (__builtin_popcount(mask) % 2 == 0) {
      total += chunk[row.RpIndex(probe)];
    } else {
      total -= chunk[row.RpIndex(probe)];
    }
  }
  return total;
}

template <typename T>
UpdateStats RelativePrefixSum<T>::Add(const CellIndex& cell, T delta) {
  obs::CollectorSpan span("core.rps.add");
  RPS_CHECK(shape().Contains(cell));
  // The RP tail of the covering box (cascading stops at the box
  // boundary -- Section 4.2) and every dominating box's affected
  // overlay cells (Figure 14).
  const UpdateStats stats = ScatterAdd(cell, delta);
  static obs::Counter& updates =
      obs::MetricRegistry::Global().GetCounter("rps_core_rps_updates_total");
  static obs::Counter& cells = obs::MetricRegistry::Global().GetCounter(
      "rps_core_rps_update_cells_total");
  updates.Increment();
  cells.Increment(stats.total());
  span.SetCells(stats.primary_cells, stats.aux_cells);
  return stats;
}

template <typename T>
template <int kDims>
UpdateStats RelativePrefixSum<T>::ScatterAdd(const int64_t* cell, T delta) {
  const OverlayGeometry& geo = geometry();
  UpdateStats stats;
  // The scatter reaches box rows in increasing order: the covering
  // box's RP tail first, then the dominating boxes in grid-linear
  // order, in every box row from the covering one on. Each chunk is
  // made private when the first write lands in it.
  int64_t r = geo.BoxRowOf(cell[0]);
  const OverlayGeometry::BoxRow& tail_row = geo.box_row(r);
  T* chunk = store_.MutableCells(r);
  T* const tail = chunk;  // every RP run lies in the covering box row
  // Slots below slot_end sit at chunk[slot + shift]. This cursor and
  // the callbacks that use it are forced inline, as Scatter is, so it
  // stays in registers.
  int64_t slot_end = tail_row.slot_begin + tail_row.slots;
  int64_t shift = tail_row.rp_cells - tail_row.slot_begin;
  const auto slot_cell = [&](int64_t slot) __attribute__((always_inline)) {
    if (slot >= slot_end) [[unlikely]] {
      const OverlayGeometry::BoxRow* row;
      do {
        row = &geo.box_row(++r);
      } while (slot >= row->slot_begin + row->slots);
      chunk = store_.MutableCells(r);
      slot_end = row->slot_begin + row->slots;
      shift = row->rp_cells - row->slot_begin;
    }
    return chunk + (slot + shift);
  };
  geo.template Scatter<kDims>(
      cell,
      [&](int64_t start, int64_t len) {
        RPS_DCHECK(start >= tail_row.rp_begin &&
                   start + len <= tail_row.rp_begin + tail_row.rp_cells);
        AddToRow(tail + tail_row.RpIndex(start), len, delta);
        stats.primary_cells += len;
      },
      [&](int64_t slot, int64_t len) __attribute__((always_inline)) {
        RPS_DCHECK(slot + len <= geo.total_stored_cells());
        AddToRow(slot_cell(slot), len, delta);
        stats.aux_cells += len;
      },
      [&](int64_t box, int64_t count) {
        for (int64_t i = 0; i < count; ++i) {
          *slot_cell(geo.AnchorSlotOfLinear(box + i)) += delta;
        }
        stats.aux_cells += count;
      });
  return stats;
}

template <typename T>
Status RelativePrefixSum<T>::CheckInvariants(
    const AuditOptions& options) const {
  const OverlayGeometry& geo = geometry();
  const Shape& shape = this->shape();
  const int d = shape.dims();

  // Structural checks first: everything below indexes through these.
  RPS_RETURN_IF_ERROR(geo.CheckInvariants());
  if (store_.num_rows() != geo.num_box_rows()) {
    return Status::Internal("chunk count disagrees with the box rows");
  }
  for (int64_t r = 0; r < geo.num_box_rows(); ++r) {
    if (store_.row_cells(r) != geo.box_row(r).cells()) {
      return Status::Internal("chunk of box row " + std::to_string(r) +
                              " disagrees with the geometry's size");
    }
  }
  const NdArray<T> rp = MaterializeRp();
  const std::vector<T> overlay = MaterializeOverlay();

  // Recover the implied source array A (box-local differencing of RP)
  // and its full prefix array P. Both are exact inverses of the build
  // transforms, so any corruption of RP or the overlay shows up as a
  // disagreement between a stored cell and its re-derivation below.
  const int64_t num_cells = shape.num_cells();
  NdArray<T> source(shape);
  {
    CellIndex cell = CellIndex::Filled(d, 0);
    do {
      source.at(cell) = ValueAt(cell);
    } while (NextIndex(shape, cell));
  }
  NdArray<T> prefix = source;
  PrefixSumInPlace(prefix);

  Rng rng(options.seed);

  // RP cells: RP[t] must be the box-local prefix sum SUM(A[a..t]).
  // A sample budget covering the population degrades to an exhaustive
  // (and deterministic) sweep; the same rule applies below.
  auto audit_rp_cell = [&](const CellIndex& t) -> Status {
    const CellIndex anchor = geo.AnchorOf(geo.BoxIndexOf(t));
    const T expected = SumFromPrefixArray(prefix, Box(anchor, t));
    if (!internal_audit::CellsEqual(rp.at(t), expected)) {
      return Status::Internal(
          "RP cell " + t.ToString() +
          " disagrees with the box-local sum of the recovered source");
    }
    return Status::Ok();
  };
  if (options.rp_samples >= num_cells) {
    CellIndex t = CellIndex::Filled(d, 0);
    do {
      RPS_RETURN_IF_ERROR(audit_rp_cell(t));
    } while (NextIndex(shape, t));
  } else {
    for (int64_t s = 0; s < options.rp_samples; ++s) {
      RPS_RETURN_IF_ERROR(audit_rp_cell(
          shape.Delinearize(rng.UniformInt(0, num_cells - 1))));
    }
  }

  // Overlay stored cells: re-derive val(c) purely from P and RP using
  // the triangular recursion
  //   val(c) = P[c] - RP[c] - SUM over proper projections of val,
  // computing every projection's value locally instead of trusting
  // stored neighbors.
  auto audit_overlay_cell = [&](const CellIndex& box_index,
                                const CellIndex& offsets) -> Status {
    const CellIndex anchor = geo.AnchorOf(box_index);
    int positive[kMaxDims];
    int num_positive = 0;
    for (int j = 0; j < d; ++j) {
      if (offsets[j] > 0) positive[num_positive++] = j;
    }
    // expected[mask] = val of the projection keeping the offsets of
    // the dimensions selected by `mask`, zeroing the rest.
    std::vector<T> expected(size_t{1} << num_positive);
    CellIndex proj = anchor;
    for (uint32_t mask = 0; mask < (1u << num_positive); ++mask) {
      for (int j = 0; j < d; ++j) proj[j] = anchor[j];
      for (int i = 0; i < num_positive; ++i) {
        if (mask & (1u << i)) {
          proj[positive[i]] = anchor[positive[i]] + offsets[positive[i]];
        }
      }
      T value = prefix.at(proj) - rp.at(proj);
      for (uint32_t sub = 0; sub < mask; ++sub) {
        if ((sub & mask) == sub) value -= expected[sub];
      }
      expected[mask] = value;
    }
    const uint32_t full_mask = (1u << num_positive) - 1;
    if (!internal_audit::CellsEqual(overlay[geo.SlotOf(box_index, offsets)],
                                    expected[full_mask])) {
      return Status::Internal(
          "overlay value at offsets " + offsets.ToString() + " of box " +
          box_index.ToString() + " disagrees with its defining region sum");
    }
    return Status::Ok();
  };
  if (options.overlay_samples >= geo.total_stored_cells()) {
    // Exhaustive: every stored cell of every box.
    CellIndex box_index = CellIndex::Filled(d, 0);
    const int64_t num_boxes = geo.num_boxes();
    for (int64_t b = 0; b < num_boxes; ++b) {
      const CellIndex extents = geo.ExtentsOf(box_index);
      std::vector<int64_t> e(static_cast<size_t>(d));
      for (int j = 0; j < d; ++j) e[static_cast<size_t>(j)] = extents[j];
      const Shape box_shape = Shape::FromExtents(e);
      CellIndex offsets = CellIndex::Filled(d, 0);
      do {
        bool stored = false;
        for (int j = 0; j < d; ++j) {
          if (offsets[j] == 0) {
            stored = true;
            break;
          }
        }
        if (!stored) continue;
        RPS_RETURN_IF_ERROR(audit_overlay_cell(box_index, offsets));
      } while (NextIndex(box_shape, offsets));
      NextIndex(geo.grid_shape(), box_index);
    }
  } else {
    for (int64_t s = 0; s < options.overlay_samples; ++s) {
      const CellIndex probe =
          shape.Delinearize(rng.UniformInt(0, num_cells - 1));
      const CellIndex box_index = geo.BoxIndexOf(probe);
      const CellIndex anchor = geo.AnchorOf(box_index);
      // Force at least one zero offset so the probe is a stored cell.
      CellIndex offsets = CellIndex::Filled(d, 0);
      for (int j = 0; j < d; ++j) offsets[j] = probe[j] - anchor[j];
      offsets[static_cast<int>(rng.UniformInt(0, d - 1))] = 0;
      RPS_RETURN_IF_ERROR(audit_overlay_cell(box_index, offsets));
    }
  }

  // End-to-end prefix assembly: anchor + borders + RP jointly.
  auto audit_prefix_cell = [&](const CellIndex& t) -> Status {
    if (!internal_audit::CellsEqual(PrefixSum(t), prefix.at(t))) {
      return Status::Internal(
          "assembled prefix sum at " + t.ToString() +
          " disagrees with the recovered prefix array");
    }
    return Status::Ok();
  };
  if (options.prefix_samples >= num_cells) {
    CellIndex t = CellIndex::Filled(d, 0);
    do {
      RPS_RETURN_IF_ERROR(audit_prefix_cell(t));
    } while (NextIndex(shape, t));
  } else {
    for (int64_t s = 0; s < options.prefix_samples; ++s) {
      RPS_RETURN_IF_ERROR(audit_prefix_cell(
          shape.Delinearize(rng.UniformInt(0, num_cells - 1))));
    }
  }
  return Status::Ok();
}

template <typename T>
UpdateStats RelativePrefixSum<T>::AddBatch(std::span<const CellDelta> deltas) {
  // One record writes what Add writes; Add skips the batch set-up
  // (134 against 750 ns on a 256x1024 structure).
  if (deltas.size() == 1) return Add(deltas[0].cell, deltas[0].delta);
  obs::CollectorSpan span("core.rps.add_batch");
  // ScatterBatch checks every cell against the shape.
  const auto chunk_of = [this](int64_t r) { return store_.MutableCells(r); };
  const UpdateStats stats =
      shape().dims() == 2
          ? geometry().template ScatterBatch<2>(deltas, chunk_of)
          : geometry().template ScatterBatch<0>(deltas, chunk_of);
  static obs::Counter& updates =
      obs::MetricRegistry::Global().GetCounter("rps_core_rps_updates_total");
  static obs::Counter& cells = obs::MetricRegistry::Global().GetCounter(
      "rps_core_rps_update_cells_total");
  updates.Increment(static_cast<int64_t>(deltas.size()));
  cells.Increment(stats.total());
  span.SetCells(stats.primary_cells, stats.aux_cells);
  return stats;
}

}  // namespace rps

#endif  // RPS_CORE_RELATIVE_PREFIX_SUM_H_
