// Two-level hierarchical relative prefix sums.
//
// The paper closes by noting the method "reduces the overall
// complexity of the range sum problem"; its authors' follow-up work
// (the Dynamic Data Cube) pushes the idea further by composing the
// structure with itself. This extension implements one such
// composition. Partition the cube into boxes of side k_j, as in the
// flat structure, and decompose any prefix region by classifying each
// dimension as "earlier slices" ([0, a_j-1], whole boxes) or "own
// slice" ([a_j, t_j], cells):
//
//   P[t] = sum over S subseteq D of W_S(t),
//   W_S(t) = SUM( prod_{j in S} [a_j..t_j] x prod_{j notin S} [0..a_j-1] )
//
// * W_D is the box-local RP cell (same RP array as the flat method);
// * W_{} is a prefix over the coarse cube of box totals -- maintained
//   as an inner RelativePrefixSum over the (n/k)^d grid;
// * each intermediate W_S is a range over the "face cube" F_S, which
//   aggregates A at cell granularity in the S dimensions and box
//   granularity elsewhere -- each maintained as its own inner
//   RelativePrefixSum.
//
// A point update touches its RP box tail, one cell of the coarse cube
// and one cell of each face cube -- each an inner-RPS point update of
// cost O(sqrt(inner size)) -- so the flat method's (n/k)^d interior-
// anchor bill becomes ~(n/k)^(d/2), and the total worst case drops
// below O(n^(d/2)) (minimized near k = n^(d/(2d+1))). Queries stay
// O(1): one RP read, one coarse prefix and 2^d - 2 face range sums,
// each itself O(1).

#ifndef RPS_CORE_HIERARCHICAL_RPS_H_
#define RPS_CORE_HIERARCHICAL_RPS_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/relative_prefix_sum.h"

namespace rps {

/// Box sides minimizing the hierarchical worst case:
/// k_j ~ n_j^(d/(2d+1)), clamped to [1, n_j].
CellIndex RecommendedHierarchicalBoxSize(const Shape& shape);

template <typename T>
class HierarchicalRps final : public QueryMethod<T> {
 public:
  /// `pool` (borrowed, must outlive the structure; may be null for
  /// strictly serial execution) parallelizes the RP scan and the
  /// coarse/face aggregation of large builds.
  explicit HierarchicalRps(const NdArray<T>& source,
                           ThreadPool* pool = &ThreadPool::Global())
      : HierarchicalRps(source, RecommendedHierarchicalBoxSize(source.shape()),
                        pool) {}

  HierarchicalRps(const NdArray<T>& source, const CellIndex& box_size,
                  ThreadPool* pool = &ThreadPool::Global())
      : shape_(source.shape()),
        box_size_(box_size),
        grid_shape_(MakeGridShape(source.shape(), box_size)),
        rp_(source.shape()),
        pool_(pool) {
    BuildFrom(source);
  }

  std::string name() const override { return "hierarchical_rps"; }

  void Build(const NdArray<T>& source) override {
    RPS_CHECK(source.shape() == shape_);
    BuildFrom(source);
  }

  const Shape& shape() const override { return shape_; }
  const CellIndex& box_size() const { return box_size_; }
  const Shape& grid_shape() const { return grid_shape_; }

  /// Component access for tests and invariant audits; FromParts is
  /// the inverse.
  const NdArray<T>& rp_array() const { return rp_; }
  const RelativePrefixSum<T>& coarse() const { return *coarse_; }
  /// Inner structure for dimension-subset `mask` (1 <= mask <
  /// 2^d - 1).
  const RelativePrefixSum<T>& face(uint32_t mask) const {
    RPS_CHECK(mask >= 1 && mask < ((1u << shape_.dims()) - 1));
    return *faces_[static_cast<size_t>(mask)];
  }

  /// Reassembles a structure from previously extracted contents (the
  /// inverse of the component accessors). Inner structures must match
  /// the geometry this shape/box_size implies.
  static Result<HierarchicalRps> FromParts(
      const Shape& shape, const CellIndex& box_size, NdArray<T> rp,
      RelativePrefixSum<T> coarse,
      std::vector<std::unique_ptr<RelativePrefixSum<T>>> faces,
      ThreadPool* pool = &ThreadPool::Global()) {
    HierarchicalRps parts(shape, box_size, PartsTag{}, pool);
    if (!(rp.shape() == shape)) {
      return Status::InvalidArgument("RP shape mismatch");
    }
    if (!(coarse.shape() == parts.grid_shape_)) {
      return Status::InvalidArgument("coarse shape mismatch");
    }
    const uint32_t full = (1u << shape.dims()) - 1;
    if (faces.size() != static_cast<size_t>(full)) {
      return Status::InvalidArgument("face count mismatch");
    }
    for (uint32_t mask = 1; mask < full; ++mask) {
      if (faces[static_cast<size_t>(mask)] == nullptr) {
        return Status::InvalidArgument("missing face structure");
      }
      const Shape expected = parts.FaceShape(mask);
      if (!(faces[static_cast<size_t>(mask)]->shape() == expected)) {
        return Status::InvalidArgument("face shape mismatch");
      }
    }
    parts.rp_ = std::move(rp);
    parts.coarse_ =
        std::make_unique<RelativePrefixSum<T>>(std::move(coarse));
    parts.faces_ = std::move(faces);
    return parts;
  }

  /// The pool used by Build (null means strictly serial). Borrowed;
  /// callers keep ownership. Inner structures carry their own pool.
  ThreadPool* thread_pool() const { return pool_; }
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Parallelism knobs; tests lower min_parallel_cells to force the
  /// parallel paths on small cubes.
  const ParallelPolicy& parallel_policy() const { return policy_; }
  void set_parallel_policy(const ParallelPolicy& policy) { policy_ = policy; }

  /// Shape of the face cube for `mask` (cell-granular in set bits;
  /// mask 0 gives the coarse grid shape).
  Shape FaceShape(uint32_t mask) const {
    std::vector<int64_t> extents;
    for (int j = 0; j < shape_.dims(); ++j) {
      extents.push_back((mask & (1u << j)) ? shape_.extent(j)
                                           : grid_shape_.extent(j));
    }
    return Shape::FromExtents(extents);
  }

  /// P[t] assembled from the RP cell, the coarse prefix and one range
  /// per face cube. O(1) lookups for fixed d.
  T PrefixSum(const CellIndex& target) const {
    const int d = shape_.dims();
    RPS_DCHECK(shape_.Contains(target));
    CellIndex box_index = CellIndex::Filled(d, 0);
    CellIndex anchor = CellIndex::Filled(d, 0);
    for (int j = 0; j < d; ++j) {
      box_index[j] = target[j] / box_size_[j];
      anchor[j] = box_index[j] * box_size_[j];
    }

    T total = rp_.at(target);  // W_D

    // W_{}: whole earlier boxes, via the coarse structure.
    {
      bool nonempty = true;
      CellIndex coarse_corner = box_index;
      for (int j = 0; j < d; ++j) {
        if (box_index[j] == 0) {
          nonempty = false;
          break;
        }
        coarse_corner[j] = box_index[j] - 1;
      }
      if (nonempty) total += coarse_->PrefixSum(coarse_corner);
    }

    // Intermediate subsets via face cubes.
    const uint32_t full = (1u << d) - 1;
    for (uint32_t mask = 1; mask < full; ++mask) {
      const RelativePrefixSum<T>* face =
          faces_[static_cast<size_t>(mask)].get();
      CellIndex lo = CellIndex::Filled(d, 0);
      CellIndex hi = CellIndex::Filled(d, 0);
      bool empty = false;
      for (int j = 0; j < d; ++j) {
        if (mask & (1u << j)) {  // cell granularity, own slice
          lo[j] = anchor[j];
          hi[j] = target[j];
        } else {  // box granularity, earlier boxes
          if (box_index[j] == 0) {
            empty = true;
            break;
          }
          lo[j] = 0;
          hi[j] = box_index[j] - 1;
        }
      }
      if (empty) continue;
      total += face->RangeSum(Box(lo, hi));
    }
    return total;
  }

  T RangeSum(const Box& range) const override {
    // Top-level hierarchical queries; the face/coarse range sums this
    // fans out to count separately under rps_core_rps_queries_total.
    static obs::Counter& queries = obs::MetricRegistry::Global().GetCounter(
        "rps_core_hier_queries_total");
    queries.Increment();
    const int d = shape_.dims();
    RPS_CHECK(range.Within(shape_));
    T total{};
    CellIndex corner = CellIndex::Filled(d, 0);
    for (uint32_t mask = 0; mask < (1u << d); ++mask) {
      bool skip = false;
      int low_picks = 0;
      for (int j = 0; j < d; ++j) {
        if (mask & (1u << j)) {
          ++low_picks;
          if (range.lo()[j] == 0) {
            skip = true;
            break;
          }
          corner[j] = range.lo()[j] - 1;
        } else {
          corner[j] = range.hi()[j];
        }
      }
      if (skip) continue;
      if (low_picks % 2 == 0) {
        total += PrefixSum(corner);
      } else {
        total -= PrefixSum(corner);
      }
    }
    return total;
  }

  /// Batched range sums: queries expand to signed prefix-sum targets,
  /// sorted and deduplicated so every distinct target runs its (2^d
  /// inner structures) assembly exactly once -- adjacent or repeated
  /// queries share whole assemblies. Large batches run chunks of
  /// queries on the pool with size-only chunk boundaries, so results
  /// are deterministic (bit-exact for integral T).
  void RangeSumBatch(std::span<const Box> ranges,
                     std::span<T> results) const override {
    RPS_CHECK(ranges.size() == results.size());
    const int64_t n = static_cast<int64_t>(ranges.size());
    if (n == 0) return;
    static obs::Counter& queries = obs::MetricRegistry::Global().GetCounter(
        "rps_core_hier_queries_total");
    queries.Increment(n);
    const int d = shape_.dims();
    const int shift = std::min(2 * d, 20);
    if (pool_ != nullptr && (n << shift) >= policy_.min_parallel_cells) {
      const int64_t grain =
          std::max<int64_t>(1, policy_.min_parallel_cells >> shift);
      pool_->ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
        EvalBatchChunk(ranges, results, lo, hi);
      });
    } else {
      EvalBatchChunk(ranges, results, 0, n);
    }
  }

  UpdateStats Add(const CellIndex& cell, T delta) override {
    const int d = shape_.dims();
    RPS_CHECK(shape_.Contains(cell));
    UpdateStats stats;
    CellIndex box_index = CellIndex::Filled(d, 0);
    CellIndex box_hi = CellIndex::Filled(d, 0);
    for (int j = 0; j < d; ++j) {
      box_index[j] = cell[j] / box_size_[j];
      const int64_t anchor = box_index[j] * box_size_[j];
      box_hi[j] =
          std::min(anchor + box_size_[j], shape_.extent(j)) - 1;
    }
    // RP tail of the covering box, one row kernel per row.
    {
      const Box affected(cell, box_hi);
      const int64_t row_len = affected.Extent(d - 1);
      ForEachRowStart(affected, [&](const CellIndex& row) {
        AddToRow(rp_.row_span(row, row_len), row_len, delta);
      });
      stats.primary_cells += affected.NumCells();
    }
    // Coarse cube: one inner point update.
    {
      const UpdateStats inner = coarse_->Add(box_index, delta);
      stats.aux_cells += inner.total();
    }
    // One point update per face cube.
    const uint32_t full = (1u << d) - 1;
    CellIndex face_cell = CellIndex::Filled(d, 0);
    for (uint32_t mask = 1; mask < full; ++mask) {
      for (int j = 0; j < d; ++j) {
        face_cell[j] = (mask & (1u << j)) ? cell[j] : box_index[j];
      }
      const UpdateStats inner =
          faces_[static_cast<size_t>(mask)]->Add(face_cell, delta);
      stats.aux_cells += inner.total();
    }
    static obs::Counter& updates = obs::MetricRegistry::Global().GetCounter(
        "rps_core_hier_updates_total");
    static obs::Counter& cells = obs::MetricRegistry::Global().GetCounter(
        "rps_core_hier_update_cells_total");
    updates.Increment();
    cells.Increment(stats.total());
    return stats;
  }

  UpdateStats Set(const CellIndex& cell, T value) override {
    return Add(cell, value - ValueAt(cell));
  }

  T ValueAt(const CellIndex& cell) const override {
    // Box-local differencing on RP, as in the flat structure.
    const int d = shape_.dims();
    RPS_DCHECK(shape_.Contains(cell));
    int above[kMaxDims];
    int num_above = 0;
    for (int j = 0; j < d; ++j) {
      if (cell[j] % box_size_[j] != 0) above[num_above++] = j;
    }
    T total{};
    CellIndex probe = cell;
    for (uint32_t mask = 0; mask < (1u << num_above); ++mask) {
      for (int i = 0; i < num_above; ++i) {
        const int j = above[i];
        probe[j] = (mask & (1u << i)) ? cell[j] - 1 : cell[j];
      }
      if (__builtin_popcount(mask) % 2 == 0) {
        total += rp_.at(probe);
      } else {
        total -= rp_.at(probe);
      }
    }
    return total;
  }

  /// The flat members copy directly and the inner structures (which
  /// share their box-row chunks) reassemble through FromParts, which
  /// revalidates the geometry.
  std::unique_ptr<QueryMethod<T>> Clone() const override {
    std::vector<std::unique_ptr<RelativePrefixSum<T>>> faces;
    faces.resize(faces_.size());
    for (size_t i = 0; i < faces_.size(); ++i) {
      if (faces_[i] != nullptr) {
        faces[i] = std::make_unique<RelativePrefixSum<T>>(*faces_[i]);
      }
    }
    Result<HierarchicalRps<T>> copy = FromParts(
        shape_, box_size_, rp_, *coarse_, std::move(faces), pool_);
    RPS_CHECK_MSG(copy.ok(), "HierarchicalRps::Clone: FromParts rejected"
                             " the structure's own parts");
    auto clone =
        std::make_unique<HierarchicalRps<T>>(std::move(copy.value()));
    clone->set_parallel_policy(policy_);
    return clone;
  }

  /// The RP array is copied whole; the inner structures share chunks.
  int64_t UnsharedCells() const override {
    int64_t cells = rp_.num_cells() + coarse_->UnsharedCells();
    for (const auto& face : faces_) {
      if (face != nullptr) cells += face->UnsharedCells();
    }
    return cells;
  }

  MemoryStats Memory() const override {
    MemoryStats memory{rp_.num_cells(), 0};
    const MemoryStats coarse_memory = coarse_->Memory();
    memory.aux_cells += coarse_memory.total();
    for (const auto& face : faces_) {
      if (face != nullptr) memory.aux_cells += face->Memory().total();
    }
    return memory;
  }

  /// Self-audit from first principles, mirroring
  /// RelativePrefixSum::CheckInvariants: recovers the implied source
  /// A from the RP array, re-aggregates the coarse cube of box totals
  /// and every face cube from A, compares sampled cells of each inner
  /// structure against that re-aggregation, runs each inner
  /// structure's own audit, and checks sampled end-to-end prefix
  /// assemblies against A's prefix array. O(2^d * N) time.
  Status CheckInvariants(const AuditOptions& options = AuditOptions{}) const {
    const int d = shape_.dims();
    const uint32_t full = (1u << d) - 1;

    // Structural checks.
    if (coarse_ == nullptr) {
      return Status::Internal("hierarchical coarse structure is missing");
    }
    if (!(coarse_->shape() == grid_shape_)) {
      return Status::Internal("coarse structure shape disagrees with grid");
    }
    if (faces_.size() != static_cast<size_t>(full)) {
      return Status::Internal("face structure count disagrees with 2^d - 1");
    }
    for (uint32_t mask = 1; mask < full; ++mask) {
      const auto& face = faces_[static_cast<size_t>(mask)];
      if (face == nullptr) {
        return Status::Internal("face structure " + std::to_string(mask) +
                                " is missing");
      }
      if (!(face->shape() == FaceShape(mask))) {
        return Status::Internal("face structure " + std::to_string(mask) +
                                " has the wrong shape");
      }
    }

    // Recover A and re-aggregate the coarse and face cubes from it.
    NdArray<T> source(shape_);
    NdArray<T> coarse_cells(grid_shape_, T{});
    std::vector<NdArray<T>> face_cells(static_cast<size_t>(full));
    for (uint32_t mask = 1; mask < full; ++mask) {
      face_cells[static_cast<size_t>(mask)] = NdArray<T>(FaceShape(mask), T{});
    }
    {
      CellIndex cell = CellIndex::Filled(d, 0);
      CellIndex coarse_index = CellIndex::Filled(d, 0);
      CellIndex face_index = CellIndex::Filled(d, 0);
      do {
        const T value = ValueAt(cell);
        source.at(cell) = value;
        for (int j = 0; j < d; ++j) coarse_index[j] = cell[j] / box_size_[j];
        coarse_cells.at(coarse_index) += value;
        for (uint32_t mask = 1; mask < full; ++mask) {
          for (int j = 0; j < d; ++j) {
            face_index[j] = (mask & (1u << j)) ? cell[j] : coarse_index[j];
          }
          face_cells[static_cast<size_t>(mask)].at(face_index) += value;
        }
      } while (NextIndex(shape_, cell));
    }

    Rng rng(options.seed);

    // Coarse cube: sampled cells must hold their box totals.
    {
      const int64_t cells = grid_shape_.num_cells();
      const int64_t samples = std::min(options.rp_samples, cells);
      for (int64_t s = 0; s < samples; ++s) {
        const CellIndex g =
            grid_shape_.Delinearize(rng.UniformInt(0, cells - 1));
        if (!internal_audit::CellsEqual(coarse_->ValueAt(g),
                                        coarse_cells.at(g))) {
          return Status::Internal("coarse cell " + g.ToString() +
                                  " disagrees with its box total");
        }
      }
      RPS_RETURN_IF_ERROR(coarse_->CheckInvariants(options));
    }

    // Face cubes: sampled cells must hold their partial aggregates.
    for (uint32_t mask = 1; mask < full; ++mask) {
      const RelativePrefixSum<T>& face = *faces_[static_cast<size_t>(mask)];
      const NdArray<T>& expected = face_cells[static_cast<size_t>(mask)];
      const int64_t cells = expected.shape().num_cells();
      const int64_t samples = std::min(options.rp_samples, cells);
      for (int64_t s = 0; s < samples; ++s) {
        const CellIndex f =
            expected.shape().Delinearize(rng.UniformInt(0, cells - 1));
        if (!internal_audit::CellsEqual(face.ValueAt(f), expected.at(f))) {
          return Status::Internal("face " + std::to_string(mask) + " cell " +
                                  f.ToString() +
                                  " disagrees with its re-aggregation");
        }
      }
      RPS_RETURN_IF_ERROR(face.CheckInvariants(options));
    }

    // End-to-end: sampled prefix assemblies against A's prefix array.
    NdArray<T> prefix = source;
    PrefixSumInPlace(prefix);
    const int64_t num_cells = shape_.num_cells();
    const int64_t samples = std::min(options.prefix_samples, num_cells);
    for (int64_t s = 0; s < samples; ++s) {
      const CellIndex t =
          shape_.Delinearize(rng.UniformInt(0, num_cells - 1));
      if (!internal_audit::CellsEqual(PrefixSum(t), prefix.at(t))) {
        return Status::Internal(
            "hierarchical prefix assembly at " + t.ToString() +
            " disagrees with the recovered prefix array");
      }
    }
    return Status::Ok();
  }

 private:
  struct PartsTag {};
  HierarchicalRps(const Shape& shape, const CellIndex& box_size, PartsTag,
                  ThreadPool* pool)
      : shape_(shape),
        box_size_(box_size),
        grid_shape_(MakeGridShape(shape, box_size)),
        rp_(shape),
        pool_(pool) {}

  // One signed prefix-sum target of a batched query. The target's
  // CellIndex lives in a side vector (referenced by `corner`) so the
  // walk never pays Delinearize's per-dimension division.
  struct PrefixJob {
    int64_t cell_linear;  // target, cube-linearized (sort key)
    int32_t corner;       // index into the chunk's corner-cell vector
    int32_t query;        // index into ranges/results
    int8_t sign;          // +1 or -1 (inclusion-exclusion parity)
  };

  // Evaluates queries [lo, hi) of a batch into results (disjoint
  // writes per chunk, safe to run concurrently on disjoint ranges).
  void EvalBatchChunk(std::span<const Box> ranges, std::span<T> results,
                      int64_t lo, int64_t hi) const {
    const int d = shape_.dims();
    std::vector<PrefixJob> jobs;
    std::vector<CellIndex> corners;
    jobs.reserve(static_cast<size_t>(hi - lo) << d);
    corners.reserve(static_cast<size_t>(hi - lo) << d);
    CellIndex corner = CellIndex::Filled(d, 0);
    for (int64_t q = lo; q < hi; ++q) {
      const Box& range = ranges[static_cast<size_t>(q)];
      RPS_CHECK(range.Within(shape_));
      results[static_cast<size_t>(q)] = T{};
      for (uint32_t mask = 0; mask < (1u << d); ++mask) {
        bool skip = false;
        int low_picks = 0;
        for (int j = 0; j < d; ++j) {
          if (mask & (1u << j)) {
            ++low_picks;
            if (range.lo()[j] == 0) {
              skip = true;
              break;
            }
            corner[j] = range.lo()[j] - 1;
          } else {
            corner[j] = range.hi()[j];
          }
        }
        if (skip) continue;
        jobs.push_back(PrefixJob{shape_.Linearize(corner),
                                 static_cast<int32_t>(corners.size()),
                                 static_cast<int32_t>(q),
                                 static_cast<int8_t>(low_picks % 2 ? -1 : 1)});
        corners.push_back(corner);
      }
    }
    std::sort(jobs.begin(), jobs.end(),
              [](const PrefixJob& a, const PrefixJob& b) {
                return a.cell_linear < b.cell_linear;
              });
    // Each distinct target is assembled once; duplicates (shared
    // query corners) reuse the value with their own sign.
    size_t i = 0;
    while (i < jobs.size()) {
      const int64_t cell_linear = jobs[i].cell_linear;
      const T value =
          PrefixSum(corners[static_cast<size_t>(jobs[i].corner)]);
      for (; i < jobs.size() && jobs[i].cell_linear == cell_linear; ++i) {
        T& out = results[static_cast<size_t>(jobs[i].query)];
        if (jobs[i].sign > 0) {
          out += value;
        } else {
          out -= value;
        }
      }
    }
  }

  static Shape MakeGridShape(const Shape& shape, const CellIndex& box_size) {
    RPS_CHECK(box_size.dims() == shape.dims());
    std::vector<int64_t> extents;
    for (int j = 0; j < shape.dims(); ++j) {
      RPS_CHECK_MSG(box_size[j] >= 1 && box_size[j] <= shape.extent(j),
                    "box side must be in [1, extent]");
      extents.push_back(CeilDiv(shape.extent(j), box_size[j]));
    }
    return Shape::FromExtents(extents);
  }

  void BuildFrom(const NdArray<T>& source) {
    const int d = shape_.dims();
    ThreadPool* pool =
        (pool_ != nullptr &&
         shape_.num_cells() >= policy_.min_parallel_cells)
            ? pool_
            : nullptr;

    // RP: prefix sums restarted at box boundaries, one segmented
    // row-kernel pass per dimension.
    rp_ = source;
    for (int dim = 0; dim < d; ++dim) {
      SegmentedPrefixSumAlongDim(rp_, dim, box_size_[dim], pool);
    }

    // Coarse cube of box totals (task 0) and the face cubes (tasks
    // 1 .. 2^d - 2). Each task reads only `source` and builds its own
    // inner structure, so tasks run in parallel; each aggregation is
    // serial within its task, keeping results independent of thread
    // count. Inner builds triggered from pool workers run inline.
    const uint32_t full = (1u << d) - 1;
    faces_.clear();
    faces_.resize(static_cast<size_t>(full));
    auto build_cubes = [&](int64_t task_lo, int64_t task_hi) {
      for (int64_t task = task_lo; task < task_hi; ++task) {
        const uint32_t mask = static_cast<uint32_t>(task);
        NdArray<T> cells = AggregateFace(source, mask);
        auto inner = std::make_unique<RelativePrefixSum<T>>(cells, pool_);
        if (mask == 0) {
          coarse_ = std::move(inner);
        } else {
          faces_[static_cast<size_t>(mask)] = std::move(inner);
        }
      }
    };
    if (pool != nullptr && full > 1) {
      pool->ParallelFor(0, full, 1, build_cubes);
    } else {
      build_cubes(0, full);
    }
  }

  // The cell array of the face cube for `mask` (mask 0 = the coarse
  // cube of box totals): source aggregated at cell granularity in the
  // mask dimensions and box granularity elsewhere. One row-kernel
  // pass over the source: rows either add into an output row
  // (innermost dimension cell-granular) or segment-reduce into one
  // output cell per box (innermost dimension box-granular).
  NdArray<T> AggregateFace(const NdArray<T>& source, uint32_t mask) const {
    const int d = shape_.dims();
    const Shape out_shape = FaceShape(mask);
    NdArray<T> out(out_shape, T{});
    const int64_t n_inner = shape_.extent(d - 1);
    const bool inner_cells = (mask & (1u << (d - 1))) != 0;
    const int64_t k_inner = box_size_[d - 1];
    CellIndex out_index = CellIndex::Filled(d, 0);
    ForEachRowStart(Box::All(shape_), [&](const CellIndex& row) {
      for (int j = 0; j + 1 < d; ++j) {
        out_index[j] =
            (mask & (1u << j)) ? row[j] : row[j] / box_size_[j];
      }
      const T* src = source.row_span(row, n_inner);
      if (inner_cells) {
        AddRowInto(out.row_span(out_index, n_inner), src, n_inner);
      } else {
        T* dst = out.row_span(out_index, out_shape.extent(d - 1));
        for (int64_t seg = 0, s = 0; seg < n_inner; seg += k_inner, ++s) {
          const int64_t seg_len = std::min(k_inner, n_inner - seg);
          dst[s] += ReduceRow(src + seg, seg_len);
        }
      }
    });
    return out;
  }

  Shape shape_;
  CellIndex box_size_;
  Shape grid_shape_;
  NdArray<T> rp_;
  ThreadPool* pool_ = nullptr;
  ParallelPolicy policy_;
  std::unique_ptr<RelativePrefixSum<T>> coarse_;
  // Indexed by dimension-subset mask (bit j set = dimension j at cell
  // granularity); slots 0 and full are unused.
  std::vector<std::unique_ptr<RelativePrefixSum<T>>> faces_;
};

}  // namespace rps

#endif  // RPS_CORE_HIERARCHICAL_RPS_H_
