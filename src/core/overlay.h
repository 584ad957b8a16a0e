// The overlay: partition of the cube into boxes storing anchor and
// border values (paper, Section 3.1).
//
// An overlay box anchored at `a` covers cells with a_j <= x_j <
// a_j + k_j (edge boxes are clipped to the cube). Only the cells of a
// box having at least one coordinate equal to the anchor's are stored
// -- the anchor cell plus the border cells, k^d - (k-1)^d cells per
// box (Figure 6). OverlayGeometry maps (box, in-box offset) to a slot
// in a flat value vector in O(d) with no search, and maps a prefix
// lookup's target to the slots it reads, and an update to the runs of
// cells it writes, with per-dimension tables and no division.
//
// Stored-value semantics (d-dimensional; see DESIGN.md Section 1):
// for overlay cell c of the box anchored at a, with
// S(c) = { j : c_j > a_j },
//   val(c) = SUM{ A[x] : x_j in [a_j+1 .. c_j]      for j in S(c),
//                        x_j <= a_j                  for j not in S(c),
//                        x_j < a_j for at least one j not in S(c) }.
// The anchor cell (S empty) stores P[a] - A[a], the paper's anchor
// value; in two dimensions the border cells store exactly the paper's
// X/Y border values (Figure 8).

#ifndef RPS_CORE_OVERLAY_H_
#define RPS_CORE_OVERLAY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/stats.h"
#include "cube/box.h"
#include "cube/index.h"
#include "cube/row_kernels.h"
#include "util/check.h"
#include "util/status.h"

namespace rps {

namespace internal_overlay {

// Calls visit(offset) for every row of the orthant at or past `from` in
// a grid with extents `ext` whose rows run along dimension n-1, in
// row-major order; offset = sum_{j < n-1} index_j * stride[j]. n <= 1
// is one row.
template <typename VisitFn>
void ForEachOrthantRow(int n, const int64_t* ext, const int64_t* from,
                       const int64_t* stride, VisitFn&& visit) {
  int64_t idx[kMaxDims];
  int64_t offset = 0;
  for (int j = 0; j + 1 < n; ++j) {
    idx[j] = from[j];
    offset += from[j] * stride[j];
  }
  for (;;) {
    visit(offset);
    int j = n - 2;
    for (; j >= 0; --j) {
      if (++idx[j] < ext[j]) {
        offset += stride[j];
        break;
      }
      offset -= (idx[j] - 1 - from[j]) * stride[j];
      idx[j] = from[j];
    }
    if (j < 0) return;
  }
}

// Sums of orthants on small dense grids, the accumulators of
// OverlayGeometry::ScatterBatch: `blocks` independent grids of one
// shape, and Fold(from, delta, block) adds delta to every cell of one
// grid at or past `from` in each dimension. The last dimension runs
// along rows; each row remembers the first cell a fold reached, so the
// rows read back cover exactly the union of the folded orthants. n = 0
// is one cell. Cells are zero again after Clear, so a reshape costs
// only the rows.
template <typename T>
class OrthantSum {
 public:
  void Reshape(int n, const int64_t* ext, int64_t blocks = 1) {
    n_ = n;
    rows_ = 1;
    for (int j = n - 2; j >= 0; --j) {
      ext_[j] = ext[j];
      row_stride_[j] = rows_;
      rows_ *= ext[j];
    }
    len_ = n == 0 ? 1 : ext[n - 1];
    const int64_t cells = blocks * rows_ * len_;
    if (static_cast<int64_t>(cells_.size()) < cells) {
      cells_.resize(static_cast<size_t>(cells), T{});
    }
    lo_.assign(static_cast<size_t>(blocks * rows_), len_);
    live_.assign(static_cast<size_t>(blocks), 0);
  }

  void Fold(const int64_t* from, T delta, int64_t block = 0) {
    live_[static_cast<size_t>(block)] = 1;
    const int64_t start = n_ == 0 ? 0 : from[n_ - 1];
    const int64_t first = block * rows_;
    if (n_ <= 1) {  // one row
      AddToRow(cells_.data() + first * len_ + start, len_ - start, delta);
      int64_t& lo = lo_[static_cast<size_t>(first)];
      lo = std::min(lo, start);
      return;
    }
    ForEachOrthantRow(n_, ext_, from, row_stride_, [&](int64_t row) {
      row += first;
      AddToRow(cells_.data() + row * len_ + start, len_ - start, delta);
      int64_t& lo = lo_[static_cast<size_t>(row)];
      lo = std::min(lo, start);
    });
  }

  bool Empty(int64_t block = 0) const {
    return !live_[static_cast<size_t>(block)];
  }

  int64_t bytes() const {
    return static_cast<int64_t>(cells_.capacity() * sizeof(T) +
                                lo_.capacity() * sizeof(int64_t) +
                                live_.capacity());
  }

  // A one-row grid (n <= 1): grid `block`'s cells and its first
  // reached one (the row length when no fold reached it).
  bool one_row() const { return n_ <= 1; }
  int64_t len() const { return len_; }
  int64_t first_reached(int64_t block) const {
    return lo_[static_cast<size_t>(block)];
  }
  const T* row(int64_t block) const { return cells_.data() + block * len_; }

  // Adds grid `block` of `from` into grid 0. `from` has this shape but
  // may have longer rows; cells past this row length are left out.
  void FoldBlock(const OrthantSum& from, int64_t block) {
    RPS_DCHECK(from.n_ == n_ && from.rows_ == rows_ && from.len_ >= len_);
    if (from.Empty(block)) return;
    live_[0] = 1;
    const int64_t first = block * rows_;
    if (n_ <= 1) {  // one row
      const int64_t lo = from.lo_[static_cast<size_t>(first)];
      if (lo >= len_) return;
      AddRowInto(cells_.data() + lo,
                 from.cells_.data() + first * from.len_ + lo, len_ - lo);
      lo_[0] = std::min(lo_[0], lo);
      return;
    }
    for (int64_t row = 0; row < rows_; ++row) {
      const int64_t lo = from.lo_[static_cast<size_t>(first + row)];
      if (lo >= len_) continue;
      AddRowInto(cells_.data() + row * len_ + lo,
                 from.cells_.data() + (first + row) * from.len_ + lo,
                 len_ - lo);
      int64_t& into = lo_[static_cast<size_t>(row)];
      into = std::min(into, lo);
    }
  }

  // emit(offset, values, count) for every row of grid `block` a fold
  // reached, from its first reached cell to the row's end or `len`, if
  // shorter; offset = sum_j index_j * stride[j].
  template <typename EmitFn>
  void ForEachRow(const int64_t* stride, EmitFn&& emit, int64_t block = 0,
                  int64_t len = INT64_MAX) const {
    if (Empty(block)) return;
    len = std::min(len, len_);
    const int64_t run_stride = n_ == 0 ? 1 : stride[n_ - 1];
    if (n_ <= 1) {  // one row
      const int64_t lo = lo_[static_cast<size_t>(block)];
      if (lo < len) {
        emit(lo * run_stride, cells_.data() + block * len_ + lo, len - lo);
      }
      return;
    }
    int64_t idx[kMaxDims] = {};
    int64_t offset = 0;
    for (int64_t row = block * rows_; row < (block + 1) * rows_; ++row) {
      const int64_t lo = lo_[static_cast<size_t>(row)];
      if (lo < len) {
        emit(offset + lo * run_stride, cells_.data() + row * len_ + lo,
             len - lo);
      }
      for (int j = n_ - 2; j >= 0; --j) {
        offset += stride[j];
        if (++idx[j] < ext_[j]) break;
        offset -= ext_[j] * stride[j];
        idx[j] = 0;
      }
    }
  }

  void Clear() {
    for (size_t block = 0; block < live_.size(); ++block) {
      if (!live_[block]) continue;
      for (int64_t row = static_cast<int64_t>(block) * rows_;
           row < static_cast<int64_t>(block + 1) * rows_; ++row) {
        int64_t& lo = lo_[static_cast<size_t>(row)];
        std::fill(cells_.data() + row * len_ + lo,
                  cells_.data() + (row + 1) * len_, T{});
        lo = len_;
      }
      live_[block] = 0;
    }
  }

 private:
  int n_ = 0;
  int64_t ext_[kMaxDims] = {};
  int64_t row_stride_[kMaxDims] = {};
  int64_t rows_ = 1;
  int64_t len_ = 1;
  std::vector<T> cells_;
  std::vector<int64_t> lo_;
  std::vector<char> live_;
};

// OverlayGeometry::ScatterBatch's record: its covering box
// (grid-linear), box row, box coordinate along dimension d-1, offsets
// in the box and delta.
template <typename T, int kSlots>
struct BatchItem {
  int64_t box;
  T delta;
  int32_t record;
  int32_t row;
  int32_t col;
  int32_t off[kSlots];
};

// A record's pattern in one grid row's sweep of ScatterBatch: support
// q from `column` on, or (an own-column pattern) in `column` only.
struct BatchEntry {
  int64_t column;
  int64_t k;  // sorted item
  uint32_t q;
};

// A grid row holding records in ScatterBatch: a run of sorted items.
struct BatchSource {
  int64_t begin;
  int64_t end;
  int64_t row;               // grid coordinate along d-2
  int64_t anchor[kMaxDims];  // anchors along dimensions 0 .. d-3
};

// A source reaching a plane, and the plane dimensions it sits in.
struct BatchPlaneSource {
  int64_t source;
  uint32_t shared;
};

// ScatterBatch's state for one support (a set of dimensions): its
// accumulator (`live` when in use) and the plane's per-column sums of
// its earlier rows' patterns (one grid per column), each an index into
// a pool, and its slot map, planned once per row and innermost side
// (first slot, coefficients in support order, stride and length of
// its runs).
struct BatchSupport {
  int acc = -1;
  int later = -1;
  bool live = false;
  bool later_live = false;
  bool swept = false;        // in the row's sweep list
  int64_t later_first = 0;   // first column of its later sums
  int64_t first_column = 0;  // where the row's sweep starts
  int64_t map_row = -1;
  int64_t map_side = 0;
  int64_t first = 0;
  int64_t run_stride = 1;
  int64_t run = 1;
  int64_t coef[kMaxDims];
};

// ScatterBatch's buffers, kept per thread so that batches of a few
// hundred records reuse them: allocating and first touching them anew
// cost such a batch about a fifth of its time. A call that leaves them
// above kKeepBytes frees them, so a thread keeps at most that much
// after a large batch.
template <typename T, int kSlots>
class BatchScratch {
 public:
  static constexpr int64_t kKeepBytes = 64 << 10;

  static BatchScratch& Local() {
    thread_local BatchScratch scratch;
    return scratch;
  }

  int64_t bytes() const {
    int64_t total = static_cast<int64_t>(
        (items.capacity() + sorted.capacity()) * sizeof(BatchItem<T, kSlots>) +
        count.capacity() * sizeof(int64_t) +
        (entries.capacity() + after.capacity() + own.capacity()) *
            sizeof(BatchEntry) +
        sources.capacity() * sizeof(BatchSource) +
        plane.capacity() * sizeof(BatchPlaneSource) +
        bucket.capacity() * sizeof(int64_t) +
        support.capacity() * sizeof(BatchSupport) +
        (live.capacity() + later_active.capacity() +
         row_supports.capacity() + own_earlier.capacity()) *
            sizeof(uint32_t) +
        later_own.capacity() +
        (accs.capacity() + later.capacity()) * sizeof(OrthantSum<T>));
    total += rp.bytes();
    for (const OrthantSum<T>& sums : accs) total += sums.bytes();
    for (const OrthantSum<T>& sums : later) total += sums.bytes();
    return total;
  }

  void Trim() {
    if (bytes() <= kKeepBytes) return;
    *this = BatchScratch();
  }

  std::vector<BatchItem<T, kSlots>> items;
  std::vector<BatchItem<T, kSlots>> sorted;
  std::vector<int64_t> count;
  std::vector<BatchEntry> entries;
  std::vector<BatchEntry> after;
  std::vector<BatchEntry> own;
  OrthantSum<T> rp;  // a covering box's slice accumulator
  std::vector<BatchSource> sources;
  std::vector<BatchPlaneSource> plane;
  std::vector<int64_t> bucket;
  std::vector<BatchSupport> support;
  std::vector<OrthantSum<T>> accs;   // pool of row accumulators
  std::vector<OrthantSum<T>> later;  // pool of plane sums
  std::vector<uint32_t> live;
  std::vector<uint32_t> later_active;
  std::vector<uint32_t> row_supports;
  std::vector<uint32_t> own_earlier;
  std::vector<char> later_own;
};

}  // namespace internal_overlay

/// Shape bookkeeping for an overlay: box grid, clipped box extents,
/// and the compact indexing of stored (anchor + border) cells.
/// Structures and their clones share one geometry through a
/// shared_ptr; cache-line alignment keeps the reference count that
/// every clone bumps off the lines that lookups read.
class alignas(64) OverlayGeometry {
 public:
  /// `box_size` has one side length per dimension, each in
  /// [1, extent]. Use cost-model helpers to choose sizes.
  OverlayGeometry(const Shape& cube_shape, const CellIndex& box_size);

  const Shape& cube_shape() const { return cube_shape_; }
  const CellIndex& box_size() const { return box_size_; }
  /// Shape of the grid of boxes: ceil(n_j / k_j) boxes per dimension.
  const Shape& grid_shape() const { return grid_shape_; }
  int dims() const { return cube_shape_.dims(); }
  int64_t num_boxes() const { return grid_shape_.num_cells(); }

  /// Box-grid index of the box covering `cell`.
  CellIndex BoxIndexOf(const CellIndex& cell) const;

  /// Anchor (first covered cell) of box `box_index`.
  CellIndex AnchorOf(const CellIndex& box_index) const;

  /// Clipped extents of box `box_index` (min(k_j, n_j - a_j) per dim).
  CellIndex ExtentsOf(const CellIndex& box_index) const;

  /// The cube region covered by box `box_index`.
  Box RegionOf(const CellIndex& box_index) const;

  /// Number of stored cells in box `box_index`:
  /// prod(e_j) - prod(e_j - 1).
  int64_t StoredCellsInBox(const CellIndex& box_index) const;

  /// Total stored cells across all boxes.
  int64_t total_stored_cells() const { return total_stored_cells_; }

  /// Slot of the stored cell with in-box `offsets` (offset_j =
  /// c_j - a_j) in box `box_index`, as an index into a flat value
  /// array of size total_stored_cells(). Requires at least one zero
  /// offset. O(d).
  int64_t SlotOf(const CellIndex& box_index, const CellIndex& offsets) const;

  /// Slot of the anchor cell of `box_index` (all-zero offsets).
  int64_t AnchorSlotOf(const CellIndex& box_index) const;

  /// AnchorSlotOf for a pre-linearized (row-major) grid index. Hot
  /// update scatters walk dominating boxes in grid-linear order and
  /// skip the per-box relinearization.
  int64_t AnchorSlotOfLinear(int64_t box_linear) const {
    RPS_DCHECK(box_linear >= 0 && box_linear < num_boxes());
    return slot_base_[static_cast<size_t>(box_linear)];
  }

  /// The cells the prefix lookup of `target` reads (Figure 12): the
  /// anchor value of its box and its RP cell, returned, and one border
  /// value per nonempty subset of the dimensions where the target is
  /// past the anchor (not the full set when that is every dimension:
  /// that cell is RP[t]), passed to `border(slot)` in subset-mask
  /// order. `target` holds dims() in-range coordinates. Table reads
  /// and adds only; kDims > 0 fixes d at compile time (it must equal
  /// dims()), 0 reads it at run time.
  struct CornerCells {
    int64_t anchor_slot;
    int64_t rp_cell;  // row-major index into the cube
  };
  template <int kDims = 0, typename BorderFn>
  CornerCells Corner(const int64_t* target, BorderFn&& border) const;

  /// The cells an update of `cell` writes (Figure 14), the write side
  /// of Corner. First the RP tail of the covering box, as row runs
  /// passed to `rp(start, len)`: `start` is a row-major index into the
  /// cube and the run covers `len` cells along the innermost
  /// dimension; rows come in row-major order. Then every dominating
  /// box but the covering one, in grid-linear order. A box that shares
  /// a grid coordinate with the covering box passes its affected
  /// stored cells to `border(slot, len)` as runs of consecutive slots,
  /// in slot order. A stretch of strictly dominating boxes, whose
  /// anchor is their only affected cell, goes to `anchors(box, count)`
  /// as the grid-linear ids box .. box + count - 1 (AnchorSlotOfLinear
  /// maps them to slots). Table reads and adds only; kDims as in
  /// Corner.
  template <int kDims = 0, typename RpFn, typename BorderFn,
            typename AnchorsFn>
  void Scatter(const int64_t* cell, RpFn&& rp, BorderFn&& border,
               AnchorsFn&& anchors) const;

  /// The cells a batch of updates writes, each once, with the summed
  /// delta of the records that reach it: the union of Scatter over the
  /// records. A record has a `cell` (a CellIndex of dims() in-range
  /// coordinates) and a `delta`. `chunk_of(r)` returns box row r's
  /// writable chunk (BoxRow layout: RP cells, then slots). Records are
  /// bucketed by covering box with counting sorts; each covering box
  /// sweeps its dimension-0 slices and each grid row its boxes, folding
  /// records into orthant accumulators as the sweep reaches them
  /// (DESIGN.md Section 1). Returns the cells written: RP cells as
  /// primary, overlay cells as aux. kDims as in Corner.
  template <int kDims = 0, typename Record, typename ChunkFn>
  UpdateStats ScatterBatch(std::span<const Record> records,
                           ChunkFn&& chunk_of) const;

  /// Offset of coordinate `x` of dimension `j` from the anchor of its
  /// box, a table read.
  int64_t OffsetOf(int j, int64_t x) const {
    RPS_DCHECK(j >= 0 && j < dims() && x >= 0 && x < cube_shape_.extent(j));
    return coords_[static_cast<size_t>(coord_start_[j] + x)].offset;
  }

  /// A box row: the boxes sharing one dimension-0 grid coordinate, the
  /// unit of copy-on-write storage (core/box_row_store.h). Its RP cells
  /// (cube rows of the box row, row-major) and its boxes' overlay
  /// values (slot order) are each contiguous; a chunk holds the RP
  /// cells first, then the overlay values.
  struct BoxRow {
    int64_t rp_begin;    // row-major index of its first RP cell
    int64_t rp_cells;    // RP cells in it
    int64_t slot_begin;  // its first overlay slot
    int64_t slots;       // overlay values in it
    /// Index into the chunk of RP cell `cell` / overlay slot `slot`.
    int64_t RpIndex(int64_t cell) const { return cell - rp_begin; }
    int64_t SlotIndex(int64_t slot) const {
      return slot - slot_begin + rp_cells;
    }
    int64_t cells() const { return rp_cells + slots; }
  };
  int64_t num_box_rows() const {
    return static_cast<int64_t>(box_rows_.size());
  }
  const BoxRow& box_row(int64_t r) const {
    RPS_DCHECK(r >= 0 && r < num_box_rows());
    return box_rows_[static_cast<size_t>(r)];
  }
  /// Box row of cube coordinate `x` of dimension 0, a table read. Every
  /// cell a prefix lookup or ValueAt reads lies in its target's box row.
  int64_t BoxRowOf(int64_t x) const {
    RPS_DCHECK(x >= 0 && x < cube_shape_.extent(0));
    return row_of_[static_cast<size_t>(x)];
  }

  /// Self-audit of the geometry bookkeeping: grid extents, slot-base
  /// monotonicity, and (for up to `max_boxes` boxes) that SlotOf is a
  /// bijection from a box's stored cells onto its slot range. Returns
  /// the first violation found. O(stored cells of audited boxes).
  Status CheckInvariants(int64_t max_boxes = 256) const;

 private:
  // Where coordinate x of dimension j sits in the box grid: 16 bytes
  // per coordinate, sum(n_j) entries.
  struct Coord {
    int64_t box_part;  // (x / k_j) * grid stride of j
    int32_t offset;    // x - anchor_j
    int32_t extent;    // clipped side of x's box along j
  };

  // The affine slot map of the stored cells a box with sides `side`
  // holds for support q (the dimensions with a positive offset; see
  // Scatter): slot = base + C + sum_{j in q} o_j * coef[j]. `first` is
  // that sum at o_j = offset(j), `run` = side[h] - offset(h).
  struct Plan {
    uint32_t q;
    int h;          // the last dimension of q: its offsets form runs
    int64_t first;  // C + sum_{j in q} offset(j) * coef[j]
    int64_t run;    // side[h] - offset(h)
    int64_t coef[kMaxDims];
  };
  template <typename OffsetFn>
  [[gnu::always_inline]] static void PlanBoxes(int d, uint32_t q,
                                               const int64_t* side,
                                               OffsetFn&& offset,
                                               Plan* plan) {
    plan->q = q;
    if (q == 0) {  // the anchor alone
      plan->h = 0;
      plan->first = 0;
      plan->run = 1;
      return;
    }
    int64_t suffix[kMaxDims];  // prod_{i>j} side[i]
    suffix[d - 1] = 1;
    for (int j = d - 1; j > 0; --j) suffix[j - 1] = suffix[j] * side[j];
    // q misses a dimension (a stored cell has a zero offset).
    const int g = std::min(__builtin_ctz(~q), d - 1);
    // C: start[g], less coef_j for each j < g (offsets o'_j - 1 there).
    int64_t c = 0;
    int64_t group_scale = 1;
    for (int i = 0; i < g; ++i) {
      c += group_scale * suffix[i];
      group_scale *= side[i] - 1;
    }
    int64_t scale = suffix[g];
    for (int j = g - 1; j >= 0; --j) {
      plan->coef[j] = scale;
      c -= scale;
      scale *= side[j] - 1;
    }
    for (int j = g + 1; j < d; ++j) plan->coef[j] = suffix[j];
    for (uint32_t rest = q; rest != 0; rest &= rest - 1) {
      const int j = __builtin_ctz(rest);
      c += offset(j) * plan->coef[j];
    }
    plan->first = c;
    // Offsets in row-major order: the last dimension of Q varies
    // fastest and has the smallest coef, 1 when its run is contiguous.
    plan->h = 31 - __builtin_clz(q);
    plan->run = side[plan->h] - offset(plan->h);
  }

  // Rank of `offsets` among the stored cells of a box with extents
  // `extents`, in row-major offset order restricted to stored cells.
  int64_t BorderRank(const CellIndex& extents,
                     const CellIndex& offsets) const;

  Shape cube_shape_;
  CellIndex box_size_;
  Shape grid_shape_;
  // slot_base_[linearized box index] = first slot of that box;
  // slot_base_[num_boxes] = total_stored_cells_.
  std::vector<int64_t> slot_base_;
  int64_t total_stored_cells_;
  // coords_[coord_start_[j] + x] describes coordinate x of dimension j.
  std::vector<Coord> coords_;
  int64_t coord_start_[kMaxDims] = {};
  std::vector<BoxRow> box_rows_;
  std::vector<int32_t> row_of_;  // box row of each dimension-0 coordinate
};

template <int kDims, typename BorderFn>
OverlayGeometry::CornerCells OverlayGeometry::Corner(
    const int64_t* target, BorderFn&& border) const {
  static_assert(kDims >= 0 && kDims <= kMaxDims);
  const int d = kDims > 0 ? kDims : dims();
  RPS_DCHECK(d == dims());
  const Coord* at[kMaxDims];
  int64_t box = 0;
  int64_t rp_cell = 0;
  for (int j = 0; j < d; ++j) {
    RPS_DCHECK(target[j] >= 0 && target[j] < cube_shape_.extent(j));
    at[j] = &coords_[static_cast<size_t>(coord_start_[j] + target[j])];
    box += at[j]->box_part;
    rp_cell = rp_cell * cube_shape_.extent(j) + target[j];
  }
  const int64_t base = slot_base_[static_cast<size_t>(box)];
  if constexpr (kDims == 2) {
    // The closed form below at d = 2.
    if (at[0]->offset > 0) border(base + at[1]->extent + at[0]->offset - 1);
    if (at[1]->offset > 0) border(base + at[1]->offset);
  } else {
    // BorderRank (overlay.cc) in closed form. For a subset S of the
    // dimensions past the anchor, g the first dimension not in S (so
    // every dimension before g is in S), and suffix[j] = prod_{i>j} e_i:
    //   rank = start[g] + suffix[g] * head[g]
    //          + sum_{j in S, j > g} o_j * suffix[j],
    // where start[g] = sum_{g'<g} prod_{i<g'} (e_i - 1) * suffix[g']
    // skips the groups before g and head[g] is the mixed-radix number
    // (o_0 - 1, ..., o_{g-1} - 1) with radices (e_0 - 1, ..., e_{g-1} - 1).
    int64_t suffix[kMaxDims];
    int64_t start[kMaxDims];
    int64_t head[kMaxDims];
    suffix[d - 1] = 1;
    for (int j = d - 1; j > 0; --j) suffix[j - 1] = suffix[j] * at[j]->extent;
    int64_t skipped = 0;
    int64_t group_scale = 1;  // prod_{i<g} (e_i - 1)
    int64_t radix = 0;
    uint32_t past = 0;  // the dimensions where the target is past the anchor
    for (int g = 0; g < d; ++g) {
      start[g] = skipped;
      head[g] = radix;
      skipped += group_scale * suffix[g];
      group_scale *= at[g]->extent - 1;
      radix = radix * (at[g]->extent - 1) + (at[g]->offset - 1);
      if (at[g]->offset > 0) past |= 1u << g;
    }
    // Nonempty subsets of `past` in increasing order: subset-mask order.
    for (uint32_t subset = past & (0u - past); subset != 0;
         subset = (subset - past) & past) {
      if (subset == (1u << d) - 1) continue;  // that cell is RP[t]
      const int g = __builtin_ctz(~subset);
      int64_t rank = start[g] + suffix[g] * head[g];
      for (uint32_t rest = subset >> g; rest != 0; rest &= rest - 1) {
        const int j = g + __builtin_ctz(rest);
        rank += at[j]->offset * suffix[j];
      }
      border(base + rank);
    }
  }
  return {base, rp_cell};
}

// Forced inline (with write_box below) into each caller, so that state
// the callbacks keep across calls -- RelativePrefixSum's chunk cursor --
// stays in registers instead of being reloaded after every cell write.
template <int kDims, typename RpFn, typename BorderFn, typename AnchorsFn>
[[gnu::always_inline]] inline void OverlayGeometry::Scatter(
    const int64_t* cell, RpFn&& rp, BorderFn&& border,
    AnchorsFn&& anchors) const {
  static_assert(kDims >= 0 && kDims <= kMaxDims);
  const int d = kDims > 0 ? kDims : dims();
  RPS_DCHECK(d == dims());
  const Coord* at[kMaxDims];
  for (int j = 0; j < d; ++j) {
    RPS_DCHECK(cell[j] >= 0 && cell[j] < cube_shape_.extent(j));
    at[j] = &coords_[static_cast<size_t>(coord_start_[j] + cell[j])];
  }
  const int64_t inner_extent = cube_shape_.extent(d - 1);
  // Boxes after the covering one along the innermost grid dimension,
  // whose grid stride is 1: box_part is the box coordinate there.
  const int64_t right = grid_shape_.extent(d - 1) - 1 - at[d - 1]->box_part;
  // Extent of the innermost dimension's last, possibly clipped, box.
  const int64_t last_side =
      coords_[static_cast<size_t>(coord_start_[d - 1] + inner_extent - 1)]
          .extent;
  // A box sharing grid coordinates E with the covering box writes the
  // product over j in Q = {j in E : o_j > 0} of offsets [o_j, e_j),
  // zero elsewhere; its first zero dimension is g = min(not Q), so
  // BorderRank (see Corner) is affine in the offsets:
  //   slot = base + C + sum_{j in Q} o'_j * coef_j.
  if constexpr (kDims == 2) {
    // RP tail: rows cell[0] .. end of box, cells cell[1] .. end of box.
    const int64_t rows = at[0]->extent - at[0]->offset;
    const int64_t cols = at[1]->extent - at[1]->offset;
    int64_t start = cell[0] * inner_extent + cell[1];
    for (int64_t r = 0; r < rows; ++r, start += inner_extent) rp(start, cols);
    // The covering box's grid row: (o0', 0) sits at base + e1 + o0' - 1.
    const int64_t own = at[0]->box_part + at[1]->box_part;
    for (int64_t i = 1; i <= right; ++i) {
      const int64_t base = slot_base_[static_cast<size_t>(own + i)];
      if (at[0]->offset > 0) {
        const int64_t e1 = i < right ? box_size_[1] : last_side;
        border(base + e1 + at[0]->offset - 1, rows);
      } else {
        border(base, 1);
      }
    }
    // Later grid rows: (0, o1') at base + o1' in the covering box's
    // grid column, then the strictly dominating anchors.
    const int64_t boxes = static_cast<int64_t>(slot_base_.size()) - 1;
    const int64_t row_step = grid_shape_.extent(1);
    for (int64_t box = own + row_step; box < boxes; box += row_step) {
      const int64_t base = slot_base_[static_cast<size_t>(box)];
      if (at[1]->offset > 0) {
        border(base + at[1]->offset, cols);
      } else {
        border(base, 1);
      }
      if (right > 0) anchors(box + 1, right);
    }
  } else {
    // RP tail rows in row-major order: an odometer over dimensions
    // 0 .. d-2 of the tail box.
    int64_t stride[kMaxDims];
    int64_t tail[kMaxDims] = {};
    stride[d - 1] = 1;
    for (int j = d - 1; j > 0; --j) {
      stride[j - 1] = stride[j] * cube_shape_.extent(j);
    }
    int64_t start = 0;
    uint32_t past = 0;  // dimensions where `cell` is past its anchor
    for (int j = 0; j < d; ++j) {
      tail[j] = at[j]->extent - at[j]->offset;
      start += cell[j] * stride[j];
      if (at[j]->offset > 0) past |= 1u << j;
    }
    int64_t step[kMaxDims] = {};
    for (;;) {
      rp(start, tail[d - 1]);
      int j = d - 2;
      for (; j >= 0 && step[j] + 1 == tail[j]; --j) {
        start -= step[j] * stride[j];
        step[j] = 0;
      }
      if (j < 0) break;
      ++step[j];
      start += stride[j];
    }

    // The slot map of the boxes with sides `side` and written dimensions
    // q, planned once per grid row and side: the boxes after the
    // covering one in a grid row share Q and every side but the last
    // box's innermost one.
    int64_t side[kMaxDims];  // e_j of the boxes being planned
    const auto plan_boxes = [&](uint32_t q, Plan* plan) {
      PlanBoxes(d, q, side, [&](int j) -> int64_t { return at[j]->offset; },
                plan);
    };
    // The odometer's limits are sides of dimensions before the
    // innermost, which the boxes of a grid row share.
    const auto write_box = [&](int64_t box, const Plan& plan)
                               __attribute__((always_inline)) {
      const int64_t base = slot_base_[static_cast<size_t>(box)];
      if (plan.q == 0) {
        border(base, 1);
        return;
      }
      const int h = plan.h;
      const int64_t run = plan.run;
      int64_t slot = base + plan.first;
      int64_t pos[kMaxDims] = {};
      for (;;) {
        RPS_DCHECK(slot >= base &&
                   slot + (run - 1) * plan.coef[h] <
                       slot_base_[static_cast<size_t>(box) + 1]);
        if (plan.coef[h] == 1) {
          border(slot, run);
        } else {
          for (int64_t i = 0; i < run; ++i) border(slot + i * plan.coef[h], 1);
        }
        uint32_t outer = plan.q & ~(1u << h);
        for (; outer != 0; outer &= ~(1u << (31 - __builtin_clz(outer)))) {
          const int j = 31 - __builtin_clz(outer);
          if (++pos[j] < side[j] - at[j]->offset) {
            slot += plan.coef[j];
            break;
          }
          slot -= (pos[j] - 1) * plan.coef[j];
          pos[j] = 0;
        }
        if (outer == 0) break;
      }
    };

    // Dominating boxes, one grid row (dimensions 0 .. d-2 fixed) at a
    // time. anchor[j] is the current row's anchor along j < d-1.
    int64_t anchor[kMaxDims];
    for (int j = 0; j < d; ++j) anchor[j] = cell[j] - at[j]->offset;
    const uint32_t inner = 1u << (d - 1);
    for (;;) {
      int64_t row = at[d - 1]->box_part;  // grid-linear id of its first box
      // The dimensions where the box shares the covering box's grid
      // coordinate (the innermost holds for the row's first box only).
      uint32_t same = inner;
      for (int j = 0; j + 1 < d; ++j) {
        const Coord& entry = coords_[static_cast<size_t>(coord_start_[j] +
                                                         anchor[j])];
        row += entry.box_part;
        side[j] = entry.extent;
        if (anchor[j] == cell[j] - at[j]->offset) same |= 1u << j;
      }
      Plan plan;
      if (same != (inner << 1) - 1) {
        side[d - 1] = at[d - 1]->extent;
        plan_boxes(same & past, &plan);
        write_box(row, plan);
      }
      same &= ~inner;
      if (same == 0) {
        if (right > 0) anchors(row + 1, right);
      } else if (right > 0) {
        side[d - 1] = box_size_[d - 1];
        plan_boxes(same & past, &plan);
        for (int64_t i = 1; i < right; ++i) write_box(row + i, plan);
        if (last_side != box_size_[d - 1]) {
          side[d - 1] = last_side;
          plan_boxes(same & past, &plan);
        }
        write_box(row + right, plan);
      }
      int j = d - 2;
      for (; j >= 0; --j) {
        if (anchor[j] + box_size_[j] < cube_shape_.extent(j)) {
          anchor[j] += box_size_[j];
          break;
        }
        anchor[j] = cell[j] - at[j]->offset;
      }
      if (j < 0) break;
    }
  }
}

template <int kDims, typename Record, typename ChunkFn>
UpdateStats OverlayGeometry::ScatterBatch(std::span<const Record> records,
                                          ChunkFn&& chunk_of) const {
  static_assert(kDims >= 0 && kDims <= kMaxDims);
  using T = std::remove_cvref_t<decltype(records[0].delta)>;
  constexpr int kSlots = kDims > 0 ? kDims : kMaxDims;
  const int d = kDims > 0 ? kDims : dims();
  RPS_DCHECK(d == dims());
  UpdateStats stats;
  const int64_t m = static_cast<int64_t>(records.size());
  if (m == 0) return stats;

  // One item per record. Bucket them by covering box, and by offset
  // along dimension 0 within a box: stable counting sorts by that
  // offset, the box's place in its box row, then the box row.
  using Item = internal_overlay::BatchItem<T, kSlots>;
  using Entry = internal_overlay::BatchEntry;
  internal_overlay::BatchScratch<T, kSlots>& scratch =
      internal_overlay::BatchScratch<T, kSlots>::Local();
  std::vector<Item>& items = scratch.items;
  std::vector<Item>& sorted = scratch.sorted;
  std::vector<int64_t>& count = scratch.count;
  items.resize(static_cast<size_t>(m));
  sorted.resize(static_cast<size_t>(m));
  const int64_t per_row = grid_shape_.num_cells() / grid_shape_.extent(0);
  int64_t first_row = grid_shape_.extent(0);
  int64_t last_row = 0;
  for (int64_t i = 0; i < m; ++i) {
    const Record& record = records[static_cast<size_t>(i)];
    Item& item = items[static_cast<size_t>(i)];
    item.box = 0;
    item.delta = record.delta;
    item.record = static_cast<int32_t>(i);
    RPS_CHECK(record.cell.dims() == d);
    for (int j = 0; j < d; ++j) {
      RPS_CHECK(record.cell[j] >= 0 && record.cell[j] < cube_shape_.extent(j));
      const Coord& c =
          coords_[static_cast<size_t>(coord_start_[j] + record.cell[j])];
      item.box += c.box_part;
      item.off[j] = c.offset;
    }
    item.row = row_of_[static_cast<size_t>(record.cell[0])];
    item.col = static_cast<int32_t>(
        coords_[static_cast<size_t>(coord_start_[d - 1] + record.cell[d - 1])]
            .box_part);
    first_row = std::min<int64_t>(first_row, item.row);
    last_row = std::max<int64_t>(last_row, item.row);
  }
  const auto counting_sort = [&](int64_t buckets, auto&& key) {
    count.assign(static_cast<size_t>(buckets) + 1, 0);
    for (const Item& item : items) ++count[static_cast<size_t>(key(item)) + 1];
    for (int64_t b = 0; b < buckets; ++b) {
      count[static_cast<size_t>(b) + 1] += count[static_cast<size_t>(b)];
    }
    for (const Item& item : items) {
      sorted[static_cast<size_t>(count[static_cast<size_t>(key(item))]++)] =
          item;
    }
    items.swap(sorted);
  };
  const auto in_row = [&](const Item& item) {
    return item.box - item.row * per_row;
  };
  if (first_row == last_row && per_row * box_size_[0] <= 4 * m) {
    // One box row and few keys: one pass by (place, offset).
    counting_sort(per_row * box_size_[0], [&](const Item& item) {
      return in_row(item) * box_size_[0] + item.off[0];
    });
  } else {
    counting_sort(box_size_[0], [](const Item& item) { return item.off[0]; });
    if (per_row > 1) counting_sort(per_row, in_row);
  }
  if (first_row != last_row) {
    counting_sort(last_row - first_row + 1,
                  [&](const Item& item) { return item.row - first_row; });
  }

  // Chunk of box row r, made writable on its first write.
  int64_t chunk_row = -1;
  T* chunk = nullptr;
  const auto chunk_for = [&](int64_t r) {
    if (r != chunk_row) {
      chunk_row = r;
      chunk = chunk_of(r);
    }
    return chunk;
  };

  // RP: each covering box sweeps its dimension-0 slices from the first
  // one a record reaches. A record's tail over dimensions 1 .. d-1 is
  // folded into the slice accumulator when the sweep reaches its slice;
  // the accumulator's reached rows then go into each later slice once.
  internal_overlay::OrthantSum<T>& acc = scratch.rp;
  int64_t from[kMaxDims] = {};
  int64_t ext[kMaxDims] = {};
  int64_t stride[kMaxDims];  // cube strides of dimensions 1 .. d-1
  int64_t stride0 = 1;
  for (int j = d - 1; j > 0; --j) {
    stride[j - 1] = stride0;
    stride0 *= cube_shape_.extent(j);
  }
  for (int64_t g = 0; g < m;) {
    const Item& head = items[static_cast<size_t>(g)];
    int64_t end = g + 1;
    while (end < m && items[static_cast<size_t>(end)].box == head.box) ++end;
    // The box's anchor (row-major index) and sides, from its first record.
    const Record& record = records[static_cast<size_t>(head.record)];
    int64_t anchor = 0;
    int64_t side0 = 0;
    for (int j = 0; j < d; ++j) {
      const int64_t a = record.cell[j] - head.off[j];
      anchor = anchor * cube_shape_.extent(j) + a;
      const int64_t side =
          coords_[static_cast<size_t>(coord_start_[j] + a)].extent;
      if (j == 0) {
        side0 = side;
      } else {
        ext[j - 1] = side;
      }
    }
    acc.Reshape(d - 1, ext);
    const BoxRow& row = box_rows_[static_cast<size_t>(head.row)];
    T* const rp = chunk_for(head.row) + (anchor - row.rp_begin);
    // Until a second record's slice, the slices take the first record's
    // tail alone: its delta goes straight into the RP rows (reading the
    // accumulator back right after folding it stalls on the stores).
    // Sparse batches are mostly such boxes.
    int64_t s = head.off[0];
    const int64_t alone =
        end - g > 1 ? items[static_cast<size_t>(g) + 1].off[0] : side0;
    const int64_t inner_off = d == 1 ? 0 : head.off[d - 1];
    const int64_t run = d == 1 ? 1 : ext[d - 2] - inner_off;
    for (int j = 1; j < d; ++j) from[j - 1] = head.off[j];
    for (; s < alone; ++s) {
      T* const slice = rp + s * stride0 + inner_off;
      internal_overlay::ForEachOrthantRow(
          d - 1, ext, from, stride, [&](int64_t at) {
            AddToRow(slice + at, run, head.delta);
            stats.primary_cells += run;
          });
    }
    int64_t k = g;
    for (; s < side0; ++s) {
      for (; k < end && items[static_cast<size_t>(k)].off[0] <= s; ++k) {
        const Item& item = items[static_cast<size_t>(k)];
        for (int j = 1; j < d; ++j) from[j - 1] = item.off[j];
        acc.Fold(from, item.delta);
      }
      T* const slice = rp + s * stride0;
      acc.ForEachRow(stride, [&](int64_t at, const T* values, int64_t n) {
        AddRowInto(slice + at, values, n);
        stats.primary_cells += n;
      });
    }
    acc.Clear();
    g = end;
  }

  // Overlay, one grid row (dimensions 0 .. d-2 fixed) at a time: the
  // planes (dimensions 0 .. d-3 fixed) in grid order, and each plane's
  // rows in order along dimension d-2; at d <= 2 the grid is one plane.
  // The boxes of a grid row a record's scatter reaches all take one
  // slot pattern from its column on -- support q, the dimensions it
  // shares with the row and is past the anchor in, offsets [o_j, e_j)
  // -- except, in a grid row other than its own, its own column, whose
  // pattern adds the innermost dimension when the record is past the
  // anchor there. So each support sweeps the row once, folding a
  // record into its accumulator at the record's first column and
  // writing the accumulator into every box from there on; own-column
  // patterns are summed per column. A record's patterns are the same in
  // every later row of its plane, so when its row is done they are
  // folded once into the plane's per-column sums (`later`), which each
  // later row's sweeps add in column by column: a record is folded once
  // per plane it reaches, not once per row. Patterns of one support are
  // orthants of one grid, so a cell several records reach is still
  // written once. The empty support, the anchors, is a running scalar.
  const int64_t cols = grid_shape_.extent(d - 1);
  const int64_t last_side =
      coords_[static_cast<size_t>(coord_start_[d - 1] +
                                  cube_shape_.extent(d - 1) - 1)]
          .extent;
  const uint32_t inner = 1u << (d - 1);
  const int row_dim = d - 2;  // the dimension a plane's rows run along
  const int64_t rows = d >= 2 ? grid_shape_.extent(row_dim) : 1;
  // Grid rows holding records: runs of the sorted items sharing one.
  using Source = internal_overlay::BatchSource;
  std::vector<Source>& sources = scratch.sources;
  sources.clear();
  int64_t low[kMaxDims];  // lowest source anchor per plane dimension
  for (int j = 0; j < row_dim; ++j) low[j] = cube_shape_.extent(j);
  for (int64_t k = 0; k < m;) {
    const Item& item = items[static_cast<size_t>(k)];
    const int64_t grid_row = item.box - item.col;
    Source source{k, k + 1, 0, {}};
    while (source.end < m &&
           items[static_cast<size_t>(source.end)].box -
                   items[static_cast<size_t>(source.end)].col ==
               grid_row) {
      ++source.end;
    }
    const CellIndex& cell = records[static_cast<size_t>(item.record)].cell;
    for (int j = 0; j < row_dim; ++j) {
      source.anchor[j] = cell[j] - item.off[j];
      low[j] = std::min(low[j], source.anchor[j]);
    }
    if (d >= 2) source.row = cell[row_dim] / box_size_[row_dim];
    sources.push_back(source);
    k = source.end;
  }

  // The row's patterns by column: `after` from their first column on,
  // `own` in their own column only.
  std::vector<Entry>& after = scratch.after;
  std::vector<Entry>& own = scratch.own;
  const auto sort_by_column = [&](std::vector<Entry>& list) {
    count.assign(static_cast<size_t>(cols) + 1, 0);
    for (const Entry& e : list) ++count[static_cast<size_t>(e.column) + 1];
    for (int64_t c = 0; c < cols; ++c) {
      count[static_cast<size_t>(c) + 1] += count[static_cast<size_t>(c)];
    }
    scratch.entries.resize(list.size());
    for (const Entry& e : list) {
      scratch.entries[static_cast<size_t>(
          count[static_cast<size_t>(e.column)]++)] = e;
    }
    list.swap(scratch.entries);
  };
  // Per-support state, reset for this call; its pool indices stay.
  using Support = internal_overlay::BatchSupport;
  std::vector<Support>& support = scratch.support;
  if (support.size() < (size_t{1} << d)) support.resize(size_t{1} << d);
  for (size_t q = 0; q < (size_t{1} << d); ++q) {
    support[q].live = support[q].later_live = support[q].swept = false;
    support[q].map_row = -1;
  }
  std::vector<internal_overlay::OrthantSum<T>>& accs = scratch.accs;
  std::vector<internal_overlay::OrthantSum<T>>& later = scratch.later;
  std::vector<uint32_t>& live = scratch.live;  // live accumulators
  std::vector<uint32_t>& later_active = scratch.later_active;
  std::vector<uint32_t>& row_supports = scratch.row_supports;
  std::vector<uint32_t>& own_earlier = scratch.own_earlier;
  later_active.clear();
  // The columns an own-column later sum reaches.
  std::vector<char>& later_own = scratch.later_own;
  later_own.assign(static_cast<size_t>(cols), 0);
  int64_t side[kMaxDims];  // sides of the box being written
  const auto reshape = [&](internal_overlay::OrthantSum<T>& sums, uint32_t q,
                           int64_t blocks) {
    int n = 0;
    for (uint32_t rest = q; rest != 0; rest &= rest - 1) {
      ext[n++] = side[__builtin_ctz(rest)] - 1;
    }
    sums.Reshape(n, ext, blocks);
  };
  const auto acc_for = [&](uint32_t q) -> internal_overlay::OrthantSum<T>& {
    Support& state = support[q];
    if (state.acc < 0) {
      state.acc = static_cast<int>(accs.size());
      accs.emplace_back();
    }
    internal_overlay::OrthantSum<T>& sums =
        accs[static_cast<size_t>(state.acc)];
    if (!state.live) {
      state.live = true;
      reshape(sums, q, 1);
      live.push_back(q);
    }
    return sums;
  };
  const auto release = [&] {
    for (const uint32_t q : live) {
      accs[static_cast<size_t>(support[q].acc)].Clear();
      support[q].live = false;
    }
    live.clear();
  };
  const auto later_for = [&](uint32_t q) -> internal_overlay::OrthantSum<T>& {
    Support& state = support[q];
    if (state.later < 0) {
      state.later = static_cast<int>(later.size());
      later.emplace_back();
    }
    internal_overlay::OrthantSum<T>& sums =
        later[static_cast<size_t>(state.later)];
    if (!state.later_live) {
      state.later_live = true;
      state.later_first = cols;
      side[d - 1] = box_size_[d - 1];  // the longest own-column pattern
      reshape(sums, q, cols);
      later_active.push_back(q);
    }
    return sums;
  };
  const auto fold = [&](internal_overlay::OrthantSum<T>& into, uint32_t q,
                        const Item& item, int64_t block) {
    int n = 0;
    for (uint32_t rest = q; rest != 0; rest &= rest - 1) {
      from[n++] = item.off[__builtin_ctz(rest)] - 1;
    }
    into.Fold(from, item.delta, block);
  };
  int64_t row_id = 0;  // rows swept so far: the slot maps' validity
  const auto map_for = [&](uint32_t q) -> const Support& {
    Support& map = support[q];
    if (map.map_row != row_id || map.map_side != side[d - 1]) {
      map.map_row = row_id;
      map.map_side = side[d - 1];
      Plan plan;
      PlanBoxes(d, q, side, [](int) -> int64_t { return 1; }, &plan);
      int n = 0;
      for (uint32_t rest = q; rest != 0; rest &= rest - 1) {
        map.coef[n++] = plan.coef[__builtin_ctz(rest)];
      }
      map.first = plan.first;
      map.run_stride = plan.coef[plan.h];
      map.run = side[plan.h] - 1;
    }
    return map;
  };
  // Adds grid `block` of `sums`, support q (not empty), into the box at
  // `base` (sides `side`; a grid may be shaped for a longer innermost
  // side). One-row grids, most of them at d = 2, are written here.
  const auto write = [&](uint32_t q,
                         const internal_overlay::OrthantSum<T>& sums,
                         int64_t block, T* slots, int64_t base) {
    const Support& map = map_for(q);
    T* const origin = slots + base + map.first;
    const int64_t run_stride = map.run_stride;
    if (sums.one_row()) {
      const int64_t lo = sums.first_reached(block);
      const int64_t n = std::min(map.run, sums.len()) - lo;
      if (n <= 0) return;
      const T* const values = sums.row(block) + lo;
      T* const out = origin + lo * run_stride;
      if (run_stride == 1) {
        AddRowInto(out, values, n);
      } else {
        for (int64_t i = 0; i < n; ++i) out[i * run_stride] += values[i];
      }
      stats.aux_cells += n;
      return;
    }
    sums.ForEachRow(
        map.coef,
        [&](int64_t at, const T* values, int64_t n) {
          T* const out = origin + at;
          if (run_stride == 1) {
            AddRowInto(out, values, n);
          } else {
            for (int64_t i = 0; i < n; ++i) out[i * run_stride] += values[i];
          }
          stats.aux_cells += n;
        },
        block, map.run);
  };

  using PlaneSource = internal_overlay::BatchPlaneSource;
  std::vector<PlaneSource>& plane = scratch.plane;
  std::vector<int64_t>& bucket = scratch.bucket;  // row g: plane[bucket[g] ..]
  int64_t g_anchor[kMaxDims];   // the row's anchors along 0 .. d-2
  for (int j = 0; j < row_dim; ++j) g_anchor[j] = low[j];
  for (;;) {
    // The sources at or before the plane in each plane dimension,
    // bucketed by row with a counting sort.
    int64_t plane_base = 0;  // grid-linear id of the plane's first box
    for (int j = 0; j < row_dim; ++j) {
      const Coord& c =
          coords_[static_cast<size_t>(coord_start_[j] + g_anchor[j])];
      plane_base += c.box_part;
      side[j] = c.extent;
    }
    bucket.assign(static_cast<size_t>(rows) + 1, 0);
    const auto reaches = [&](const Source& source) {
      for (int j = 0; j < row_dim; ++j) {
        if (source.anchor[j] > g_anchor[j]) return false;
      }
      return true;
    };
    for (const Source& source : sources) {
      if (reaches(source)) ++bucket[static_cast<size_t>(source.row) + 1];
    }
    for (int64_t g = 0; g < rows; ++g) {
      bucket[static_cast<size_t>(g) + 1] += bucket[static_cast<size_t>(g)];
    }
    plane.resize(static_cast<size_t>(bucket[static_cast<size_t>(rows)]));
    count.assign(bucket.begin(), bucket.end());
    for (size_t s = 0; s < sources.size(); ++s) {
      const Source& source = sources[s];
      if (!reaches(source)) continue;
      uint32_t shared = 0;
      for (int j = 0; j < row_dim; ++j) {
        if (source.anchor[j] == g_anchor[j]) shared |= 1u << j;
      }
      plane[static_cast<size_t>(count[static_cast<size_t>(source.row)]++)] =
          PlaneSource{static_cast<int64_t>(s), shared};
    }

    for (int64_t g = 0; g < rows; ++g) {
      const int64_t row_begin = bucket[static_cast<size_t>(g)];
      const int64_t row_end = bucket[static_cast<size_t>(g) + 1];
      if (later_active.empty()) {
        if (row_begin == static_cast<int64_t>(plane.size())) break;
        if (row_begin == row_end) continue;  // nothing reaches this row
      }
      ++row_id;
      int64_t row_base = plane_base;  // grid-linear id of its first box
      if (d >= 2) {
        g_anchor[row_dim] = g * box_size_[row_dim];
        const Coord& c = coords_[static_cast<size_t>(coord_start_[row_dim] +
                                                     g_anchor[row_dim])];
        row_base += c.box_part;
        side[row_dim] = c.extent;
      }
      // The row's own records' patterns, and the supports to sweep.
      const uint32_t row_bit = d >= 2 ? 1u << row_dim : 0;
      after.clear();
      own.clear();
      row_supports.clear();
      bool after_sorted = true;  // records come in column order per source
      bool own_sorted = true;
      for (int64_t p = row_begin; p < row_end; ++p) {
        const PlaneSource& ps = plane[static_cast<size_t>(p)];
        const Source& source = sources[static_cast<size_t>(ps.source)];
        const uint32_t shared = ps.shared | row_bit;
        const bool same = shared == inner - 1;
        for (int64_t k = source.begin; k < source.end; ++k) {
          const Item& item = items[static_cast<size_t>(k)];
          uint32_t q = 0;
          for (uint32_t rest = shared; rest != 0; rest &= rest - 1) {
            const int j = __builtin_ctz(rest);
            if (item.off[j] > 0) q |= 1u << j;
          }
          int64_t column = item.col;
          if (same) {
            ++column;  // its own box is the covering box
          } else if (item.off[d - 1] > 0) {
            own_sorted &= own.empty() || own.back().column <= column;
            own.push_back(Entry{column, k, q | inner});
            ++column;
          }
          if (column < cols) {
            after_sorted &= after.empty() || after.back().column <= column;
            after.push_back(Entry{column, k, q});
            if (!support[q].swept) {
              support[q].swept = true;
              row_supports.push_back(q);
            }
          }
        }
      }
      if (!after_sorted) sort_by_column(after);
      if (!own_sorted) sort_by_column(own);
      // Each support sweeps from its first column (the row's supports
      // from the row's first); `own_earlier` lists the plane's
      // own-column sums.
      const int64_t row_first = after.empty() ? cols : after.front().column;
      for (const uint32_t q : row_supports) support[q].first_column = row_first;
      own_earlier.clear();
      for (const uint32_t q : later_active) {
        Support& state = support[q];
        if ((q & inner) != 0) {
          own_earlier.push_back(q);
        } else if (state.swept) {
          state.first_column = std::min(state.first_column, state.later_first);
        } else {
          state.swept = true;
          state.first_column = state.later_first;
          row_supports.push_back(q);
        }
      }

      const int64_t r =
          d == 1 ? -1 : row_of_[static_cast<size_t>(g_anchor[0])];
      T* row_slots = nullptr;  // made writable on the row's first write
      const auto slots_of = [&](int64_t b) {
        if (d == 1) {
          const BoxRow& row = box_rows_[static_cast<size_t>(b)];
          return chunk_for(b) + (row.rp_cells - row.slot_begin);
        }
        if (row_slots == nullptr) {
          const BoxRow& row = box_rows_[static_cast<size_t>(r)];
          row_slots = chunk_for(r) + (row.rp_cells - row.slot_begin);
        }
        return row_slots;
      };
      // Patterns from their first column on, one support at a time.
      for (const uint32_t q : row_supports) {
        Support& state = support[q];
        state.swept = false;
        const internal_overlay::OrthantSum<T>* const earlier =
            state.later_live ? &later[static_cast<size_t>(state.later)]
                             : nullptr;
        const int64_t start = state.first_column;
        size_t e = static_cast<size_t>(
            std::lower_bound(after.begin(), after.end(), start,
                             [](const Entry& a, int64_t column) {
                               return a.column < column;
                             }) -
            after.begin());
        if (q == 0) {
          T sum{};
          bool reached = false;
          for (int64_t c = start; c < cols; ++c) {
            for (; e < after.size() && after[e].column == c; ++e) {
              if (after[e].q == 0) {
                sum += items[static_cast<size_t>(after[e].k)].delta;
                reached = true;
              }
            }
            if (earlier != nullptr && !earlier->Empty(c)) {
              sum += earlier->row(c)[0];
              reached = true;
            }
            if (reached) {
              const int64_t b = row_base + c;
              slots_of(b)[slot_base_[static_cast<size_t>(b)]] += sum;
              ++stats.aux_cells;
            }
          }
          continue;
        }
        internal_overlay::OrthantSum<T>& sums = acc_for(q);
        for (int64_t c = start; c < cols; ++c) {
          for (; e < after.size() && after[e].column == c; ++e) {
            if (after[e].q == q) {
              fold(sums, q, items[static_cast<size_t>(after[e].k)], 0);
            }
          }
          if (earlier != nullptr && !earlier->Empty(c)) {
            sums.FoldBlock(*earlier, c);
          }
          if (sums.Empty()) continue;
          const int64_t b = row_base + c;
          side[d - 1] = c + 1 < cols ? box_size_[d - 1] : last_side;
          write(q, sums, 0, slots_of(b), slot_base_[static_cast<size_t>(b)]);
        }
        release();
      }
      // Own-column patterns, column by column: one from earlier rows
      // goes straight into the box unless a record of this row shares
      // its support there.
      size_t e = 0;
      for (int64_t c = 0; c < cols; ++c) {
        const bool earlier = later_own[static_cast<size_t>(c)] != 0;
        if (!earlier && !(e < own.size() && own[e].column == c)) continue;
        const int64_t b = row_base + c;
        side[d - 1] = c + 1 < cols ? box_size_[d - 1] : last_side;
        T* const slots = slots_of(b);
        const int64_t base = slot_base_[static_cast<size_t>(b)];
        for (; e < own.size() && own[e].column == c; ++e) {
          fold(acc_for(own[e].q), own[e].q,
               items[static_cast<size_t>(own[e].k)], 0);
        }
        if (earlier) {
          for (const uint32_t q : own_earlier) {
            const internal_overlay::OrthantSum<T>& sums =
                later[static_cast<size_t>(support[q].later)];
            if (sums.Empty(c)) continue;
            if (support[q].live) {
              accs[static_cast<size_t>(support[q].acc)].FoldBlock(sums, c);
            } else {
              write(q, sums, c, slots, base);
            }
          }
        }
        for (const uint32_t q : live) {
          write(q, accs[static_cast<size_t>(support[q].acc)], 0, slots, base);
        }
        release();
      }

      // The row's records reach the plane's later rows with the same
      // patterns: fold them into the per-column sums once.
      if (g + 1 == rows) break;
      for (int64_t p = row_begin; p < row_end; ++p) {
        const PlaneSource& ps = plane[static_cast<size_t>(p)];
        const Source& source = sources[static_cast<size_t>(ps.source)];
        for (int64_t k = source.begin; k < source.end; ++k) {
          const Item& item = items[static_cast<size_t>(k)];
          uint32_t q = 0;
          for (uint32_t rest = ps.shared; rest != 0; rest &= rest - 1) {
            const int j = __builtin_ctz(rest);
            if (item.off[j] > 0) q |= 1u << j;
          }
          int64_t column = item.col;
          if (item.off[d - 1] > 0) {
            fold(later_for(q | inner), q | inner, item, column);
            later_own[static_cast<size_t>(column)] = 1;
            ++column;
          }
          if (column < cols) {
            fold(later_for(q), q, item, column);
            support[q].later_first =
                std::min(support[q].later_first, column);
          }
        }
      }
    }
    for (const uint32_t q : later_active) {
      later[static_cast<size_t>(support[q].later)].Clear();
      support[q].later_live = false;
    }
    later_active.clear();
    std::fill(later_own.begin(), later_own.end(), 0);

    int j = row_dim - 1;
    for (; j >= 0; --j) {
      if (g_anchor[j] + box_size_[j] < cube_shape_.extent(j)) {
        g_anchor[j] += box_size_[j];
        break;
      }
      g_anchor[j] = low[j];
    }
    if (j < 0) break;
  }
  scratch.Trim();
  return stats;
}

/// Overlay value storage on top of OverlayGeometry, in one vector:
/// PagedRps's in-memory overlay. RelativePrefixSum keeps its values in
/// box-row chunks instead (core/box_row_store.h).
template <typename T>
class Overlay {
 public:
  Overlay(const Shape& cube_shape, const CellIndex& box_size)
      : geometry_(std::make_shared<const OverlayGeometry>(cube_shape,
                                                          box_size)),
        values_(static_cast<size_t>(geometry_->total_stored_cells()), T{}) {}

  const OverlayGeometry& geometry() const { return *geometry_; }

  const T& at_slot(int64_t slot) const {
    RPS_DCHECK(slot >= 0 &&
               slot < static_cast<int64_t>(values_.size()));
    return values_[static_cast<size_t>(slot)];
  }
  T& at_slot(int64_t slot) {
    RPS_DCHECK(slot >= 0 &&
               slot < static_cast<int64_t>(values_.size()));
    return values_[static_cast<size_t>(slot)];
  }

  /// Value of the stored cell with in-box `offsets` of box
  /// `box_index`.
  const T& at(const CellIndex& box_index, const CellIndex& offsets) const {
    return at_slot(geometry_->SlotOf(box_index, offsets));
  }
  T& at(const CellIndex& box_index, const CellIndex& offsets) {
    return at_slot(geometry_->SlotOf(box_index, offsets));
  }

  /// Pointer to `len` consecutive slots starting at `slot`, for the
  /// row kernels. Slot order within a box follows BorderRank: when a
  /// stored cell has a zero offset in some dimension before the
  /// innermost, incrementing its innermost offset advances its slot
  /// by exactly one, so such "rows" of stored cells are contiguous
  /// spans (OverlayGeometry::Scatter emits its runs on this).
  const T* slot_span(int64_t slot, int64_t len) const {
    RPS_DCHECK(slot >= 0 && len >= 0 &&
               slot + len <= static_cast<int64_t>(values_.size()));
    return values_.data() + slot;
  }
  T* slot_span(int64_t slot, int64_t len) {
    RPS_DCHECK(slot >= 0 && len >= 0 &&
               slot + len <= static_cast<int64_t>(values_.size()));
    return values_.data() + slot;
  }

  int64_t num_values() const { return static_cast<int64_t>(values_.size()); }

  void FillZero() {
    for (auto& v : values_) v = T{};
  }

 private:
  // Immutable, so copies (structure clones) share it.
  std::shared_ptr<const OverlayGeometry> geometry_;
  std::vector<T> values_;
};

}  // namespace rps

#endif  // RPS_CORE_OVERLAY_H_
