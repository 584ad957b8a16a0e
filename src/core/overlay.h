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

#include <cstdint>
#include <memory>
#include <vector>

#include "cube/box.h"
#include "cube/index.h"
#include "util/check.h"
#include "util/status.h"

namespace rps {

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

    // The affine slot map of the boxes with sides `side` and written
    // dimensions q, computed once per grid row and side: the boxes after
    // the covering one in a grid row share Q and every side but the
    // last box's innermost one.
    struct Plan {
      uint32_t q;
      int h;          // the last dimension of Q: its offsets form runs
      int64_t first;  // C + sum_{j in Q} o_j * coef_j, less the base
      int64_t run;    // e_h - o_h
      int64_t coef[kMaxDims];
    };
    int64_t side[kMaxDims];  // e_j of the boxes being planned
    const auto plan_boxes = [&](uint32_t q, Plan* plan) {
      plan->q = q;
      if (q == 0) return;
      int64_t suffix[kMaxDims];  // prod_{i>j} e_i
      suffix[d - 1] = 1;
      for (int j = d - 1; j > 0; --j) suffix[j - 1] = suffix[j] * side[j];
      const int g = __builtin_ctz(~q);
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
        c += at[j]->offset * plan->coef[j];
      }
      plan->first = c;
      // Offsets in row-major order: the last dimension of Q varies
      // fastest and has the smallest coef, 1 when its run is contiguous.
      plan->h = 31 - __builtin_clz(q);
      plan->run = side[plan->h] - at[plan->h]->offset;
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
