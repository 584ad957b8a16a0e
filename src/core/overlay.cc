#include "core/overlay.h"

#include <algorithm>
#include <limits>

#include "util/math.h"

namespace rps {

OverlayGeometry::OverlayGeometry(const Shape& cube_shape,
                                 const CellIndex& box_size)
    : cube_shape_(cube_shape), box_size_(box_size) {
  RPS_CHECK(box_size.dims() == cube_shape.dims());
  std::vector<int64_t> grid_extents;
  grid_extents.reserve(static_cast<size_t>(cube_shape.dims()));
  for (int j = 0; j < cube_shape.dims(); ++j) {
    RPS_CHECK_MSG(box_size[j] >= 1 && box_size[j] <= cube_shape.extent(j),
                  "overlay box side must be in [1, extent]");
    RPS_CHECK_MSG(box_size[j] <= std::numeric_limits<int32_t>::max(),
                  "overlay box side must fit the coordinate tables");
    grid_extents.push_back(CeilDiv(cube_shape.extent(j), box_size[j]));
  }
  grid_shape_ = Shape::FromExtents(grid_extents);

  for (int j = 0; j < dims(); ++j) {
    coord_start_[j] = static_cast<int64_t>(coords_.size());
    const int64_t k = box_size[j];
    for (int64_t x = 0; x < cube_shape.extent(j); ++x) {
      const int64_t b = x / k;
      coords_.push_back(Coord{
          b * grid_shape_.Stride(j), static_cast<int32_t>(x - b * k),
          static_cast<int32_t>(std::min(k, cube_shape.extent(j) - b * k))});
    }
  }

  const int64_t num_boxes = grid_shape_.num_cells();
  slot_base_.resize(static_cast<size_t>(num_boxes) + 1);
  int64_t base = 0;
  CellIndex box_index = CellIndex::Filled(dims(), 0);
  for (int64_t b = 0; b < num_boxes; ++b) {
    slot_base_[static_cast<size_t>(b)] = base;
    base += StoredCellsInBox(box_index);
    NextIndex(grid_shape_, box_index);
  }
  slot_base_[static_cast<size_t>(num_boxes)] = base;
  total_stored_cells_ = base;

  const int64_t rows = grid_shape_.extent(0);
  RPS_CHECK_MSG(rows <= std::numeric_limits<int32_t>::max(),
                "overlay box rows must fit the coordinate tables");
  const int64_t k0 = box_size[0];
  const int64_t row_stride = cube_shape.Stride(0);
  const int64_t boxes_per_row = grid_shape_.Stride(0);
  box_rows_.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t first = slot_base_[static_cast<size_t>(r * boxes_per_row)];
    const int64_t end =
        slot_base_[static_cast<size_t>((r + 1) * boxes_per_row)];
    box_rows_.push_back(
        BoxRow{r * k0 * row_stride,
               std::min(k0, cube_shape.extent(0) - r * k0) * row_stride,
               first, end - first});
  }
  row_of_.reserve(static_cast<size_t>(cube_shape.extent(0)));
  for (int64_t x = 0; x < cube_shape.extent(0); ++x) {
    row_of_.push_back(static_cast<int32_t>(x / k0));
  }
}

CellIndex OverlayGeometry::BoxIndexOf(const CellIndex& cell) const {
  RPS_DCHECK(cube_shape_.Contains(cell));
  CellIndex box_index = CellIndex::Filled(dims(), 0);
  for (int j = 0; j < dims(); ++j) box_index[j] = cell[j] / box_size_[j];
  return box_index;
}

CellIndex OverlayGeometry::AnchorOf(const CellIndex& box_index) const {
  RPS_DCHECK(grid_shape_.Contains(box_index));
  CellIndex anchor = CellIndex::Filled(dims(), 0);
  for (int j = 0; j < dims(); ++j) anchor[j] = box_index[j] * box_size_[j];
  return anchor;
}

CellIndex OverlayGeometry::ExtentsOf(const CellIndex& box_index) const {
  RPS_DCHECK(grid_shape_.Contains(box_index));
  CellIndex extents = CellIndex::Filled(dims(), 0);
  for (int j = 0; j < dims(); ++j) {
    extents[j] = std::min(box_size_[j],
                          cube_shape_.extent(j) - box_index[j] * box_size_[j]);
  }
  return extents;
}

Box OverlayGeometry::RegionOf(const CellIndex& box_index) const {
  CellIndex lo = AnchorOf(box_index);
  CellIndex extents = ExtentsOf(box_index);
  CellIndex hi = lo;
  for (int j = 0; j < dims(); ++j) hi[j] = lo[j] + extents[j] - 1;
  return Box(lo, hi);
}

int64_t OverlayGeometry::StoredCellsInBox(const CellIndex& box_index) const {
  CellIndex extents = ExtentsOf(box_index);
  int64_t all = 1;
  int64_t interior = 1;
  for (int j = 0; j < dims(); ++j) {
    all *= extents[j];
    interior *= extents[j] - 1;
  }
  return all - interior;
}

int64_t OverlayGeometry::BorderRank(const CellIndex& extents,
                                    const CellIndex& offsets) const {
  // Stored cells have at least one zero offset. Group them by the
  // first dimension whose offset is zero: group g holds cells with
  // offsets o_0 > 0, ..., o_{g-1} > 0, o_g = 0 and o_{g+1..d-1} free.
  // |group g| = prod_{i<g}(e_i - 1) * prod_{i>g} e_i. Within a group
  // the cell's rank is the mixed-radix number formed by
  // (o_0 - 1, ..., o_{g-1} - 1, o_{g+1}, ..., o_{d-1}) with radices
  // (e_0 - 1, ..., e_{g-1} - 1, e_{g+1}, ..., e_{d-1}).
  int first_zero = -1;
  for (int j = 0; j < dims(); ++j) {
    RPS_DCHECK(offsets[j] >= 0 && offsets[j] < extents[j]);
    if (offsets[j] == 0) {
      first_zero = j;
      break;
    }
  }
  RPS_CHECK_MSG(first_zero >= 0,
                "interior box cell is not stored in the overlay");

  int64_t rank = 0;
  // Skip the full groups before `first_zero`.
  for (int g = 0; g < first_zero; ++g) {
    int64_t size = 1;
    for (int i = 0; i < g; ++i) size *= extents[i] - 1;
    for (int i = g + 1; i < dims(); ++i) size *= extents[i];
    rank += size;
  }
  // Mixed-radix rank inside the group.
  int64_t within = 0;
  for (int i = 0; i < first_zero; ++i) {
    within = within * (extents[i] - 1) + (offsets[i] - 1);
  }
  for (int i = first_zero + 1; i < dims(); ++i) {
    within = within * extents[i] + offsets[i];
  }
  return rank + within;
}

int64_t OverlayGeometry::SlotOf(const CellIndex& box_index,
                                const CellIndex& offsets) const {
  const int64_t box_linear = grid_shape_.Linearize(box_index);
  return slot_base_[static_cast<size_t>(box_linear)] +
         BorderRank(ExtentsOf(box_index), offsets);
}

int64_t OverlayGeometry::AnchorSlotOf(const CellIndex& box_index) const {
  // The all-zero offset cell is first in group 0, rank 0.
  const int64_t box_linear = grid_shape_.Linearize(box_index);
  return slot_base_[static_cast<size_t>(box_linear)];
}

Status OverlayGeometry::CheckInvariants(int64_t max_boxes) const {
  // Grid extents must match ceil(n_j / k_j).
  for (int j = 0; j < dims(); ++j) {
    if (box_size_[j] < 1 || box_size_[j] > cube_shape_.extent(j)) {
      return Status::Internal("overlay box side " + std::to_string(j) +
                              " outside [1, extent]");
    }
    if (grid_shape_.extent(j) != CeilDiv(cube_shape_.extent(j),
                                         box_size_[j])) {
      return Status::Internal("overlay grid extent " + std::to_string(j) +
                              " inconsistent with cube/box sizes");
    }
  }

  // slot_base_ must be a monotone prefix of per-box stored-cell
  // counts ending at total_stored_cells_.
  const int64_t num = num_boxes();
  if (static_cast<int64_t>(slot_base_.size()) != num + 1) {
    return Status::Internal("overlay slot table has wrong size");
  }
  CellIndex box_index = CellIndex::Filled(dims(), 0);
  for (int64_t b = 0; b < num; ++b) {
    const int64_t width = slot_base_[static_cast<size_t>(b) + 1] -
                          slot_base_[static_cast<size_t>(b)];
    if (width != StoredCellsInBox(box_index)) {
      return Status::Internal("overlay slot range of box " +
                              box_index.ToString() +
                              " disagrees with its stored-cell count");
    }
    NextIndex(grid_shape_, box_index);
  }
  if (slot_base_[static_cast<size_t>(num)] != total_stored_cells_) {
    return Status::Internal("overlay slot table does not end at "
                            "total_stored_cells");
  }

  // Box rows must tile the RP cells and the slots in order.
  int64_t rp_end = 0;
  int64_t slot_end = 0;
  for (int64_t r = 0; r < num_box_rows(); ++r) {
    const BoxRow& row = box_row(r);
    if (row.rp_begin != rp_end || row.slot_begin != slot_end) {
      return Status::Internal("box row " + std::to_string(r) +
                              " does not start where the previous one ends");
    }
    rp_end += row.rp_cells;
    slot_end += row.slots;
  }
  if (rp_end != cube_shape_.num_cells() || slot_end != total_stored_cells_) {
    return Status::Internal("box rows do not cover the RP cells and slots");
  }

  // For a sample of boxes, SlotOf must map the box's stored cells
  // bijectively onto [slot_base[b], slot_base[b+1]).
  const int64_t stride = std::max<int64_t>(1, num / std::max<int64_t>(
                                                      1, max_boxes));
  box_index = CellIndex::Filled(dims(), 0);
  for (int64_t b = 0; b < num; ++b, NextIndex(grid_shape_, box_index)) {
    if (b % stride != 0) continue;
    const int64_t lo = slot_base_[static_cast<size_t>(b)];
    const int64_t hi = slot_base_[static_cast<size_t>(b) + 1];
    if (AnchorSlotOf(box_index) != lo) {
      return Status::Internal("anchor slot of box " + box_index.ToString() +
                              " is not the first slot of its range");
    }
    std::vector<bool> seen(static_cast<size_t>(hi - lo), false);
    const CellIndex extents = ExtentsOf(box_index);
    std::vector<int64_t> e(static_cast<size_t>(dims()));
    for (int j = 0; j < dims(); ++j) e[static_cast<size_t>(j)] = extents[j];
    const Shape box_shape = Shape::FromExtents(e);
    CellIndex offsets = CellIndex::Filled(dims(), 0);
    do {
      bool stored = false;
      for (int j = 0; j < dims(); ++j) {
        if (offsets[j] == 0) {
          stored = true;
          break;
        }
      }
      if (!stored) continue;
      const int64_t slot = SlotOf(box_index, offsets);
      if (slot < lo || slot >= hi) {
        return Status::Internal("slot of offsets " + offsets.ToString() +
                                " in box " + box_index.ToString() +
                                " escapes the box's slot range");
      }
      if (seen[static_cast<size_t>(slot - lo)]) {
        return Status::Internal("two stored cells of box " +
                                box_index.ToString() + " share slot " +
                                std::to_string(slot));
      }
      seen[static_cast<size_t>(slot - lo)] = true;
    } while (NextIndex(box_shape, offsets));
    for (size_t i = 0; i < seen.size(); ++i) {
      if (!seen[i]) {
        return Status::Internal("slot " + std::to_string(lo +
                                static_cast<int64_t>(i)) + " of box " +
                                box_index.ToString() +
                                " is not reachable from any stored cell");
      }
    }
  }
  return Status::Ok();
}

}  // namespace rps
