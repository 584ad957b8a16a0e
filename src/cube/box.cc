#include "cube/box.h"

#include <algorithm>

namespace rps {

Box Box::Cell(const CellIndex& cell) { return Box(cell, cell); }

int64_t Box::NumCells() const {
  int64_t total = 1;
  for (int j = 0; j < dims(); ++j) total *= Extent(j);
  return total;
}

bool Box::Contains(const CellIndex& cell) const {
  if (cell.dims() != dims()) return false;
  for (int j = 0; j < dims(); ++j) {
    if (cell[j] < lo_[j] || cell[j] > hi_[j]) return false;
  }
  return true;
}

std::optional<Box> Box::Intersect(const Box& other) const {
  RPS_CHECK(other.dims() == dims());
  CellIndex lo = lo_;
  CellIndex hi = hi_;
  for (int j = 0; j < dims(); ++j) {
    lo[j] = std::max(lo[j], other.lo_[j]);
    hi[j] = std::min(hi[j], other.hi_[j]);
    if (lo[j] > hi[j]) return std::nullopt;
  }
  return Box(lo, hi);
}

bool Box::Within(const Shape& shape) const {
  if (shape.dims() != dims()) return false;
  for (int j = 0; j < dims(); ++j) {
    if (lo_[j] < 0 || hi_[j] >= shape.extent(j)) return false;
  }
  return true;
}

std::string Box::ToString() const {
  return lo_.ToString() + ".." + hi_.ToString();
}

bool NextIndexInBox(const Box& box, CellIndex& index) {
  RPS_DCHECK(index.dims() == box.dims());
  for (int j = box.dims() - 1; j >= 0; --j) {
    if (++index[j] <= box.hi()[j]) return true;
    index[j] = box.lo()[j];
  }
  return false;
}

}  // namespace rps
