// Axis-aligned hyper-rectangles of cells with inclusive bounds.
//
// A Box is the region of a range-sum query (paper, Section 2: "the sum
// of all the cells that fall within the specified range") and also the
// unit of overlay partitioning (Section 3.1). Bounds are inclusive on
// both ends, matching the paper's [lo..hi] range notation.

#ifndef RPS_CUBE_BOX_H_
#define RPS_CUBE_BOX_H_

#include <cstdint>
#include <optional>
#include <string>

#include "cube/index.h"

namespace rps {

/// Inclusive cell range [lo, hi] per dimension. Invariant:
/// lo.dims() == hi.dims() and lo[j] <= hi[j] for all j.
class Box {
 public:
  Box() = default;
  Box(CellIndex lo, CellIndex hi);

  /// The box covering all of `shape`.
  static Box All(const Shape& shape);

  /// The single-cell box {cell}.
  static Box Cell(const CellIndex& cell);

  const CellIndex& lo() const { return lo_; }
  const CellIndex& hi() const { return hi_; }
  int dims() const { return lo_.dims(); }

  /// Extent of the box along dimension j (>= 1).
  int64_t Extent(int j) const { return hi_[j] - lo_[j] + 1; }

  /// Number of cells in the box (product of extents).
  int64_t NumCells() const;

  bool Contains(const CellIndex& cell) const;

  /// Intersection with `other`, or nullopt when disjoint.
  std::optional<Box> Intersect(const Box& other) const;

  /// True if the box lies entirely inside `shape`.
  bool Within(const Shape& shape) const;

  friend bool operator==(const Box& a, const Box& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

  std::string ToString() const;

 private:
  CellIndex lo_;
  CellIndex hi_;
};

/// Advances `index` over the cells of `box` in row-major order; returns
/// false (resetting `index` to box.lo()) after the last cell. Start
/// from box.lo().
bool NextIndexInBox(const Box& box, CellIndex& index);

/// Calls fn(start) with the first cell of every innermost-dimension
/// row of `box`, in row-major order. The unit of iteration for the
/// row kernels (cube/row_kernels.h): per-cell index arithmetic is
/// paid once per row instead of once per cell.
template <typename Fn>
void ForEachRowStart(const Box& box, Fn&& fn) {
  const int d = box.dims();
  CellIndex start = box.lo();
  for (;;) {
    fn(static_cast<const CellIndex&>(start));
    int j = d - 2;
    for (; j >= 0; --j) {
      if (++start[j] <= box.hi()[j]) break;
      start[j] = box.lo()[j];
    }
    if (j < 0) return;  // wrapped past the last row
  }
}

}  // namespace rps

#endif  // RPS_CUBE_BOX_H_
