// Cell indices and cube shapes.
//
// A data cube is a dense d-dimensional array (paper, Section 2). Cells
// are addressed by a CellIndex (one int64 coordinate per dimension);
// the Shape holds per-dimension extents and provides row-major
// linearization. Both types store coordinates inline (no heap) up to
// kMaxDims dimensions, which keeps index arithmetic allocation-free in
// query/update inner loops.

#ifndef RPS_CUBE_INDEX_H_
#define RPS_CUBE_INDEX_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace rps {

/// Maximum supported cube dimensionality. Cubes are dense (n^d cells),
/// so realistic d is small; 12 leaves ample headroom.
inline constexpr int kMaxDims = 12;

/// Coordinates of one cell of a d-dimensional cube.
class CellIndex {
 public:
  CellIndex() : dims_(0) {}
  CellIndex(std::initializer_list<int64_t> coords) : dims_(0) {
    RPS_CHECK(static_cast<int>(coords.size()) <= kMaxDims);
    for (int64_t c : coords) coord_[dims_++] = c;
  }
  /// An index with `dims` coordinates, all equal to `fill`.
  static CellIndex Filled(int dims, int64_t fill) {
    RPS_CHECK(dims >= 0 && dims <= kMaxDims);
    CellIndex idx;
    idx.dims_ = dims;
    for (int j = 0; j < dims; ++j) idx.coord_[j] = fill;
    return idx;
  }

  int dims() const { return dims_; }

  int64_t operator[](int j) const {
    RPS_DCHECK(j >= 0 && j < dims_);
    return coord_[j];
  }
  int64_t& operator[](int j) {
    RPS_DCHECK(j >= 0 && j < dims_);
    return coord_[j];
  }

  friend bool operator==(const CellIndex& a, const CellIndex& b) {
    if (a.dims_ != b.dims_) return false;
    for (int j = 0; j < a.dims_; ++j) {
      if (a.coord_[j] != b.coord_[j]) return false;
    }
    return true;
  }

  /// True if every coordinate of this index is <= (resp. >=) the
  /// other's. Partial orders: both can be false.
  bool AllLessEq(const CellIndex& other) const {
    RPS_DCHECK(dims_ == other.dims_);
    for (int j = 0; j < dims_; ++j) {
      if (coord_[j] > other.coord_[j]) return false;
    }
    return true;
  }
  bool AllGreaterEq(const CellIndex& other) const {
    RPS_DCHECK(dims_ == other.dims_);
    for (int j = 0; j < dims_; ++j) {
      if (coord_[j] < other.coord_[j]) return false;
    }
    return true;
  }

  /// "(i1, i2, ..., id)".
  std::string ToString() const;

 private:
  std::array<int64_t, kMaxDims> coord_;
  int dims_;
};

/// Per-dimension extents of a cube; provides row-major linearization.
class Shape {
 public:
  Shape() : dims_(0) {}
  Shape(std::initializer_list<int64_t> extents) : dims_(0) {
    RPS_CHECK(static_cast<int>(extents.size()) <= kMaxDims);
    for (int64_t e : extents) {
      RPS_CHECK_MSG(e >= 1, "Shape extents must be >= 1");
      extent_[dims_++] = e;
    }
  }
  /// A shape with the given extents (1 <= count <= kMaxDims, each >= 1).
  static Shape FromExtents(const std::vector<int64_t>& extents) {
    RPS_CHECK(!extents.empty() &&
              static_cast<int>(extents.size()) <= kMaxDims);
    Shape s;
    for (int64_t e : extents) {
      RPS_CHECK_MSG(e >= 1, "Shape extents must be >= 1");
      s.extent_[s.dims_++] = e;
    }
    return s;
  }

  /// A d-dimensional hypercube of side n.
  static Shape Hypercube(int dims, int64_t n) {
    RPS_CHECK(dims >= 1 && dims <= kMaxDims);
    RPS_CHECK(n >= 1);
    Shape s;
    s.dims_ = dims;
    for (int j = 0; j < dims; ++j) s.extent_[j] = n;
    return s;
  }

  int dims() const { return dims_; }
  int64_t extent(int j) const {
    RPS_DCHECK(j >= 0 && j < dims_);
    return extent_[j];
  }

  /// Total number of cells (product of extents). Checked for overflow.
  int64_t num_cells() const;

  /// True if `index` has matching dimensionality and every coordinate
  /// lies in [0, extent).
  bool Contains(const CellIndex& index) const;

  /// Row-major linear offset of `index`. Requires Contains(index).
  int64_t Linearize(const CellIndex& index) const;

  /// Inverse of Linearize. Requires 0 <= linear < num_cells().
  CellIndex Delinearize(int64_t linear) const;

  /// Row-major stride of dimension j (product of extents of dims > j).
  int64_t Stride(int j) const;

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.dims_ != b.dims_) return false;
    for (int j = 0; j < a.dims_; ++j) {
      if (a.extent_[j] != b.extent_[j]) return false;
    }
    return true;
  }

  std::string ToString() const;

 private:
  std::array<int64_t, kMaxDims> extent_{};
  int dims_;
};

/// Advances `index` to the next cell of `shape` in row-major order.
/// Returns false (leaving `index` at all-zeros) after the last cell.
/// Start iteration from CellIndex::Filled(shape.dims(), 0).
bool NextIndex(const Shape& shape, CellIndex& index);

}  // namespace rps

#endif  // RPS_CUBE_INDEX_H_
