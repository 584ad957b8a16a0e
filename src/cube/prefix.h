// In-place prefix-sum and difference transforms along cube dimensions.
//
// Running a prefix pass along every dimension turns A into the prefix
// array P of Ho et al. (paper, Figure 2):
//   P[x] = SUM(A[0..x])  for every cell x.
// The difference transforms invert the passes exactly (the aggregate
// operator must be invertible, as the paper requires).
//
// The passes are written as contiguous row kernels
// (cube/row_kernels.h): the innermost dimension is an in-place scan
// per row, every outer dimension adds whole rows into their
// successors. Both vectorize, and both accept an optional ThreadPool
// -- row groups are independent, and chunk boundaries never depend on
// thread count, so parallel results are bit-identical to serial ones.

#ifndef RPS_CUBE_PREFIX_H_
#define RPS_CUBE_PREFIX_H_

#include <algorithm>

#include "cube/nd_array.h"
#include "cube/row_kernels.h"
#include "util/thread_pool.h"

namespace rps {

/// Cells a ParallelFor chunk should cover before enlisting the pool
/// pays for itself; below this, transforms stay serial.
inline constexpr int64_t kMinCellsPerParallelChunk = int64_t{1} << 15;

/// One segmented prefix pass over the row-major cells of `shape` at
/// `data`: for every row along dimension `dim`, cell[i] += cell[i-1]
/// except where i is a multiple of `restart` (the box-local RP scan;
/// pass restart >= extent for a plain prefix pass). `pool` may be null
/// for serial execution.
template <typename T>
void SegmentedPrefixSumAlongDim(T* data, const Shape& shape, int dim,
                                int64_t restart, ThreadPool* pool = nullptr) {
  RPS_CHECK(dim >= 0 && dim < shape.dims());
  RPS_CHECK(restart >= 1);
  const int64_t extent = shape.extent(dim);
  if (extent == 1) return;
  const int64_t stride = shape.Stride(dim);
  const int64_t block = stride * extent;  // cells spanned by one row group
  const int64_t num_blocks = shape.num_cells() / block;

  auto scan_blocks = [=](int64_t block_lo, int64_t block_hi) {
    for (int64_t b = block_lo; b < block_hi; ++b) {
      T* const base = data + b * block;
      if (stride == 1) {
        // Innermost dimension: each block is one contiguous row.
        SegmentedPrefixScanRow(base, extent, restart);
      } else {
        // Outer dimension: add each row into its successor, skipping
        // segment starts.
        for (int64_t i = 1; i < extent; ++i) {
          if (i % restart == 0) continue;
          AddRowInto(base + i * stride, base + (i - 1) * stride, stride);
        }
      }
    }
  };

  if (pool != nullptr && num_blocks > 1) {
    const int64_t grain =
        std::max<int64_t>(1, kMinCellsPerParallelChunk / block);
    pool->ParallelFor(0, num_blocks, grain, scan_blocks);
  } else {
    scan_blocks(0, num_blocks);
  }
}

/// The same pass over the cells of `array`.
template <typename T>
void SegmentedPrefixSumAlongDim(NdArray<T>& array, int dim, int64_t restart,
                                ThreadPool* pool = nullptr) {
  SegmentedPrefixSumAlongDim(array.data(), array.shape(), dim, restart, pool);
}

/// One prefix pass: for every row along dimension `dim`,
/// cell[i] += cell[i-1].
template <typename T>
void PrefixSumAlongDim(NdArray<T>& array, int dim, ThreadPool* pool = nullptr) {
  SegmentedPrefixSumAlongDim(array, dim, array.shape().extent(dim), pool);
}

/// Inverse of PrefixSumAlongDim.
template <typename T>
void DifferenceAlongDim(NdArray<T>& array, int dim) {
  const Shape& shape = array.shape();
  RPS_CHECK(dim >= 0 && dim < shape.dims());
  const int64_t extent = shape.extent(dim);
  if (extent == 1) return;
  const int64_t stride = shape.Stride(dim);
  const int64_t num_cells = array.num_cells();
  const int64_t block = stride * extent;
  for (int64_t base = 0; base < num_cells; base += block) {
    for (int64_t lane = 0; lane < stride; ++lane) {
      int64_t offset = base + lane + (extent - 1) * stride;
      for (int64_t i = extent - 1; i >= 1; --i) {
        array.at_linear(offset) -= array.at_linear(offset - stride);
        offset -= stride;
      }
    }
  }
}

/// Transforms `array` into its full prefix-sum array P in place
/// (one pass per dimension, O(d * N) total).
template <typename T>
void PrefixSumInPlace(NdArray<T>& array, ThreadPool* pool = nullptr) {
  for (int dim = 0; dim < array.dims(); ++dim) {
    PrefixSumAlongDim(array, dim, pool);
  }
}

/// Inverse of PrefixSumInPlace.
template <typename T>
void DifferenceInPlace(NdArray<T>& array) {
  for (int dim = array.dims() - 1; dim >= 0; --dim) {
    DifferenceAlongDim(array, dim);
  }
}

}  // namespace rps

#endif  // RPS_CUBE_PREFIX_H_
