// The table-driven update scatter (OverlayGeometry::Scatter) against a
// per-cell reference built from DESIGN.md Section 1's update region
// with Box loops and SlotOf: the same RP cells and overlay slots, each
// once, boxes in grid-linear order, counts equal to the cost model's.
// Then whole RelativePrefixSum update sequences against the same
// reference, bit for bit on cent-valued doubles.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/overlay.h"
#include "core/relative_prefix_sum.h"
#include "cube/box.h"
#include "cube/nd_array.h"
#include "util/random.h"

namespace rps {
namespace {

// The cells one update writes, in write order.
struct Written {
  std::vector<int64_t> rp_cells;  // row-major cube indices
  std::vector<int64_t> slots;     // overlay slots
  std::vector<int64_t> strict_boxes;  // grid-linear ids passed to anchors
};

// DESIGN.md Section 1: the RP cells t >= u in u's box, then, for every
// box whose grid index dominates u's (except u's own), in grid-linear
// order, the product set c_j = a_j where u_j <= a_j and
// c_j in [u_j, a_j + e_j) where u_j > a_j, enumerated row-major.
Written Reference(const OverlayGeometry& geo, const CellIndex& cell) {
  const Shape& shape = geo.cube_shape();
  const int d = shape.dims();
  Written out;
  const CellIndex own = geo.BoxIndexOf(cell);
  const Box tail(cell, geo.RegionOf(own).hi());
  CellIndex t = tail.lo();
  do {
    out.rp_cells.push_back(shape.Linearize(t));
  } while (NextIndexInBox(tail, t));

  const Box dominating(own, Box::All(geo.grid_shape()).hi());
  CellIndex box = dominating.lo();
  do {
    if (box == own) continue;
    const CellIndex anchor = geo.AnchorOf(box);
    const CellIndex extents = geo.ExtentsOf(box);
    CellIndex lo = CellIndex::Filled(d, 0);
    CellIndex hi = CellIndex::Filled(d, 0);
    for (int j = 0; j < d; ++j) {
      if (cell[j] > anchor[j]) {
        lo[j] = cell[j] - anchor[j];
        hi[j] = extents[j] - 1;
      }
    }
    const Box offsets_box(lo, hi);
    CellIndex offsets = lo;
    do {
      out.slots.push_back(geo.SlotOf(box, offsets));
    } while (NextIndexInBox(offsets_box, offsets));
  } while (NextIndexInBox(dominating, box));
  return out;
}

// Runs Scatter<kDims> and expands its runs cell by cell.
template <int kDims>
Written Expand(const OverlayGeometry& geo, const CellIndex& cell) {
  int64_t at[kMaxDims];
  for (int j = 0; j < cell.dims(); ++j) at[j] = cell[j];
  Written out;
  bool boxes_started = false;
  geo.Scatter<kDims>(
      at,
      [&](int64_t start, int64_t len) {
        EXPECT_FALSE(boxes_started) << "RP run after an overlay run";
        EXPECT_GE(len, 1);
        for (int64_t i = 0; i < len; ++i) out.rp_cells.push_back(start + i);
      },
      [&](int64_t slot, int64_t len) {
        boxes_started = true;
        EXPECT_GE(len, 1);
        for (int64_t i = 0; i < len; ++i) out.slots.push_back(slot + i);
      },
      [&](int64_t box, int64_t count) {
        boxes_started = true;
        EXPECT_GE(count, 1);
        for (int64_t i = 0; i < count; ++i) {
          out.slots.push_back(geo.AnchorSlotOfLinear(box + i));
          out.strict_boxes.push_back(box + i);
        }
      });
  return out;
}

template <int kDims>
void ExpectScatterMatchesReference(const Shape& shape,
                                   const CellIndex& box_size) {
  const OverlayGeometry geo(shape, box_size);
  const Shape& grid = geo.grid_shape();
  CellIndex cell = CellIndex::Filled(shape.dims(), 0);
  do {
    const Written expected = Reference(geo, cell);
    const Written actual = Expand<kDims>(geo, cell);
    ASSERT_EQ(actual.rp_cells, expected.rp_cells)
        << "RP cells of " << cell.ToString() << " in " << shape.ToString();
    ASSERT_EQ(actual.slots, expected.slots)
        << "overlay slots of " << cell.ToString() << " in "
        << shape.ToString();
    const UpdateStats predicted = RpsUpdateCells(geo, cell);
    ASSERT_EQ(static_cast<int64_t>(actual.rp_cells.size()),
              predicted.primary_cells);
    ASSERT_EQ(static_cast<int64_t>(actual.slots.size()), predicted.aux_cells);
    // Only strictly dominating boxes go to `anchors`.
    const CellIndex own = geo.BoxIndexOf(cell);
    for (const int64_t linear : actual.strict_boxes) {
      const CellIndex box = grid.Delinearize(linear);
      for (int j = 0; j < shape.dims(); ++j) {
        ASSERT_GT(box[j], own[j])
            << "box " << box.ToString() << " passed as a strict dominator of "
            << cell.ToString();
      }
    }
  } while (NextIndex(shape, cell));
}

struct ScatterCase {
  Shape shape;
  CellIndex box_size;
};

// Clipped edge boxes, k = 1 and k = n for d = 1..4, and boxes wide
// enough for runs of kernels::kDispatchMinLen cells and more.
std::vector<ScatterCase> ScatterCases() {
  return {
      {Shape{40, 70}, CellIndex{20, 33}},
      {Shape{4, 5, 40}, CellIndex{2, 3, 18}},
      {Shape{17}, CellIndex{4}},
      {Shape{9}, CellIndex{1}},
      {Shape{9}, CellIndex{9}},
      {Shape{10, 7}, CellIndex{3, 4}},
      {Shape{11, 13}, CellIndex{4, 5}},
      {Shape{8, 8}, CellIndex{1, 1}},
      {Shape{8, 8}, CellIndex{8, 8}},
      {Shape{9, 10}, CellIndex{9, 1}},
      {Shape{7, 6, 5}, CellIndex{3, 2, 4}},
      {Shape{4, 4, 4}, CellIndex{1, 1, 1}},
      {Shape{5, 5, 5}, CellIndex{5, 5, 5}},
      {Shape{6, 7, 5}, CellIndex{6, 3, 1}},
      {Shape{5, 4, 3, 5}, CellIndex{2, 3, 2, 2}},
      {Shape{3, 3, 3, 3}, CellIndex{1, 1, 1, 1}},
      {Shape{3, 3, 3, 3}, CellIndex{3, 3, 3, 3}},
      {Shape{4, 5, 4, 3}, CellIndex{3, 2, 4, 2}},
  };
}

TEST(UpdateScatterTest, RuntimeInstanceWritesTheReferenceRegion) {
  for (const ScatterCase& c : ScatterCases()) {
    SCOPED_TRACE(c.shape.ToString() + " boxes " + c.box_size.ToString());
    ExpectScatterMatchesReference<0>(c.shape, c.box_size);
  }
}

TEST(UpdateScatterTest, TwoDimensionalInstanceWritesTheReferenceRegion) {
  for (const ScatterCase& c : ScatterCases()) {
    if (c.shape.dims() != 2) continue;
    SCOPED_TRACE(c.shape.ToString() + " boxes " + c.box_size.ToString());
    ExpectScatterMatchesReference<2>(c.shape, c.box_size);
  }
}

// A seeded sequence of Adds with cent-valued double deltas leaves the
// RP array and the overlay byte-identical to the reference applied to
// copies of them: every touched cell receives exactly one += delta per
// Add, so the order of the writes cannot change a bit.
TEST(UpdateScatterTest, AddsAreBitwiseTheReferenceOnCentValuedDoubles) {
  Rng rng(0x5ca7);
  for (const ScatterCase& c : ScatterCases()) {
    SCOPED_TRACE(c.shape.ToString() + " boxes " + c.box_size.ToString());
    NdArray<double> cube(c.shape);
    for (int64_t i = 0; i < cube.num_cells(); ++i) {
      cube.at_linear(i) =
          static_cast<double>(rng.UniformInt(-99999, 99999)) / 100.0;
    }
    RelativePrefixSum<double> rps(cube, c.box_size, /*pool=*/nullptr);
    const NdArray<double> built_rp = rps.MaterializeRp();
    std::vector<double> rp(built_rp.data(),
                           built_rp.data() + cube.num_cells());
    std::vector<double> overlay = rps.MaterializeOverlay();
    for (int step = 0; step < 200; ++step) {
      CellIndex cell = CellIndex::Filled(c.shape.dims(), 0);
      for (int j = 0; j < c.shape.dims(); ++j) {
        cell[j] = rng.UniformInt(0, c.shape.extent(j) - 1);
      }
      const double delta =
          static_cast<double>(rng.UniformInt(-999999, 999999)) / 100.0;
      const Written region = Reference(rps.geometry(), cell);
      for (const int64_t i : region.rp_cells) {
        rp[static_cast<size_t>(i)] += delta;
      }
      for (const int64_t slot : region.slots) {
        overlay[static_cast<size_t>(slot)] += delta;
      }
      const UpdateStats stats = rps.Add(cell, delta);
      ASSERT_EQ(stats.primary_cells,
                static_cast<int64_t>(region.rp_cells.size()));
      ASSERT_EQ(stats.aux_cells, static_cast<int64_t>(region.slots.size()));
    }
    const NdArray<double> rp_cells = rps.MaterializeRp();
    const std::vector<double> slots = rps.MaterializeOverlay();
    ASSERT_EQ(std::memcmp(rp.data(), rp_cells.data(),
                          rp.size() * sizeof(double)),
              0)
        << "RP array differs from the reference";
    ASSERT_EQ(std::memcmp(overlay.data(), slots.data(),
                          overlay.size() * sizeof(double)),
              0)
        << "overlay differs from the reference";
  }
}

}  // namespace
}  // namespace rps
