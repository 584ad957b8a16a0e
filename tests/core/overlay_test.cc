// Unit tests for OverlayGeometry: box grid arithmetic, clipped edge
// boxes, the compact slot mapping (bijective, dense, anchor-first),
// and the table-driven corner lookup.

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/overlay.h"
#include "util/math.h"

namespace rps {
namespace {

TEST(OverlayGeometryTest, PaperPartitionFigure5) {
  // "array A has been partitioned into overlay boxes of size 3x3 ...
  // the total number of overlay boxes is (9/3)^2 = 9".
  const OverlayGeometry geo(Shape{9, 9}, CellIndex{3, 3});
  EXPECT_EQ(geo.num_boxes(), 9);
  EXPECT_EQ(geo.grid_shape(), (Shape{3, 3}));
  // Anchors at (0,0), (0,3), ..., (6,6).
  EXPECT_EQ(geo.AnchorOf(CellIndex{0, 0}), (CellIndex{0, 0}));
  EXPECT_EQ(geo.AnchorOf(CellIndex{1, 2}), (CellIndex{3, 6}));
  EXPECT_EQ(geo.AnchorOf(CellIndex{2, 2}), (CellIndex{6, 6}));
  // Each box covers 3^2 = 9 cells and stores 3^2 - 2^2 = 5 of them.
  EXPECT_EQ(geo.RegionOf(CellIndex{1, 1}).NumCells(), 9);
  EXPECT_EQ(geo.StoredCellsInBox(CellIndex{1, 1}), 5);
  EXPECT_EQ(geo.total_stored_cells(), 9 * 5);
}

TEST(OverlayGeometryTest, BoxIndexOfCoversEveryCell) {
  const OverlayGeometry geo(Shape{10, 7}, CellIndex{4, 3});
  CellIndex cell = CellIndex::Filled(2, 0);
  do {
    const CellIndex box = geo.BoxIndexOf(cell);
    EXPECT_TRUE(geo.RegionOf(box).Contains(cell))
        << cell.ToString() << " not covered by box " << box.ToString();
  } while (NextIndex(Shape{10, 7}, cell));
}

TEST(OverlayGeometryTest, EdgeBoxesAreClipped) {
  // 10 cells with box side 4: boxes of extents 4, 4, 2.
  const OverlayGeometry geo(Shape{10}, CellIndex{4});
  EXPECT_EQ(geo.num_boxes(), 3);
  EXPECT_EQ(geo.ExtentsOf(CellIndex{0}), (CellIndex{4}));
  EXPECT_EQ(geo.ExtentsOf(CellIndex{2}), (CellIndex{2}));
  EXPECT_EQ(geo.RegionOf(CellIndex{2}), Box(CellIndex{8}, CellIndex{9}));
  // In one dimension every covered cell is stored
  // (k^1 - (k-1)^1 = 1 per... no: extents e -> e - (e-1) = 1).
  EXPECT_EQ(geo.StoredCellsInBox(CellIndex{0}), 1);
}

TEST(OverlayGeometryTest, StoredCellCountMatchesFormula) {
  // k^d - (k-1)^d per full box, for several d and k.
  for (int d = 1; d <= 4; ++d) {
    for (int64_t k = 1; k <= 4; ++k) {
      const int64_t n = k * 3;
      const OverlayGeometry geo(Shape::Hypercube(d, n),
                                CellIndex::Filled(d, k));
      EXPECT_EQ(geo.StoredCellsInBox(CellIndex::Filled(d, 0)),
                IntPow(k, d) - IntPow(k - 1, d))
          << "d=" << d << " k=" << k;
    }
  }
}

TEST(OverlayGeometryTest, SlotMappingIsBijective) {
  // Every stored cell of every box maps to a distinct slot, slots are
  // dense in [0, total), and the anchor takes the box's first slot.
  const OverlayGeometry geo(Shape{7, 5, 6}, CellIndex{3, 2, 4});
  std::set<int64_t> seen;
  CellIndex box_index = CellIndex::Filled(3, 0);
  do {
    const CellIndex extents = geo.ExtentsOf(box_index);
    const Shape box_shape = Shape::FromExtents(
        {extents[0], extents[1], extents[2]});
    EXPECT_EQ(geo.SlotOf(box_index, CellIndex{0, 0, 0}),
              geo.AnchorSlotOf(box_index));
    int64_t stored = 0;
    CellIndex offsets = CellIndex::Filled(3, 0);
    do {
      if (offsets[0] != 0 && offsets[1] != 0 && offsets[2] != 0) continue;
      const int64_t slot = geo.SlotOf(box_index, offsets);
      EXPECT_TRUE(seen.insert(slot).second)
          << "duplicate slot " << slot << " at box "
          << box_index.ToString() << " offsets " << offsets.ToString();
      ++stored;
    } while (NextIndex(box_shape, offsets));
    EXPECT_EQ(stored, geo.StoredCellsInBox(box_index));
  } while (NextIndex(geo.grid_shape(), box_index));
  EXPECT_EQ(static_cast<int64_t>(seen.size()), geo.total_stored_cells());
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), geo.total_stored_cells() - 1);
}

TEST(OverlayGeometryTest, CornerReadsEveryBorderProjectionInMaskOrder) {
  // For every target, Corner must name the anchor slot, the RP cell
  // and SlotOf of each border projection in subset-mask order -- in
  // full and clipped boxes, for k = 1 and k = n, through the runtime-d
  // instance and (d = 2) the compile-time one.
  const std::vector<std::pair<Shape, CellIndex>> cases = {
      {Shape{10}, CellIndex{4}},         {Shape{10, 7}, CellIndex{4, 3}},
      {Shape{9, 9}, CellIndex{3, 3}},    {Shape{6, 5}, CellIndex{1, 5}},
      {Shape{7, 5, 6}, CellIndex{3, 2, 4}},
      {Shape{5, 4, 3, 6}, CellIndex{2, 3, 2, 4}}};
  for (const auto& [shape, box_size] : cases) {
    const OverlayGeometry geo(shape, box_size);
    const int d = shape.dims();
    CellIndex t = CellIndex::Filled(d, 0);
    do {
      const CellIndex box_index = geo.BoxIndexOf(t);
      const CellIndex anchor = geo.AnchorOf(box_index);
      int above[kMaxDims];
      int num_above = 0;
      for (int j = 0; j < d; ++j) {
        if (t[j] > anchor[j]) above[num_above++] = j;
      }
      std::vector<int64_t> expected;
      for (uint32_t mask = 1; mask < (1u << num_above); ++mask) {
        if (num_above == d && mask + 1 == (1u << num_above)) continue;
        CellIndex offsets = CellIndex::Filled(d, 0);
        for (int i = 0; i < num_above; ++i) {
          const int j = above[i];
          if (mask & (1u << i)) offsets[j] = t[j] - anchor[j];
        }
        expected.push_back(geo.SlotOf(box_index, offsets));
      }
      int64_t target[kMaxDims];
      for (int j = 0; j < d; ++j) target[j] = t[j];
      std::vector<int64_t> got;
      const auto record = [&](int64_t slot) { got.push_back(slot); };
      OverlayGeometry::CornerCells cells = geo.Corner(target, record);
      EXPECT_EQ(got, expected) << t.ToString();
      EXPECT_EQ(cells.anchor_slot, geo.AnchorSlotOf(box_index));
      EXPECT_EQ(cells.rp_cell, shape.Linearize(t));
      if (d == 2) {
        got.clear();
        cells = geo.Corner<2>(target, record);
        EXPECT_EQ(got, expected) << t.ToString();
        EXPECT_EQ(cells.anchor_slot, geo.AnchorSlotOf(box_index));
        EXPECT_EQ(cells.rp_cell, shape.Linearize(t));
      }
    } while (NextIndex(shape, t));
  }
}

TEST(OverlayGeometryTest, BoxSizeOneStoresEverything) {
  // k=1: every cell is an anchor; the overlay degenerates to a full
  // prefix array and RP degenerates to A.
  const OverlayGeometry geo(Shape{5, 5}, CellIndex{1, 1});
  EXPECT_EQ(geo.num_boxes(), 25);
  EXPECT_EQ(geo.total_stored_cells(), 25);
}

TEST(OverlayGeometryTest, BoxSizeFullCubeIsOneBox) {
  // k=n: a single box; the overlay stores only the faces through the
  // origin and RP degenerates to the full prefix array P.
  const OverlayGeometry geo(Shape{5, 5}, CellIndex{5, 5});
  EXPECT_EQ(geo.num_boxes(), 1);
  EXPECT_EQ(geo.total_stored_cells(), 25 - 16);
}

TEST(OverlayStorageTest, ValuesRoundTripThroughSlots) {
  Overlay<int64_t> overlay(Shape{6, 6}, CellIndex{3, 3});
  overlay.at(CellIndex{1, 1}, CellIndex{0, 2}) = 77;
  EXPECT_EQ(overlay.at(CellIndex{1, 1}, CellIndex{0, 2}), 77);
  overlay.FillZero();
  EXPECT_EQ(overlay.at(CellIndex{1, 1}, CellIndex{0, 2}), 0);
}

}  // namespace
}  // namespace rps
