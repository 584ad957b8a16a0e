// Reproduces every worked example in the paper on the 9x9 cube of
// Figure 1: the prefix array P (Figure 2), the RP array (Figure 10),
// the overlay anchor/border values and region sum of Section 3.3
// (Figure 13), and the update example of Section 4.2 (Figure 15),
// including the touched-cell counts (16 cells for RPS vs 64 for the
// prefix sum method).

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/prefix_sum_method.h"
#include "core/relative_prefix_sum.h"
#include "cube/nd_array.h"

namespace rps {
namespace {

// Figure 1. A[i][j]: i is the vertical coordinate (first dimension).
constexpr int64_t kFigure1[9][9] = {
    {3, 5, 1, 2, 2, 4, 6, 3, 3},  //
    {7, 3, 2, 6, 8, 7, 1, 2, 4},  //
    {2, 4, 2, 3, 3, 3, 4, 5, 7},  //
    {3, 2, 1, 5, 3, 5, 2, 8, 2},  //
    {4, 2, 1, 3, 3, 4, 7, 1, 3},  //
    {2, 3, 3, 6, 1, 8, 5, 1, 1},  //
    {4, 5, 2, 7, 1, 9, 3, 3, 4},  //
    {2, 4, 2, 2, 3, 1, 9, 1, 3},  //
    {5, 4, 3, 1, 3, 2, 1, 9, 6},
};

// Figure 2. The paper's prefix array P for Figure 1.
constexpr int64_t kFigure2[9][9] = {
    {3, 8, 9, 11, 13, 17, 23, 26, 29},
    {10, 18, 21, 29, 39, 50, 57, 62, 69},
    {12, 24, 29, 40, 53, 67, 78, 88, 102},
    {15, 29, 35, 51, 67, 86, 99, 117, 133},
    {19, 35, 42, 61, 80, 103, 123, 142, 161},
    {21, 40, 50, 75, 95, 126, 151, 171, 191},
    {25, 49, 61, 93, 114, 154, 182, 205, 229},
    {27, 55, 69, 103, 127, 168, 205, 229, 256},
    {32, 64, 81, 116, 143, 186, 224, 257, 290},
};

// Figure 10/13. The RP array with 3x3 overlay boxes.
constexpr int64_t kFigure10[9][9] = {
    {3, 8, 9, 2, 4, 8, 6, 9, 12},
    {10, 18, 21, 8, 18, 29, 7, 12, 19},
    {12, 24, 29, 11, 24, 38, 11, 21, 35},
    {3, 5, 6, 5, 8, 13, 2, 10, 12},
    {7, 11, 13, 8, 14, 23, 9, 18, 23},
    {9, 16, 21, 14, 21, 38, 14, 24, 30},
    {4, 9, 11, 7, 8, 17, 3, 6, 10},
    {6, 15, 19, 9, 13, 23, 12, 16, 23},
    {11, 24, 31, 10, 17, 29, 13, 26, 39},
};

// Figure 13's overlay table, as (row, col) -> value for every stored
// cell (anchors and borders of the nine 3x3 boxes).
constexpr int64_t kFigure13Overlay[9][9] = {
    {0, 0, 0, 9, 0, 0, 17, 0, 0},      //
    {0, -1, -1, 12, -1, -1, 33, -1, -1},
    {0, -1, -1, 20, -1, -1, 50, -1, -1},
    {12, 12, 17, 46, 13, 27, 97, 10, 24},
    {0, -1, -1, 7, -1, -1, 17, -1, -1},
    {0, -1, -1, 15, -1, -1, 40, -1, -1},
    {21, 19, 29, 86, 20, 51, 179, 20, 40},
    {0, -1, -1, 8, -1, -1, 14, -1, -1},
    {0, -1, -1, 20, -1, -1, 32, -1, -1},
};

// Figure 15's RP array after updating A[1,1] from 3 to 4.
constexpr int64_t kFigure15Rp[9][9] = {
    {3, 8, 9, 2, 4, 8, 6, 9, 12},
    {10, 19, 22, 8, 18, 29, 7, 12, 19},
    {12, 25, 30, 11, 24, 38, 11, 21, 35},
    {3, 5, 6, 5, 8, 13, 2, 10, 12},
    {7, 11, 13, 8, 14, 23, 9, 18, 23},
    {9, 16, 21, 14, 21, 38, 14, 24, 30},
    {4, 9, 11, 7, 8, 17, 3, 6, 10},
    {6, 15, 19, 9, 13, 23, 12, 16, 23},
    {11, 24, 31, 10, 17, 29, 13, 26, 39},
};

// Figure 15's overlay after the same update (-1 = not stored).
constexpr int64_t kFigure15Overlay[9][9] = {
    {0, 0, 0, 9, 0, 0, 17, 0, 0},
    {0, -1, -1, 13, -1, -1, 34, -1, -1},
    {0, -1, -1, 21, -1, -1, 51, -1, -1},
    {12, 13, 18, 47, 13, 27, 98, 10, 24},
    {0, -1, -1, 7, -1, -1, 17, -1, -1},
    {0, -1, -1, 15, -1, -1, 40, -1, -1},
    {21, 20, 30, 87, 20, 51, 180, 20, 40},
    {0, -1, -1, 8, -1, -1, 14, -1, -1},
    {0, -1, -1, 20, -1, -1, 32, -1, -1},
};

NdArray<int64_t> Figure1Cube() {
  NdArray<int64_t> cube(Shape{9, 9});
  for (int64_t i = 0; i < 9; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      cube.at(CellIndex{i, j}) = kFigure1[i][j];
    }
  }
  return cube;
}

// Reads the overlay value stored for absolute cube cell (i, j), which
// must be a stored (anchor or border) cell of its 3x3 box.
int64_t OverlayValueAt(const RelativePrefixSum<int64_t>& rps, int64_t i,
                       int64_t j) {
  const OverlayGeometry& geo = rps.geometry();
  const CellIndex cell{i, j};
  const CellIndex box_index = geo.BoxIndexOf(cell);
  const CellIndex anchor = geo.AnchorOf(box_index);
  const CellIndex offsets{i - anchor[0], j - anchor[1]};
  return rps.OverlayAt(box_index, offsets);
}

TEST(PaperExampleTest, Figure2PrefixArray) {
  NdArray<int64_t> prefix = Figure1Cube();
  PrefixSumInPlace(prefix);
  for (int64_t i = 0; i < 9; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      EXPECT_EQ(prefix.at(CellIndex{i, j}), kFigure2[i][j])
          << "P[" << i << "," << j << "]";
    }
  }
}

TEST(PaperExampleTest, Figure10RpArray) {
  RelativePrefixSum<int64_t> rps(Figure1Cube(), CellIndex{3, 3});
  const NdArray<int64_t> rp = rps.MaterializeRp();
  for (int64_t i = 0; i < 9; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      EXPECT_EQ(rp.at(CellIndex{i, j}), kFigure10[i][j])
          << "RP[" << i << "," << j << "]";
    }
  }
}

TEST(PaperExampleTest, Figure13OverlayValues) {
  RelativePrefixSum<int64_t> rps(Figure1Cube(), CellIndex{3, 3});
  for (int64_t i = 0; i < 9; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      if (kFigure13Overlay[i][j] < 0) continue;  // interior: not stored
      EXPECT_EQ(OverlayValueAt(rps, i, j), kFigure13Overlay[i][j])
          << "O[" << i << "," << j << "]";
    }
  }
}

TEST(PaperExampleTest, Section33AnchorAndBorderWalkthrough) {
  // "The anchor value in overlay cell O[3,3] is ... 46"; the border
  // values in cells [4,3], [5,3], [3,4], [3,5] are 7, 15, 13, 27.
  RelativePrefixSum<int64_t> rps(Figure1Cube(), CellIndex{3, 3});
  EXPECT_EQ(OverlayValueAt(rps, 3, 3), 46);
  EXPECT_EQ(OverlayValueAt(rps, 4, 3), 7);
  EXPECT_EQ(OverlayValueAt(rps, 5, 3), 15);
  EXPECT_EQ(OverlayValueAt(rps, 3, 4), 13);
  EXPECT_EQ(OverlayValueAt(rps, 3, 5), 27);
}

TEST(PaperExampleTest, Section33CompleteRegionSum) {
  // "The complete region sum for the region A[0,0]:A[7,5] is thus
  // 86+51+8+23=168."
  RelativePrefixSum<int64_t> rps(Figure1Cube(), CellIndex{3, 3});
  EXPECT_EQ(OverlayValueAt(rps, 6, 3), 86);  // anchor of covering box
  EXPECT_EQ(OverlayValueAt(rps, 6, 5), 51);  // border value X2
  EXPECT_EQ(OverlayValueAt(rps, 7, 3), 8);   // border value Y1
  EXPECT_EQ(rps.MaterializeRp().at(CellIndex{7, 5}), 23);
  EXPECT_EQ(rps.PrefixSum(CellIndex{7, 5}), 168);
  EXPECT_EQ(rps.RangeSum(Box(CellIndex{0, 0}, CellIndex{7, 5})), 168);
}

TEST(PaperExampleTest, Figure15UpdateExample) {
  // Update A[1,1] from 3 to 4. "the total update cost for the overlay
  // algorithm is sixteen cells (twelve overlay cells and four cells
  // in RP)".
  RelativePrefixSum<int64_t> rps(Figure1Cube(), CellIndex{3, 3});
  const UpdateStats stats = rps.Set(CellIndex{1, 1}, 4);
  EXPECT_EQ(stats.primary_cells, 4);
  EXPECT_EQ(stats.aux_cells, 12);
  EXPECT_EQ(stats.total(), 16);

  const NdArray<int64_t> rp = rps.MaterializeRp();
  for (int64_t i = 0; i < 9; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      EXPECT_EQ(rp.at(CellIndex{i, j}), kFigure15Rp[i][j])
          << "RP[" << i << "," << j << "] after update";
      if (kFigure15Overlay[i][j] >= 0) {
        EXPECT_EQ(OverlayValueAt(rps, i, j), kFigure15Overlay[i][j])
            << "O[" << i << "," << j << "] after update";
      }
    }
  }
  EXPECT_EQ(rps.ValueAt(CellIndex{1, 1}), 4);
}

TEST(PaperExampleTest, Figure4PrefixSumUpdateTouches64Cells) {
  // "compared to sixty four cells in the prefix sum method
  // (Figure 4)".
  PrefixSumMethod<int64_t> ps(Figure1Cube());
  const UpdateStats stats = ps.Set(CellIndex{1, 1}, 4);
  EXPECT_EQ(stats.total(), 64);
  EXPECT_EQ(PrefixSumUpdateCells(Shape{9, 9}, CellIndex{1, 1}), 64);
  // Figure 4's updated P values spot-checked.
  EXPECT_EQ(ps.prefix_array().at(CellIndex{1, 1}), 19);
  EXPECT_EQ(ps.prefix_array().at(CellIndex{8, 8}), 291);
}

TEST(PaperExampleTest, CostModelMatchesUpdateExample) {
  const OverlayGeometry geometry(Shape{9, 9}, CellIndex{3, 3});
  const UpdateStats predicted = RpsUpdateCells(geometry, CellIndex{1, 1});
  EXPECT_EQ(predicted.primary_cells, 4);
  EXPECT_EQ(predicted.aux_cells, 12);
}

TEST(PaperExampleTest, AnchorOnlyUpdateTouchesNoBorders) {
  // "when an update occurs to a cell directly under an anchor cell,
  // e.g. cell [0,0], this would require only updating anchor cells in
  // other overlay boxes; no border values would then need to be
  // changed."
  RelativePrefixSum<int64_t> rps(Figure1Cube(), CellIndex{3, 3});
  const UpdateStats stats = rps.Add(CellIndex{0, 0}, 5);
  // 8 dominating boxes, anchor cell each; 9 RP cells in the own box.
  EXPECT_EQ(stats.aux_cells, 8);
  EXPECT_EQ(stats.primary_cells, 9);
  // All queries still correct.
  NdArray<int64_t> expected = Figure1Cube();
  expected.at(CellIndex{0, 0}) += 5;
  EXPECT_EQ(rps.RangeSum(Box::All(Shape{9, 9})),
            expected.SumBox(Box::All(Shape{9, 9})));
}

}  // namespace
}  // namespace rps
