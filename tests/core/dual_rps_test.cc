// The dual structure (range add, point read) against a brute-force
// oracle.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/dual_rps.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

// Every field is 8 bytes wide, so the struct has no padding: gtest
// prints the parameter as raw bytes, the discovered ctest names
// carry that dump, and uninitialised padding gave the tests a
// different name on every build.
struct SweepParam {
  int64_t dims;
  int64_t extent;
};

std::string ParamName(const testing::TestParamInfo<SweepParam>& info) {
  return "d" + std::to_string(info.param.dims) + "_n" +
         std::to_string(info.param.extent);
}

class DualRpsSweepTest : public testing::TestWithParam<SweepParam> {};

TEST_P(DualRpsSweepTest, InitialValuesMatchSource) {
  const SweepParam& param = GetParam();
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  const NdArray<int64_t> cube = UniformCube(shape, -30, 70, 1);
  const DualRps<int64_t> dual(cube);
  CellIndex cell = CellIndex::Filled(param.dims, 0);
  do {
    ASSERT_EQ(dual.ValueAt(cell), cube.at(cell)) << cell.ToString();
  } while (NextIndex(shape, cell));
}

TEST_P(DualRpsSweepTest, RangeAddsMatchOracle) {
  const SweepParam& param = GetParam();
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 2);
  DualRps<int64_t> dual(oracle);
  UniformQueryGen ranges(shape, 3);
  Rng rng(4);
  for (int step = 0; step < 30; ++step) {
    const Box range = ranges.Next();
    const int64_t delta = rng.UniformInt(-9, 9);
    // Oracle: brute-force range add.
    CellIndex cell = range.lo();
    do {
      oracle.at(cell) += delta;
    } while (NextIndexInBox(range, cell));
    dual.AddToRange(range, delta);
    // Spot-check several cells each step.
    for (int probe = 0; probe < 8; ++probe) {
      CellIndex at = CellIndex::Filled(param.dims, 0);
      for (int j = 0; j < param.dims; ++j) {
        at[j] = rng.UniformInt(0, param.extent - 1);
      }
      ASSERT_EQ(dual.ValueAt(at), oracle.at(at))
          << "step " << step << " at " << at.ToString();
    }
  }
  // Full agreement at the end.
  CellIndex cell = CellIndex::Filled(param.dims, 0);
  do {
    ASSERT_EQ(dual.ValueAt(cell), oracle.at(cell));
  } while (NextIndex(shape, cell));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DualRpsSweepTest,
                         testing::Values(SweepParam{1, 30}, SweepParam{1, 7},
                                         SweepParam{2, 12}, SweepParam{2, 9},
                                         SweepParam{3, 6}, SweepParam{4, 4}),
                         ParamName);

TEST(DualRpsTest, FullCubeAndSingleCellRanges) {
  const Shape shape{6, 6};
  NdArray<int64_t> cube(shape, 10);
  DualRps<int64_t> dual(cube);
  dual.AddToRange(Box::All(shape), 5);
  EXPECT_EQ(dual.ValueAt(CellIndex{0, 0}), 15);
  EXPECT_EQ(dual.ValueAt(CellIndex{5, 5}), 15);
  dual.Add(CellIndex{2, 3}, -4);
  EXPECT_EQ(dual.ValueAt(CellIndex{2, 3}), 11);
  EXPECT_EQ(dual.ValueAt(CellIndex{2, 4}), 15);
}

TEST(DualRpsTest, EdgeTouchingRangesDropOutOfCubeCorners) {
  const Shape shape{5, 5};
  NdArray<int64_t> cube(shape, 0);
  DualRps<int64_t> dual(cube);
  // Range reaching the cube's far corner: only the lo corner exists.
  dual.AddToRange(Box(CellIndex{3, 3}, CellIndex{4, 4}), 7);
  EXPECT_EQ(dual.ValueAt(CellIndex{4, 4}), 7);
  EXPECT_EQ(dual.ValueAt(CellIndex{3, 3}), 7);
  EXPECT_EQ(dual.ValueAt(CellIndex{2, 2}), 0);
  EXPECT_EQ(dual.ValueAt(CellIndex{4, 2}), 0);
}

TEST(DualRpsTest, RangeAddCostIsBounded) {
  // Each range add costs at most 2^d point updates of the inner
  // structure, each bounded by the inner worst case.
  const Shape shape{64, 64};
  NdArray<int64_t> cube(shape, 0);
  DualRps<int64_t> dual(cube);
  const OverlayGeometry geometry(shape, RecommendedBoxSize(shape));
  const int64_t inner_worst = RpsWorstCaseUpdateCells(geometry).total();
  UniformQueryGen ranges(shape, 9);
  for (int step = 0; step < 40; ++step) {
    const UpdateStats stats = dual.AddToRange(ranges.Next(), 1);
    ASSERT_LE(stats.total(), 4 * inner_worst);
  }
}

TEST(DualRpsTest, DoubleValues) {
  const Shape shape{8, 8};
  NdArray<double> cube(shape, 1.5);
  DualRps<double> dual(cube);
  dual.AddToRange(Box(CellIndex{1, 1}, CellIndex{3, 3}), 0.25);
  EXPECT_NEAR(dual.ValueAt(CellIndex{2, 2}), 1.75, 1e-9);
  EXPECT_NEAR(dual.ValueAt(CellIndex{0, 0}), 1.5, 1e-9);
}

}  // namespace
}  // namespace rps
