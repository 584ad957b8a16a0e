// Randomized correctness of RelativePrefixSum against the naive
// oracle, swept over dimensionality, extents (including sizes not
// divisible by the box side) and box sizes (including the degenerate
// k=1 and k=n).

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/naive_method.h"
#include "core/relative_prefix_sum.h"
#include "cube/nd_array.h"
#include "util/random.h"

namespace rps {
namespace {

// Every field is 8 bytes wide, so the struct has no padding: gtest
// prints the parameter as raw bytes, the discovered ctest names
// carry that dump, and uninitialised padding gave the tests a
// different name on every build.
struct SweepParam {
  int64_t dims;
  int64_t extent;
  int64_t box_side;
};

std::string ParamName(const testing::TestParamInfo<SweepParam>& info) {
  return "d" + std::to_string(info.param.dims) + "_n" +
         std::to_string(info.param.extent) + "_k" +
         std::to_string(info.param.box_side);
}

NdArray<int64_t> RandomCube(const Shape& shape, Rng& rng) {
  NdArray<int64_t> cube(shape);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = rng.UniformInt(-20, 100);
  }
  return cube;
}

CellIndex RandomCell(const Shape& shape, Rng& rng) {
  CellIndex cell = CellIndex::Filled(shape.dims(), 0);
  for (int j = 0; j < shape.dims(); ++j) {
    cell[j] = rng.UniformInt(0, shape.extent(j) - 1);
  }
  return cell;
}

Box RandomBox(const Shape& shape, Rng& rng) {
  CellIndex lo = CellIndex::Filled(shape.dims(), 0);
  CellIndex hi = CellIndex::Filled(shape.dims(), 0);
  for (int j = 0; j < shape.dims(); ++j) {
    const int64_t a = rng.UniformInt(0, shape.extent(j) - 1);
    const int64_t b = rng.UniformInt(0, shape.extent(j) - 1);
    lo[j] = std::min(a, b);
    hi[j] = std::max(a, b);
  }
  return Box(lo, hi);
}

class RpsSweepTest : public testing::TestWithParam<SweepParam> {};

TEST_P(RpsSweepTest, PrefixSumsMatchOracle) {
  const SweepParam& param = GetParam();
  Rng rng(0x5eed0 + static_cast<uint64_t>(param.dims * 1000 + param.extent));
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  const NdArray<int64_t> cube = RandomCube(shape, rng);
  const RelativePrefixSum<int64_t> rps(
      cube, CellIndex::Filled(param.dims, param.box_side));

  NdArray<int64_t> prefix = cube;
  PrefixSumInPlace(prefix);
  CellIndex cell = CellIndex::Filled(param.dims, 0);
  do {
    ASSERT_EQ(rps.PrefixSum(cell), prefix.at(cell))
        << "prefix at " << cell.ToString();
  } while (NextIndex(shape, cell));
}

TEST_P(RpsSweepTest, RangeSumsMatchOracle) {
  const SweepParam& param = GetParam();
  Rng rng(0xabc1 + static_cast<uint64_t>(param.box_side));
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  const NdArray<int64_t> cube = RandomCube(shape, rng);
  const RelativePrefixSum<int64_t> rps(
      cube, CellIndex::Filled(param.dims, param.box_side));

  for (int trial = 0; trial < 50; ++trial) {
    const Box range = RandomBox(shape, rng);
    ASSERT_EQ(rps.RangeSum(range), cube.SumBox(range))
        << "range " << range.ToString();
  }
  EXPECT_EQ(rps.RangeSum(Box::All(shape)), cube.SumBox(Box::All(shape)));
}

TEST_P(RpsSweepTest, ValueAtRecoversEveryCell) {
  const SweepParam& param = GetParam();
  Rng rng(0x77 + static_cast<uint64_t>(param.extent));
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  const NdArray<int64_t> cube = RandomCube(shape, rng);
  const RelativePrefixSum<int64_t> rps(
      cube, CellIndex::Filled(param.dims, param.box_side));

  CellIndex cell = CellIndex::Filled(param.dims, 0);
  do {
    ASSERT_EQ(rps.ValueAt(cell), cube.at(cell))
        << "cell " << cell.ToString();
  } while (NextIndex(shape, cell));
}

TEST_P(RpsSweepTest, UpdatesKeepStructureConsistent) {
  const SweepParam& param = GetParam();
  Rng rng(0xfeed + static_cast<uint64_t>(param.dims));
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  NdArray<int64_t> cube = RandomCube(shape, rng);
  RelativePrefixSum<int64_t> rps(
      cube, CellIndex::Filled(param.dims, param.box_side));

  for (int step = 0; step < 40; ++step) {
    const CellIndex cell = RandomCell(shape, rng);
    if (step % 2 == 0) {
      const int64_t delta = rng.UniformInt(-50, 50);
      cube.at(cell) += delta;
      rps.Add(cell, delta);
    } else {
      const int64_t value = rng.UniformInt(-50, 50);
      cube.at(cell) = value;
      rps.Set(cell, value);
    }
    const Box range = RandomBox(shape, rng);
    ASSERT_EQ(rps.RangeSum(range), cube.SumBox(range))
        << "after step " << step << " range " << range.ToString();
  }
  // Full structural agreement at the end: every prefix matches.
  NdArray<int64_t> prefix = cube;
  PrefixSumInPlace(prefix);
  CellIndex cell = CellIndex::Filled(param.dims, 0);
  do {
    ASSERT_EQ(rps.PrefixSum(cell), prefix.at(cell));
  } while (NextIndex(shape, cell));
}

TEST_P(RpsSweepTest, UpdateCostMatchesCostModelEverywhere) {
  const SweepParam& param = GetParam();
  Rng rng(0x9999);
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  NdArray<int64_t> cube = RandomCube(shape, rng);
  RelativePrefixSum<int64_t> rps(
      cube, CellIndex::Filled(param.dims, param.box_side));
  const OverlayGeometry geometry(
      shape, CellIndex::Filled(param.dims, param.box_side));

  CellIndex cell = CellIndex::Filled(param.dims, 0);
  do {
    const UpdateStats measured = rps.Add(cell, 1);
    const UpdateStats predicted = RpsUpdateCells(geometry, cell);
    ASSERT_EQ(measured.primary_cells, predicted.primary_cells)
        << "RP cells at " << cell.ToString();
    ASSERT_EQ(measured.aux_cells, predicted.aux_cells)
        << "overlay cells at " << cell.ToString();
  } while (NextIndex(shape, cell));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RpsSweepTest,
    testing::Values(
        SweepParam{1, 16, 4}, SweepParam{1, 17, 4}, SweepParam{1, 9, 1},
        SweepParam{1, 9, 9},                          //
        SweepParam{2, 9, 3}, SweepParam{2, 10, 3}, SweepParam{2, 16, 4},
        SweepParam{2, 7, 5}, SweepParam{2, 8, 1}, SweepParam{2, 8, 8},
        SweepParam{3, 8, 2}, SweepParam{3, 9, 3}, SweepParam{3, 7, 3},
        SweepParam{3, 6, 6},                          //
        SweepParam{4, 5, 2}, SweepParam{4, 4, 3},     //
        SweepParam{5, 3, 2}),
    ParamName);

// Non-hypercube shapes and per-dimension box sizes.
TEST(RpsRectangularTest, MixedExtentsAndBoxSizes) {
  Rng rng(0x1234);
  const Shape shape{7, 13, 4};
  NdArray<int64_t> cube(shape);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = rng.UniformInt(0, 9);
  }
  RelativePrefixSum<int64_t> rps(cube, CellIndex{3, 4, 2});
  for (int trial = 0; trial < 200; ++trial) {
    const Box range = RandomBox(shape, rng);
    ASSERT_EQ(rps.RangeSum(range), cube.SumBox(range));
  }
  // Interleave updates.
  for (int step = 0; step < 60; ++step) {
    const CellIndex cell = RandomCell(shape, rng);
    const int64_t delta = rng.UniformInt(-9, 9);
    cube.at(cell) += delta;
    rps.Add(cell, delta);
    const Box range = RandomBox(shape, rng);
    ASSERT_EQ(rps.RangeSum(range), cube.SumBox(range));
  }
}

TEST(RpsRectangularTest, RecommendedBoxSizeIsNearSqrt) {
  EXPECT_EQ(RecommendedBoxSize(Shape{9, 9}), (CellIndex{3, 3}));
  EXPECT_EQ(RecommendedBoxSize(Shape{16, 100}), (CellIndex{4, 10}));
  EXPECT_EQ(RecommendedBoxSize(Shape{1, 2}), (CellIndex{1, 1}));
  // 17 -> sqrt = 4.12, nearest 4.
  EXPECT_EQ(RecommendedBoxSize(Shape{17}), (CellIndex{4}));
}

TEST(RpsRectangularTest, SingleCellCube) {
  NdArray<int64_t> cube(Shape{1});
  cube.at_linear(0) = 42;
  RelativePrefixSum<int64_t> rps(cube);
  EXPECT_EQ(rps.RangeSum(Box::All(Shape{1})), 42);
  rps.Add(CellIndex{0}, 8);
  EXPECT_EQ(rps.RangeSum(Box::All(Shape{1})), 50);
  EXPECT_EQ(rps.ValueAt(CellIndex{0}), 50);
}

TEST(RpsRectangularTest, DoubleValuedCube) {
  Rng rng(0x42);
  const Shape shape{12, 12};
  NdArray<double> cube(shape);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = rng.UniformDouble();
  }
  RelativePrefixSum<double> rps(cube);
  for (int trial = 0; trial < 50; ++trial) {
    const Box range = RandomBox(shape, rng);
    ASSERT_NEAR(rps.RangeSum(range), cube.SumBox(range), 1e-9);
  }
}

}  // namespace
}  // namespace rps
