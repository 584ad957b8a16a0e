// Correctness and cost tests for the two-level hierarchical
// extension (core/hierarchical_rps.h).

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/hierarchical_rps.h"
#include "core/prefix_sum_method.h"
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
  int64_t box_side;
};

std::string ParamName(const testing::TestParamInfo<SweepParam>& info) {
  return "d" + std::to_string(info.param.dims) + "_n" +
         std::to_string(info.param.extent) + "_k" +
         std::to_string(info.param.box_side);
}

class HierarchicalSweepTest : public testing::TestWithParam<SweepParam> {};

TEST_P(HierarchicalSweepTest, PrefixSumsMatchOracle) {
  const SweepParam& param = GetParam();
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  const NdArray<int64_t> cube = UniformCube(shape, -20, 60, 1);
  const HierarchicalRps<int64_t> hier(
      cube, CellIndex::Filled(param.dims, param.box_side));
  const PrefixSumMethod<int64_t> oracle(cube);
  CellIndex cell = CellIndex::Filled(param.dims, 0);
  do {
    ASSERT_EQ(hier.PrefixSum(cell), oracle.prefix_array().at(cell))
        << cell.ToString();
  } while (NextIndex(shape, cell));
}

TEST_P(HierarchicalSweepTest, UpdatesKeepStructureConsistent) {
  const SweepParam& param = GetParam();
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  NdArray<int64_t> oracle = UniformCube(shape, 0, 30, 2);
  HierarchicalRps<int64_t> hier(
      oracle, CellIndex::Filled(param.dims, param.box_side));

  UniformUpdateGen updates(shape, 20, 3);
  UniformQueryGen queries(shape, 4);
  for (int step = 0; step < 40; ++step) {
    const UpdateOp op = updates.Next();
    oracle.at(op.cell) += op.delta;
    hier.Add(op.cell, op.delta);
    const Box range = queries.Next();
    ASSERT_EQ(hier.RangeSum(range), oracle.SumBox(range))
        << "step " << step;
  }
}

TEST_P(HierarchicalSweepTest, ValueAtAndSet) {
  const SweepParam& param = GetParam();
  const Shape shape = Shape::Hypercube(param.dims, param.extent);
  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 5);
  HierarchicalRps<int64_t> hier(
      oracle, CellIndex::Filled(param.dims, param.box_side));
  Rng rng(6);
  for (int step = 0; step < 25; ++step) {
    CellIndex cell = CellIndex::Filled(param.dims, 0);
    for (int j = 0; j < param.dims; ++j) {
      cell[j] = rng.UniformInt(0, param.extent - 1);
    }
    ASSERT_EQ(hier.ValueAt(cell), oracle.at(cell));
    const int64_t value = rng.UniformInt(-9, 9);
    oracle.at(cell) = value;
    hier.Set(cell, value);
    ASSERT_EQ(hier.ValueAt(cell), value);
  }
  EXPECT_EQ(hier.RangeSum(Box::All(shape)), oracle.SumBox(Box::All(shape)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierarchicalSweepTest,
    testing::Values(SweepParam{1, 16, 4}, SweepParam{1, 30, 3},
                    SweepParam{2, 9, 3}, SweepParam{2, 16, 4},
                    SweepParam{2, 13, 3}, SweepParam{2, 10, 1},
                    SweepParam{2, 8, 8},                       //
                    SweepParam{3, 8, 2}, SweepParam{3, 7, 3},  //
                    SweepParam{4, 4, 2}),
    ParamName);

TEST(HierarchicalRpsTest, RectangularShapes) {
  const Shape shape{11, 6, 9};
  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 7);
  HierarchicalRps<int64_t> hier(oracle, CellIndex{4, 2, 3});
  UniformQueryGen queries(shape, 8);
  UniformUpdateGen updates(shape, 5, 9);
  for (int step = 0; step < 50; ++step) {
    const UpdateOp op = updates.Next();
    oracle.at(op.cell) += op.delta;
    hier.Add(op.cell, op.delta);
    const Box range = queries.Next();
    ASSERT_EQ(hier.RangeSum(range), oracle.SumBox(range));
  }
}

TEST(HierarchicalRpsTest, RebuildResets) {
  const Shape shape{12, 12};
  const NdArray<int64_t> first = UniformCube(shape, 0, 9, 10);
  const NdArray<int64_t> second = UniformCube(shape, 0, 9, 11);
  HierarchicalRps<int64_t> hier(first, CellIndex{3, 3});
  hier.Add(CellIndex{5, 5}, 42);
  hier.Build(second);
  EXPECT_EQ(hier.RangeSum(Box::All(shape)), second.SumBox(Box::All(shape)));
}

TEST(HierarchicalRpsTest, RecommendedBoxSizeExponent) {
  // d=2 -> n^(2/5): n=1024 -> ~16; d=1 -> n^(1/3): n=4096 -> 16.
  EXPECT_EQ(RecommendedHierarchicalBoxSize(Shape{1024, 1024}),
            (CellIndex{16, 16}));
  EXPECT_EQ(RecommendedHierarchicalBoxSize(Shape{4096}), (CellIndex{16}));
  EXPECT_EQ(RecommendedHierarchicalBoxSize(Shape{1, 2}), (CellIndex{1, 1}));
}

TEST(HierarchicalRpsTest, CheaperWorstCaseUpdatesThanFlatAtScale) {
  // At n = 1024 (d = 2), worst-case flat RPS updates touch ~n = 1024+
  // cells; the hierarchy's inner structures cut the interior-anchor
  // bill. Compare measured worst observed costs over a scatter of
  // updates near the origin (the expensive corner).
  const Shape shape{1024, 1024};
  const NdArray<int64_t> cube = UniformCube(shape, 0, 9, 12);
  RelativePrefixSum<int64_t> flat(cube);  // k = 32
  HierarchicalRps<int64_t> hier(cube);    // k = 16
  Rng rng(13);
  int64_t flat_worst = 0;
  int64_t hier_worst = 0;
  for (int i = 0; i < 30; ++i) {
    const CellIndex cell{rng.UniformInt(0, 40), rng.UniformInt(0, 40)};
    flat_worst = std::max(flat_worst, flat.Add(cell, 1).total());
    hier_worst = std::max(hier_worst, hier.Add(cell, 1).total());
  }
  EXPECT_LT(hier_worst, flat_worst)
      << "hierarchy should beat the flat structure near the origin";
  // And queries still agree.
  UniformQueryGen queries(shape, 14);
  for (int i = 0; i < 10; ++i) {
    const Box range = queries.Next();
    ASSERT_EQ(hier.RangeSum(range), flat.RangeSum(range));
  }
}

TEST(HierarchicalRpsTest, MemoryDominatedByRp) {
  const Shape shape{256, 256};
  const NdArray<int64_t> cube = UniformCube(shape, 0, 9, 15);
  const HierarchicalRps<int64_t> hier(cube);
  const MemoryStats memory = hier.Memory();
  EXPECT_EQ(memory.primary_cells, shape.num_cells());
  // Aux structures (coarse + faces + their overlays) stay well below
  // the RP array.
  EXPECT_LT(memory.aux_cells, memory.primary_cells);
}

TEST(HierarchicalRpsTest, ZeroCubeAndSingleCell) {
  NdArray<int64_t> zero(Shape{6, 6}, 0);
  HierarchicalRps<int64_t> hier(zero, CellIndex{2, 2});
  EXPECT_EQ(hier.RangeSum(Box::All(Shape{6, 6})), 0);
  hier.Add(CellIndex{3, 3}, 5);
  EXPECT_EQ(hier.RangeSum(Box::All(Shape{6, 6})), 5);

  NdArray<int64_t> one(Shape{1}, 9);
  HierarchicalRps<int64_t> tiny(one);
  EXPECT_EQ(tiny.RangeSum(Box::All(Shape{1})), 9);
}

TEST(HierarchicalFromPartsTest, RejectsMismatchedComponents) {
  const Shape shape{8, 8};
  const NdArray<int64_t> cube = UniformCube(shape, 0, 9, 8);
  const HierarchicalRps<int64_t> donor(cube, CellIndex{3, 3});
  // Wrong RP shape.
  {
    auto bad = HierarchicalRps<int64_t>::FromParts(
        shape, CellIndex{3, 3}, NdArray<int64_t>(Shape{4, 4}),
        RelativePrefixSum<int64_t>(NdArray<int64_t>(donor.grid_shape(), 0)),
        {});
    EXPECT_FALSE(bad.ok());
  }
  // Wrong face count.
  {
    auto bad = HierarchicalRps<int64_t>::FromParts(
        shape, CellIndex{3, 3}, NdArray<int64_t>(shape),
        RelativePrefixSum<int64_t>(NdArray<int64_t>(donor.grid_shape(), 0)),
        {});
    EXPECT_FALSE(bad.ok());
  }
}

}  // namespace
}  // namespace rps
