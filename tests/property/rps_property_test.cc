// Property-based tests: structural invariants of the relative prefix
// sum method that must hold for every cube, box size and update
// stream. Each property is swept over randomized configurations
// (dimensions, extents, per-dimension box sizes, value distributions).
//
// Setting RPS_TEST_SEED overrides every instantiation's seed so a
// failure reported in CI can be replayed exactly; each failure
// message carries the seed via a scoped trace.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/hierarchical_rps.h"
#include "core/prefix_sum_method.h"
#include "core/relative_prefix_sum.h"
#include "testing/test_seed.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

struct Config {
  uint64_t seed;
};

class RpsPropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  // Random shape with 1-4 dims, extents 2-12; random per-dim box
  // sizes in [1, extent].
  void SetUp() override {
    seed_ = testing::TestSeed(GetParam().seed);
    // Held as a member so the seed shows in every failure message of
    // the test body, not just SetUp's scope.
    trace_ = std::make_unique<::testing::ScopedTrace>(
        __FILE__, __LINE__, testing::SeedMessage(seed_));
    Rng rng(seed_);
    const int d = static_cast<int>(rng.UniformInt(1, 4));
    std::vector<int64_t> extents;
    box_size_ = CellIndex::Filled(d, 1);
    for (int j = 0; j < d; ++j) {
      extents.push_back(rng.UniformInt(2, 12));
      box_size_[j] = rng.UniformInt(1, extents.back());
    }
    shape_ = Shape::FromExtents(extents);
    cube_ = UniformCube(shape_, -50, 50, seed_ * 31 + 7);
  }

  void TearDown() override { trace_.reset(); }

  uint64_t seed_ = 0;
  Shape shape_;
  CellIndex box_size_;
  NdArray<int64_t> cube_;
  std::unique_ptr<::testing::ScopedTrace> trace_;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  return "seed" + std::to_string(info.param.seed);
}

TEST_P(RpsPropertyTest, PrefixAgreesWithPrefixSumMethodEverywhere) {
  // Invariant: RPS assembles exactly the prefix array P of Ho et al.
  const RelativePrefixSum<int64_t> rps(cube_, box_size_);
  const PrefixSumMethod<int64_t> ps(cube_);
  CellIndex cell = CellIndex::Filled(shape_.dims(), 0);
  do {
    ASSERT_EQ(rps.PrefixSum(cell), ps.prefix_array().at(cell))
        << cell.ToString() << " shape " << shape_.ToString() << " box "
        << box_size_.ToString();
  } while (NextIndex(shape_, cell));
}

TEST_P(RpsPropertyTest, RangeSumIsAdditiveUnderSplits) {
  // Invariant: splitting any box along any dimension conserves the
  // sum.
  const RelativePrefixSum<int64_t> rps(cube_, box_size_);
  Rng rng(seed_ + 1);
  UniformQueryGen gen(shape_, seed_ + 2);
  for (int trial = 0; trial < 25; ++trial) {
    const Box box = gen.Next();
    const int j = static_cast<int>(
        rng.UniformInt(0, shape_.dims() - 1));
    if (box.Extent(j) < 2) continue;
    const int64_t split = rng.UniformInt(box.lo()[j], box.hi()[j] - 1);
    CellIndex mid_hi = box.hi();
    mid_hi[j] = split;
    CellIndex mid_lo = box.lo();
    mid_lo[j] = split + 1;
    ASSERT_EQ(rps.RangeSum(box),
              rps.RangeSum(Box(box.lo(), mid_hi)) +
                  rps.RangeSum(Box(mid_lo, box.hi())))
        << box.ToString() << " split dim " << j << " at " << split;
  }
}

TEST_P(RpsPropertyTest, AddThenNegateIsIdentity) {
  // Invariant: Add(c, v) followed by Add(c, -v) restores every
  // observable value.
  RelativePrefixSum<int64_t> rps(cube_, box_size_);
  const PrefixSumMethod<int64_t> reference(cube_);
  UniformUpdateGen gen(shape_, 40, seed_ + 3);
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 15; ++i) {
    ops.push_back(gen.Next());
    rps.Add(ops.back().cell, ops.back().delta);
  }
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    rps.Add(it->cell, -it->delta);
  }
  CellIndex cell = CellIndex::Filled(shape_.dims(), 0);
  do {
    ASSERT_EQ(rps.PrefixSum(cell), reference.prefix_array().at(cell));
  } while (NextIndex(shape_, cell));
}

TEST_P(RpsPropertyTest, UpdateOrderDoesNotMatter) {
  // Invariant: the structure state depends only on the multiset of
  // applied deltas, not their order.
  UniformUpdateGen gen(shape_, 20, seed_ + 4);
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 12; ++i) ops.push_back(gen.Next());

  RelativePrefixSum<int64_t> forward(cube_, box_size_);
  for (const UpdateOp& op : ops) forward.Add(op.cell, op.delta);

  RelativePrefixSum<int64_t> backward(cube_, box_size_);
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    backward.Add(it->cell, it->delta);
  }

  CellIndex cell = CellIndex::Filled(shape_.dims(), 0);
  do {
    ASSERT_EQ(forward.PrefixSum(cell), backward.PrefixSum(cell));
  } while (NextIndex(shape_, cell));
}

TEST_P(RpsPropertyTest, IncrementalUpdatesEqualFreshRebuild) {
  // Invariant: applying updates incrementally produces the identical
  // structure contents as rebuilding from the updated cube.
  RelativePrefixSum<int64_t> incremental(cube_, box_size_);
  NdArray<int64_t> mutated = cube_;
  UniformUpdateGen gen(shape_, 30, seed_ + 5);
  for (int i = 0; i < 20; ++i) {
    const UpdateOp op = gen.Next();
    incremental.Add(op.cell, op.delta);
    mutated.at(op.cell) += op.delta;
  }
  const RelativePrefixSum<int64_t> rebuilt(mutated, box_size_);
  // Exact structural equality: RP arrays and overlay values.
  EXPECT_EQ(incremental.MaterializeRp(), rebuilt.MaterializeRp());
  const std::vector<int64_t> incremental_overlay =
      incremental.MaterializeOverlay();
  const std::vector<int64_t> rebuilt_overlay = rebuilt.MaterializeOverlay();
  for (size_t slot = 0; slot < rebuilt_overlay.size(); ++slot) {
    ASSERT_EQ(incremental_overlay[slot], rebuilt_overlay[slot])
        << "overlay slot " << slot;
  }
}

TEST_P(RpsPropertyTest, SetEqualsAddOfDifference) {
  RelativePrefixSum<int64_t> by_set(cube_, box_size_);
  RelativePrefixSum<int64_t> by_add(cube_, box_size_);
  UniformUpdateGen gen(shape_, 25, seed_ + 6);
  for (int i = 0; i < 10; ++i) {
    const UpdateOp op = gen.Next();
    const int64_t target_value = op.delta * 3;
    const int64_t current = by_add.ValueAt(op.cell);
    by_set.Set(op.cell, target_value);
    by_add.Add(op.cell, target_value - current);
  }
  CellIndex cell = CellIndex::Filled(shape_.dims(), 0);
  do {
    ASSERT_EQ(by_set.PrefixSum(cell), by_add.PrefixSum(cell));
  } while (NextIndex(shape_, cell));
}

TEST_P(RpsPropertyTest, UpdateCostNeverExceedsWorstCase) {
  RelativePrefixSum<int64_t> rps(cube_, box_size_);
  const OverlayGeometry geometry(shape_, box_size_);
  const int64_t worst = RpsWorstCaseUpdateCells(geometry).total();
  UniformUpdateGen gen(shape_, 10, seed_ + 7);
  for (int i = 0; i < 30; ++i) {
    const UpdateOp op = gen.Next();
    const UpdateStats stats = rps.Add(op.cell, op.delta);
    ASSERT_LE(stats.total(), worst) << op.cell.ToString();
  }
}

TEST_P(RpsPropertyTest, OverlayStorageMatchesGeometryFormulaPerBox) {
  const OverlayGeometry geometry(shape_, box_size_);
  // Sum of per-box stored cells equals the flat storage size, and
  // each full box matches k^d - (k-1)^d.
  int64_t total = 0;
  CellIndex box_index = CellIndex::Filled(shape_.dims(), 0);
  do {
    total += geometry.StoredCellsInBox(box_index);
  } while (NextIndex(geometry.grid_shape(), box_index));
  EXPECT_EQ(total, geometry.total_stored_cells());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RpsPropertyTest,
    ::testing::Values(Config{1}, Config{2}, Config{3}, Config{4}, Config{5},
                    Config{6}, Config{7}, Config{8}, Config{9}, Config{10},
                    Config{11}, Config{12}, Config{13}, Config{14},
                    Config{15}, Config{16}, Config{17}, Config{18}),
    ConfigName);

TEST_P(RpsPropertyTest, HierarchicalStructureMatchesFlatEverywhere) {
  // The two-level extension must agree with the flat structure on
  // every prefix, for every random configuration, through updates.
  RelativePrefixSum<int64_t> flat(cube_, box_size_);
  HierarchicalRps<int64_t> hier(cube_, box_size_);
  UniformUpdateGen gen(shape_, 15, seed_ + 8);
  for (int i = 0; i < 10; ++i) {
    const UpdateOp op = gen.Next();
    flat.Add(op.cell, op.delta);
    hier.Add(op.cell, op.delta);
  }
  CellIndex cell = CellIndex::Filled(shape_.dims(), 0);
  do {
    ASSERT_EQ(hier.PrefixSum(cell), flat.PrefixSum(cell))
        << cell.ToString() << " shape " << shape_.ToString();
  } while (NextIndex(shape_, cell));
}

// Distribution-specific cubes: the structure must be exact regardless
// of the data distribution.
TEST(RpsDistributionTest, SkewedAndSparseCubes) {
  const Shape shape{15, 15};
  for (const NdArray<int64_t>& cube :
       {ZipfCube(shape, 1.3, 3000, 1), ClusteredCube(shape, 4, 4, 1, 9, 2),
        SparseCube(shape, 0.05, 100, 3), NdArray<int64_t>(shape, 0)}) {
    RelativePrefixSum<int64_t> rps(cube, CellIndex{4, 4});
    UniformQueryGen gen(shape, 99);
    for (int trial = 0; trial < 40; ++trial) {
      const Box box = gen.Next();
      ASSERT_EQ(rps.RangeSum(box), cube.SumBox(box));
    }
  }
}

TEST(RpsDistributionTest, ExtremeValuesDoNotOverflowInt64Paths) {
  // Large magnitudes near 2^40 across a small cube: intermediate
  // prefix sums stay well inside int64.
  const Shape shape{6, 6};
  NdArray<int64_t> cube(shape);
  Rng rng(0x777);
  const int64_t big = int64_t{1} << 40;
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = rng.UniformInt(-big, big);
  }
  RelativePrefixSum<int64_t> rps(cube);
  UniformQueryGen gen(shape, 5);
  for (int trial = 0; trial < 30; ++trial) {
    const Box box = gen.Next();
    ASSERT_EQ(rps.RangeSum(box), cube.SumBox(box));
  }
}

}  // namespace
}  // namespace rps
