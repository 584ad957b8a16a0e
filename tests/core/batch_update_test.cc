// Batch updates: equivalence with sequential Add and the cells a batch
// writes, each reached cell once.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/relative_prefix_sum.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

using CellDelta = RelativePrefixSum<int64_t>::CellDelta;

std::vector<CellDelta> RandomBatch(const Shape& shape, int count,
                                   uint64_t seed) {
  UniformUpdateGen gen(shape, 30, seed);
  std::vector<CellDelta> batch;
  for (int i = 0; i < count; ++i) {
    const UpdateOp op = gen.Next();
    batch.push_back({op.cell, op.delta});
  }
  return batch;
}

TEST(BatchUpdateTest, EquivalentToSequentialAdds) {
  for (const Shape& shape : {Shape{12, 12}, Shape{9, 7, 5}, Shape{30}}) {
    const NdArray<int64_t> cube = UniformCube(shape, 0, 20, 1);
    const CellIndex box = RecommendedBoxSize(shape);
    RelativePrefixSum<int64_t> sequential(cube, box);
    RelativePrefixSum<int64_t> batched(cube, box);
    const std::vector<CellDelta> batch = RandomBatch(shape, 25, 77);

    for (const CellDelta& op : batch) sequential.Add(op.cell, op.delta);
    batched.AddBatch(batch);

    EXPECT_EQ(sequential.MaterializeRp(), batched.MaterializeRp())
        << shape.ToString();
    const std::vector<int64_t> sequential_overlay =
        sequential.MaterializeOverlay();
    const std::vector<int64_t> batched_overlay = batched.MaterializeOverlay();
    for (size_t slot = 0; slot < sequential_overlay.size(); ++slot) {
      ASSERT_EQ(sequential_overlay[slot], batched_overlay[slot])
          << "slot " << slot << " shape " << shape.ToString();
    }
  }
}

TEST(BatchUpdateTest, CoalescingWritesFewerCells) {
  // Many updates in the first box: each individual Add rewrites all
  // strictly-dominating anchors; the batch writes them once.
  const Shape shape{64, 64};
  const NdArray<int64_t> cube = UniformCube(shape, 0, 9, 2);
  const CellIndex box = CellIndex{8, 8};
  RelativePrefixSum<int64_t> sequential(cube, box);
  RelativePrefixSum<int64_t> batched(cube, box);

  Rng rng(5);
  std::vector<CellDelta> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back({CellIndex{rng.UniformInt(1, 7), rng.UniformInt(1, 7)},
                     rng.UniformInt(1, 5)});
  }
  UpdateStats sequential_stats;
  for (const CellDelta& op : batch) {
    sequential_stats += sequential.Add(op.cell, op.delta);
  }
  const UpdateStats batched_stats = batched.AddBatch(batch);

  EXPECT_LT(batched_stats.total(), sequential_stats.total());
  // The batch writes each cell its records reach once. All 20 records
  // lie in box (0, 0) at offsets >= 1, so it writes the union of their
  // RP tails (rows and columns from the record's to 7), the X and Y
  // border runs from the smallest offsets on in the 7 boxes right of
  // and below the box, and the anchors of the 7 * 7 strict dominators.
  std::set<std::pair<int64_t, int64_t>> tails;
  int64_t min_row = 7;
  int64_t min_col = 7;
  for (const CellDelta& op : batch) {
    for (int64_t x = op.cell[0]; x < 8; ++x) {
      for (int64_t y = op.cell[1]; y < 8; ++y) tails.insert({x, y});
    }
    min_row = std::min(min_row, op.cell[0]);
    min_col = std::min(min_col, op.cell[1]);
  }
  EXPECT_EQ(batched_stats.primary_cells, static_cast<int64_t>(tails.size()));
  EXPECT_EQ(batched_stats.aux_cells,
            7 * (8 - min_row) + 7 * (8 - min_col) + 7 * 7);
  // And the structures agree.
  EXPECT_EQ(sequential.MaterializeRp(), batched.MaterializeRp());
}

TEST(BatchUpdateTest, EmptyBatchIsNoOp) {
  const NdArray<int64_t> cube = UniformCube(Shape{8, 8}, 0, 9, 3);
  RelativePrefixSum<int64_t> rps(cube, CellIndex{3, 3});
  const UpdateStats stats = rps.AddBatch({});
  EXPECT_EQ(stats.total(), 0);
  EXPECT_EQ(rps.RangeSum(Box::All(Shape{8, 8})),
            cube.SumBox(Box::All(Shape{8, 8})));
}

TEST(BatchUpdateTest, SingleElementBatchMatchesAddCost) {
  const NdArray<int64_t> cube = UniformCube(Shape{16, 16}, 0, 9, 4);
  RelativePrefixSum<int64_t> a(cube, CellIndex{4, 4});
  RelativePrefixSum<int64_t> b(cube, CellIndex{4, 4});
  const CellIndex cell{5, 9};
  const UpdateStats add_stats = a.Add(cell, 7);
  const UpdateStats batch_stats = b.AddBatch(std::vector<CellDelta>{{cell, 7}});
  EXPECT_EQ(add_stats.primary_cells, batch_stats.primary_cells);
  EXPECT_EQ(add_stats.aux_cells, batch_stats.aux_cells);
  EXPECT_EQ(a.MaterializeRp(), b.MaterializeRp());
}

TEST(BatchUpdateTest, CrossBoxBatchesStayCorrect) {
  const Shape shape{20, 20};
  NdArray<int64_t> oracle = UniformCube(shape, 0, 9, 6);
  RelativePrefixSum<int64_t> rps(oracle, CellIndex{5, 5});
  const std::vector<CellDelta> batch = RandomBatch(shape, 60, 99);
  for (const CellDelta& op : batch) oracle.at(op.cell) += op.delta;
  rps.AddBatch(batch);

  UniformQueryGen queries(shape, 11);
  for (int trial = 0; trial < 60; ++trial) {
    const Box range = queries.Next();
    ASSERT_EQ(rps.RangeSum(range), oracle.SumBox(range));
  }
}

}  // namespace
}  // namespace rps
