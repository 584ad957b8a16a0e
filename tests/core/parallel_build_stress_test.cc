// Stress tests of the ParallelFor-driven build paths, and of updates
// on structures built that way, run under the `concurrency` ctest
// label so the tsan preset checks the chunked builds for races. The
// parallel policy is forced down to one cell so every pool path
// triggers on test-sized cubes, and every result is compared against
// a strictly serial twin -- parallel execution must be bit-identical
// for integral cells.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/hierarchical_rps.h"
#include "core/relative_prefix_sum.h"
#include "cube/nd_array.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

ParallelPolicy ForceParallel() {
  ParallelPolicy policy;
  policy.min_parallel_cells = 1;
  return policy;
}

void ExpectSameStructure(const RelativePrefixSum<int64_t>& actual,
                         const RelativePrefixSum<int64_t>& expected) {
  const NdArray<int64_t> actual_rp = actual.MaterializeRp();
  const NdArray<int64_t> expected_rp = expected.MaterializeRp();
  ASSERT_TRUE(actual_rp.shape() == expected_rp.shape());
  EXPECT_TRUE(actual_rp == expected_rp);
  const std::vector<int64_t> actual_overlay = actual.MaterializeOverlay();
  const std::vector<int64_t> expected_overlay = expected.MaterializeOverlay();
  ASSERT_EQ(actual_overlay.size(), expected_overlay.size());
  for (size_t slot = 0; slot < actual_overlay.size(); ++slot) {
    ASSERT_EQ(actual_overlay[slot], expected_overlay[slot])
        << "overlay slot " << slot;
  }
}

TEST(ParallelBuildStressTest, ParallelBuildMatchesSerialAndAudits) {
  const Shape shape = Shape::FromExtents({45, 37});
  const NdArray<int64_t> cube = UniformCube(shape, -50, 50, 7);
  const CellIndex box_size = RecommendedBoxSize(shape);

  RelativePrefixSum<int64_t> serial(cube, box_size, /*pool=*/nullptr);

  ThreadPool pool(4);
  RelativePrefixSum<int64_t> parallel(cube, box_size, &pool);
  parallel.set_parallel_policy(ForceParallel());
  parallel.Build(cube);  // rebuild with every parallel path forced on

  ExpectSameStructure(parallel, serial);
  EXPECT_TRUE(parallel.CheckInvariants().ok());
}

TEST(ParallelBuildStressTest, RandomizedParallelUpdateStormStaysExact) {
  const Shape shape = Shape::FromExtents({33, 29});
  const NdArray<int64_t> cube = UniformCube(shape, 0, 99, 11);
  const CellIndex box_size = RecommendedBoxSize(shape);

  RelativePrefixSum<int64_t> serial(cube, box_size, /*pool=*/nullptr);
  ThreadPool pool(4);
  RelativePrefixSum<int64_t> parallel(cube, box_size, &pool);
  parallel.set_parallel_policy(ForceParallel());

  UniformUpdateGen gen(shape, 9, 23);
  Rng rng(171);
  for (int round = 0; round < 60; ++round) {
    if (rng.UniformInt(0, 3) == 0) {
      // Batched storm: several deltas at once, some sharing boxes.
      std::vector<RelativePrefixSum<int64_t>::CellDelta> batch;
      const int64_t batch_size = rng.UniformInt(1, 16);
      for (int64_t i = 0; i < batch_size; ++i) {
        const UpdateOp op = gen.Next();
        batch.push_back({op.cell, op.delta});
      }
      parallel.AddBatch(batch);
      for (const auto& op : batch) serial.Add(op.cell, op.delta);
    } else {
      const UpdateOp op = gen.Next();
      parallel.Add(op.cell, op.delta);
      serial.Add(op.cell, op.delta);
    }
  }

  ExpectSameStructure(parallel, serial);
  EXPECT_TRUE(parallel.CheckInvariants().ok());
}

TEST(ParallelBuildStressTest, HierarchicalParallelBuildMatchesSerial) {
  const Shape shape = Shape::FromExtents({28, 31});
  const NdArray<int64_t> cube = UniformCube(shape, -20, 80, 13);
  const CellIndex box_size = RecommendedHierarchicalBoxSize(shape);

  HierarchicalRps<int64_t> serial(cube, box_size, /*pool=*/nullptr);

  ThreadPool pool(4);
  HierarchicalRps<int64_t> parallel(cube, box_size, &pool);
  parallel.set_parallel_policy(ForceParallel());
  parallel.Build(cube);

  EXPECT_TRUE(parallel.rp_array() == serial.rp_array());
  EXPECT_TRUE(parallel.coarse().MaterializeRp() ==
              serial.coarse().MaterializeRp());
  const uint32_t full = (1u << shape.dims()) - 1;
  for (uint32_t mask = 1; mask < full; ++mask) {
    EXPECT_TRUE(parallel.face(mask).MaterializeRp() ==
                serial.face(mask).MaterializeRp())
        << "face " << mask;
  }
  EXPECT_TRUE(parallel.CheckInvariants().ok());

  // Updates on the forced-parallel structure stay exact too.
  UniformUpdateGen gen(shape, 5, 29);
  for (int i = 0; i < 40; ++i) {
    const UpdateOp op = gen.Next();
    parallel.Add(op.cell, op.delta);
    serial.Add(op.cell, op.delta);
  }
  EXPECT_TRUE(parallel.rp_array() == serial.rp_array());
  EXPECT_TRUE(parallel.CheckInvariants().ok());
}

TEST(ParallelBuildStressTest, SharedPoolAcrossStructuresIsSafe) {
  // Many structures hammering one pool concurrently from their own
  // builds: submit builds as pool tasks so nested ParallelFor paths
  // (inline on workers) and top-level paths mix.
  const Shape shape = Shape::FromExtents({24, 24});
  ThreadPool pool(4);
  std::vector<NdArray<int64_t>> cubes;
  for (uint64_t s = 0; s < 6; ++s) {
    cubes.push_back(UniformCube(shape, 0, 9, s));
  }
  std::vector<int64_t> checks(cubes.size(), 0);
  pool.ParallelFor(0, static_cast<int64_t>(cubes.size()), 1,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       RelativePrefixSum<int64_t> rps(
                           cubes[static_cast<size_t>(i)], &pool);
                       ParallelPolicy policy;
                       policy.min_parallel_cells = 1;
                       rps.set_parallel_policy(policy);
                       rps.Build(cubes[static_cast<size_t>(i)]);
                       checks[static_cast<size_t>(i)] =
                           rps.RangeSum(Box::All(shape));
                     }
                   });
  for (size_t i = 0; i < cubes.size(); ++i) {
    EXPECT_EQ(checks[i], cubes[i].SumBox(Box::All(shape))) << "cube " << i;
  }
}

}  // namespace
}  // namespace rps
