// Property tests for the batched and parallel update paths: across
// randomized dimensions (d = 1..3), extents, clipped edge boxes and
// update streams,
//   * AddBatch must leave the structure identical to the equivalent
//     scalar Adds (exact for integral cells, tolerance for floating
//     cells, where summing a cell's deltas first legitimately
//     reassociates additions);
//   * builds through a thread pool (parallel policy forced down so
//     every pool path triggers), and updates on the structure they
//     build, must match a strictly serial twin bit-for-bit on
//     integral cells.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/relative_prefix_sum.h"
#include "cube/nd_array.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/data_gen.h"

namespace rps {
namespace {

struct Config {
  uint64_t seed;
};

// Random shape with the configured dims whose extents are mostly not
// multiples of the (random) box sizes, so edge boxes get clipped.
Shape RandomShape(Rng& rng, int dims) {
  std::vector<int64_t> extents;
  for (int j = 0; j < dims; ++j) {
    extents.push_back(rng.UniformInt(3, 13));
  }
  return Shape::FromExtents(extents);
}

CellIndex RandomBoxSize(Rng& rng, const Shape& shape) {
  CellIndex box = CellIndex::Filled(shape.dims(), 1);
  for (int j = 0; j < shape.dims(); ++j) {
    box[j] = rng.UniformInt(2, shape.extent(j));
  }
  // Force at least one clipped edge box when the extent allows it.
  if (shape.extent(0) >= 3) {
    box[0] = shape.extent(0) - 1;
  }
  return box;
}

template <typename T>
NdArray<T> RandomCube(Rng& rng, const Shape& shape) {
  NdArray<T> cube(shape);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = static_cast<T>(rng.UniformInt(-100, 100));
  }
  return cube;
}

template <typename T>
void ExpectSameStructure(const RelativePrefixSum<T>& actual,
                         const RelativePrefixSum<T>& expected,
                         double tolerance) {
  const NdArray<T> actual_rp = actual.MaterializeRp();
  const NdArray<T> expected_rp = expected.MaterializeRp();
  ASSERT_TRUE(actual_rp.shape() == expected_rp.shape());
  for (int64_t i = 0; i < actual_rp.num_cells(); ++i) {
    EXPECT_NEAR(static_cast<double>(actual_rp.at_linear(i)),
                static_cast<double>(expected_rp.at_linear(i)), tolerance)
        << "RP cell " << i;
  }
  const std::vector<T> actual_overlay = actual.MaterializeOverlay();
  const std::vector<T> expected_overlay = expected.MaterializeOverlay();
  ASSERT_EQ(actual_overlay.size(), expected_overlay.size());
  for (size_t slot = 0; slot < actual_overlay.size(); ++slot) {
    EXPECT_NEAR(static_cast<double>(actual_overlay[slot]),
                static_cast<double>(expected_overlay[slot]), tolerance)
        << "overlay slot " << slot;
  }
}

template <typename T>
std::vector<typename RelativePrefixSum<T>::CellDelta> RandomDeltas(
    Rng& rng, const Shape& shape, int64_t count) {
  std::vector<typename RelativePrefixSum<T>::CellDelta> deltas;
  for (int64_t i = 0; i < count; ++i) {
    CellIndex cell = CellIndex::Filled(shape.dims(), 0);
    for (int j = 0; j < shape.dims(); ++j) {
      cell[j] = rng.UniformInt(0, shape.extent(j) - 1);
    }
    deltas.push_back({cell, static_cast<T>(rng.UniformInt(-9, 9))});
  }
  return deltas;
}

class ParallelEquivalenceTest : public testing::TestWithParam<Config> {};

TEST_P(ParallelEquivalenceTest, AddBatchMatchesScalarAddsExactlyForInt) {
  Rng rng(GetParam().seed);
  for (int dims = 1; dims <= 3; ++dims) {
    const Shape shape = RandomShape(rng, dims);
    const CellIndex box_size = RandomBoxSize(rng, shape);
    const NdArray<int64_t> cube = RandomCube<int64_t>(rng, shape);

    RelativePrefixSum<int64_t> batched(cube, box_size, /*pool=*/nullptr);
    RelativePrefixSum<int64_t> scalar = batched;

    const auto deltas = RandomDeltas<int64_t>(
        rng, shape, rng.UniformInt(1, 24));
    batched.AddBatch(deltas);
    for (const auto& op : deltas) scalar.Add(op.cell, op.delta);

    ExpectSameStructure(batched, scalar, /*tolerance=*/0.0);
    EXPECT_TRUE(batched.CheckInvariants().ok());
  }
}

TEST_P(ParallelEquivalenceTest, AddBatchMatchesScalarAddsWithinFloatTolerance) {
  Rng rng(GetParam().seed + 1000);
  for (int dims = 1; dims <= 3; ++dims) {
    const Shape shape = RandomShape(rng, dims);
    const CellIndex box_size = RandomBoxSize(rng, shape);
    const NdArray<double> cube = RandomCube<double>(rng, shape);

    RelativePrefixSum<double> batched(cube, box_size, /*pool=*/nullptr);
    RelativePrefixSum<double> scalar = batched;

    const auto deltas = RandomDeltas<double>(
        rng, shape, rng.UniformInt(1, 24));
    batched.AddBatch(deltas);
    for (const auto& op : deltas) scalar.Add(op.cell, op.delta);

    // A batch sums each cell's deltas before adding them, which
    // reassociates additions; values stay within rounding slack.
    ExpectSameStructure(batched, scalar, /*tolerance=*/1e-6);
  }
}

TEST_P(ParallelEquivalenceTest, ParallelBuildAndAddsMatchSerialExactly) {
  Rng rng(GetParam().seed + 2000);
  ThreadPool pool(3);
  ParallelPolicy force;
  force.min_parallel_cells = 1;
  for (int dims = 1; dims <= 3; ++dims) {
    const Shape shape = RandomShape(rng, dims);
    const CellIndex box_size = RandomBoxSize(rng, shape);
    const NdArray<int64_t> cube = RandomCube<int64_t>(rng, shape);

    RelativePrefixSum<int64_t> serial(cube, box_size, /*pool=*/nullptr);
    RelativePrefixSum<int64_t> parallel(cube, box_size, &pool);
    parallel.set_parallel_policy(force);
    parallel.Build(cube);  // rebuild with every pool path forced on
    ExpectSameStructure(parallel, serial, /*tolerance=*/0.0);

    const auto deltas = RandomDeltas<int64_t>(
        rng, shape, rng.UniformInt(1, 24));
    for (const auto& op : deltas) {
      parallel.Add(op.cell, op.delta);
      serial.Add(op.cell, op.delta);
    }
    parallel.AddBatch(deltas);
    serial.AddBatch(deltas);

    ExpectSameStructure(parallel, serial, /*tolerance=*/0.0);
    EXPECT_TRUE(parallel.CheckInvariants().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalenceTest,
                         testing::Values(Config{1}, Config{2}, Config{3},
                                         Config{4}, Config{5}, Config{6},
                                         Config{7}, Config{8}, Config{9},
                                         Config{10}));

}  // namespace
}  // namespace rps
