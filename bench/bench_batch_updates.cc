// Extension benchmark (E10): batch updates (RelativePrefixSum::AddBatch)
// vs one Add per delta.
//
// The paper's Figure 14 shows that every update rewrites the trailing
// part of its box's RP cells, the border runs of the boxes sharing a
// grid coordinate with it, and the anchors of all strictly dominating
// boxes; a batch of m updates landing in few boxes repeats most of
// those writes m times. AddBatch writes each cell the batch reaches
// once, with the summed delta of the updates that reach it. Times are
// medians of 41 applications to a warm structure, per side.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/table.h"
#include "core/relative_prefix_sum.h"
#include "util/stopwatch.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

using CellDelta = RelativePrefixSum<int64_t>::CellDelta;

// Median of `reps` timings of apply(batch), each on a warm structure:
// the batch and its negation alternate, so the structure returns to
// where it started every second call.
template <typename ApplyFn>
double MedianMs(const std::vector<CellDelta>& batch, ApplyFn&& apply) {
  constexpr int kReps = 41;
  std::vector<CellDelta> negated = batch;
  for (CellDelta& op : negated) op.delta = -op.delta;
  std::vector<double> ms;
  for (int rep = 0; rep < kReps; ++rep) {
    const Stopwatch watch;
    apply(rep % 2 == 0 ? batch : negated);
    ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  std::nth_element(ms.begin(), ms.begin() + kReps / 2, ms.end());
  return ms[kReps / 2];
}

void RunScenario(const char* name, const Shape& shape,
                 const std::vector<CellDelta>& batch) {
  const NdArray<int64_t> cube = UniformCube(shape, 0, 9, 50);
  const CellIndex box = RecommendedBoxSize(shape);

  RelativePrefixSum<int64_t> sequential(cube, box);
  UpdateStats seq_stats;
  for (const CellDelta& op : batch) {
    seq_stats += sequential.Add(op.cell, op.delta);
  }
  RelativePrefixSum<int64_t> batched(cube, box);
  const UpdateStats batch_stats = batched.AddBatch(batch);
  RPS_CHECK_MSG(sequential.MaterializeRp() == batched.MaterializeRp() &&
                    sequential.MaterializeOverlay() ==
                        batched.MaterializeOverlay(),
                "batch/sequential divergence");

  const double seq_ms = MedianMs(batch, [&](const auto& ops) {
    for (const CellDelta& op : ops) sequential.Add(op.cell, op.delta);
  });
  const double batch_ms =
      MedianMs(batch, [&](const auto& ops) { batched.AddBatch(ops); });

  std::printf(
      "%-34s  m=%5zu  cells %9lld -> %9lld (%.2fx)  time %7.3fms -> "
      "%7.3fms\n",
      name, batch.size(),
      static_cast<long long>(seq_stats.total()),
      static_cast<long long>(batch_stats.total()),
      static_cast<double>(seq_stats.total()) /
          static_cast<double>(std::max<int64_t>(1, batch_stats.total())),
      seq_ms, batch_ms);
}

std::vector<CellDelta> HotBoxBatch(const Shape& shape, int count,
                                   uint64_t seed) {
  // All updates land in the first overlay box ("today's slice").
  Rng rng(seed);
  const CellIndex k = RecommendedBoxSize(shape);
  std::vector<CellDelta> batch;
  for (int i = 0; i < count; ++i) {
    CellIndex cell = CellIndex::Filled(shape.dims(), 0);
    for (int j = 0; j < shape.dims(); ++j) {
      cell[j] = rng.UniformInt(0, k[j] - 1);
    }
    batch.push_back({cell, rng.UniformInt(1, 5)});
  }
  return batch;
}

std::vector<CellDelta> ScatteredBatch(const Shape& shape, int count,
                                      uint64_t seed) {
  UniformUpdateGen gen(shape, 5, seed);
  std::vector<CellDelta> batch;
  for (int i = 0; i < count; ++i) {
    const UpdateOp op = gen.Next();
    batch.push_back({op.cell, op.delta});
  }
  return batch;
}

}  // namespace
}  // namespace rps

int main() {
  rps::bench::PrintHeader(
      "extension", "batch updates: each cell once vs per-op Add");
  const rps::Shape square{512, 512};
  rps::RunScenario("512x512, 100 updates in one box", square,
                   rps::HotBoxBatch(square, 100, 1));
  rps::RunScenario("512x512, 1000 updates in one box", square,
                   rps::HotBoxBatch(square, 1000, 2));
  rps::RunScenario("512x512, 100 scattered updates", square,
                   rps::ScatteredBatch(square, 100, 3));
  const rps::Shape cube3{64, 64, 64};
  rps::RunScenario("64^3, 200 updates in one box", cube3,
                   rps::HotBoxBatch(cube3, 200, 4));
  rps::RunScenario("64^3, 200 scattered updates", cube3,
                   rps::ScatteredBatch(cube3, 200, 5));
  std::printf(
      "\nExpected shape: a hot-box batch writes the union of its RP tails\n"
      "and of its border runs, and the (n/k)^d interior anchors (512x512,\n"
      "k=23: ~484) once, so cells stay near one update's count however\n"
      "large the batch. Scattered batches share the border runs and\n"
      "anchors of the boxes they dominate together.\n");
  return 0;
}
