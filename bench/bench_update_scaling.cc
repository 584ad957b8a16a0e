// Experiment E6b -- update-cost scaling in n for each method
// (google-benchmark). The paper's claim: naive O(1); prefix sum
// O(n^d); RPS O(n^(d/2)) with k = sqrt(n). Fenwick O(log^d n) for
// context.

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_metrics_main.h"

#include "core/fenwick_method.h"
#include "core/hierarchical_rps.h"
#include "core/naive_method.h"
#include "core/prefix_sum_method.h"
#include "core/relative_prefix_sum.h"
#include "util/random.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

template <typename Method>
void BM_Update(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Shape shape = Shape::Hypercube(2, n);
  Method method(UniformCube(shape, 0, 99, 37));
  UniformUpdateGen gen(shape, 5, 41);
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 256; ++i) ops.push_back(gen.Next());
  size_t next = 0;
  int64_t cells = 0;
  for (auto _ : state) {
    cells += method.Add(ops[next].cell, ops[next].delta).total();
    next = (next + 1) & 255;
  }
  state.counters["cells/update"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_Update<NaiveMethod<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024);
BENCHMARK(BM_Update<PrefixSumMethod<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Update<RelativePrefixSum<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Update<FenwickMethod<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024);
BENCHMARK(BM_Update<HierarchicalRps<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

// The batch update path: AddBatch writes each cell a batch of 64
// uniform updates reaches once, with their summed delta. Reported per
// update for comparison with BM_Update<RelativePrefixSum>.
void BM_UpdateBatch(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t batch = 64;
  const Shape shape = Shape::Hypercube(2, n);
  RelativePrefixSum<int64_t> method(UniformCube(shape, 0, 99, 37));
  UniformUpdateGen gen(shape, 5, 41);
  std::vector<std::vector<RelativePrefixSum<int64_t>::CellDelta>> batches;
  for (int b = 0; b < 8; ++b) {
    std::vector<RelativePrefixSum<int64_t>::CellDelta> ops;
    for (int64_t i = 0; i < batch; ++i) {
      const UpdateOp op = gen.Next();
      ops.push_back({op.cell, op.delta});
    }
    batches.push_back(std::move(ops));
  }
  size_t next = 0;
  int64_t cells = 0;
  for (auto _ : state) {
    cells += method.AddBatch(batches[next]).total();
    next = (next + 1) & 7;
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["cells/update"] = benchmark::Counter(
      static_cast<double>(cells) / static_cast<double>(batch),
      benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_UpdateBatch)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

// Same batch path under a Zipf-skewed ("today's slice") update
// stream: updates cluster in few boxes, so more of their cells are
// shared and written once.
void BM_UpdateBatchHotspot(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t batch = 64;
  const Shape shape = Shape::Hypercube(2, n);
  RelativePrefixSum<int64_t> method(UniformCube(shape, 0, 99, 37));
  HotspotUpdateGen gen(shape, /*skew=*/1.2, 5, 41);
  std::vector<std::vector<RelativePrefixSum<int64_t>::CellDelta>> batches;
  for (int b = 0; b < 8; ++b) {
    std::vector<RelativePrefixSum<int64_t>::CellDelta> ops;
    for (int64_t i = 0; i < batch; ++i) {
      const UpdateOp op = gen.Next();
      ops.push_back({op.cell, op.delta});
    }
    batches.push_back(std::move(ops));
  }
  size_t next = 0;
  int64_t cells = 0;
  for (auto _ : state) {
    cells += method.AddBatch(batches[next]).total();
    next = (next + 1) & 7;
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["cells/update"] = benchmark::Counter(
      static_cast<double>(cells) / static_cast<double>(batch),
      benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_UpdateBatchHotspot)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);

// One insert batch on one shard-sized structure: Clone, then the 256
// records (the clone is freed each iteration, as a retired version
// is). Arg rows:0 puts the records in the last 8 cube rows, as the
// feed workload does (one box row of RPS's 16); rows:1 draws uniform
// rows (every box row). Arg batch:1 applies them with one AddBatch,
// as ShardedOlapEngine::Apply does per structure; batch:0 with one Add
// per record.
template <typename Method>
void BM_CloneAndBatch(benchmark::State& state) {
  const Shape shape{256, 1024};
  const NdArray<int64_t> counts = UniformCube(shape, 0, 99, 47);
  NdArray<double> cube(shape);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = static_cast<double>(counts.at_linear(i));
  }
  const Method method(cube);
  Rng rng(53);
  std::vector<QueryMethod<double>::CellDelta> records;
  for (int i = 0; i < 256; ++i) {
    const int64_t row =
        state.range(0) == 1 ? rng.UniformInt(0, 255) : rng.UniformInt(248, 255);
    records.push_back({CellIndex{row, rng.UniformInt(0, 1023)},
                       static_cast<double>(rng.UniformInt(1, 9999))});
  }
  const bool batch = state.range(1) == 1;
  for (auto _ : state) {
    const std::unique_ptr<QueryMethod<double>> clone = method.Clone();
    if (batch) {
      clone->AddBatch(records);
    } else {
      for (const auto& record : records) clone->Add(record.cell, record.delta);
    }
    benchmark::DoNotOptimize(clone.get());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}

BENCHMARK(BM_CloneAndBatch<RelativePrefixSum<double>>)
    ->ArgNames({"rows", "batch"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CloneAndBatch<FenwickMethod<double>>)
    ->ArgNames({"rows", "batch"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Build cost for context: all methods build in O(d N)-ish time except
// Fenwick's O(N log^d N) insertion build.
template <typename Method>
void BM_Build(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Shape shape = Shape::Hypercube(2, n);
  const NdArray<int64_t> cube = UniformCube(shape, 0, 99, 43);
  for (auto _ : state) {
    Method method(cube);
    benchmark::DoNotOptimize(method);
  }
  state.SetItemsProcessed(state.iterations() * shape.num_cells());
}

BENCHMARK(BM_Build<PrefixSumMethod<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Build<RelativePrefixSum<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Build<FenwickMethod<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rps

int main(int argc, char** argv) {
  return rps::bench::RunBenchmarksWithMetrics(argc, argv);
}
