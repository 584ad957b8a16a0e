// Experiment E6a -- the constant-time query claim, as google-benchmark
// microbenchmarks.
//
// Range-query latency vs cube side n for each method (d = 2). The
// paper's claim: prefix sum and RPS queries are O(1) in n (flat
// lines, RPS within a small constant of PS: 2^d vs ~(2^d)^2 lookups
// per query); the naive method grows with the range volume; Fenwick
// grows as log^d n.
//
// Query pools are 65536 entries, pre-generated (generator cost stays
// out of the loop) but large enough that the branch predictor and
// cache cannot memorize the query stream -- a 256-entry cycle
// understated real query cost by letting the predictor lock onto the
// repeating corner pattern.

#include <benchmark/benchmark.h>

#include "bench/bench_metrics_main.h"

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "core/fenwick_method.h"
#include "core/hierarchical_rps.h"
#include "core/naive_method.h"
#include "core/prefix_sum_method.h"
#include "core/relative_prefix_sum.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

constexpr size_t kQueryPool = 65536;  // power of two, see masking below

template <typename Method>
std::unique_ptr<Method> BuildMethod(int64_t n) {
  const Shape shape = Shape::Hypercube(2, n);
  return std::make_unique<Method>(UniformCube(shape, 0, 99, 13));
}

std::vector<Box> QueryPool(const Shape& shape, uint64_t seed) {
  UniformQueryGen gen(shape, seed);
  std::vector<Box> queries;
  queries.reserve(kQueryPool);
  for (size_t i = 0; i < kQueryPool; ++i) queries.push_back(gen.Next());
  return queries;
}

template <typename Method>
void BM_RangeQuery(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto method = BuildMethod<Method>(n);
  const std::vector<Box> queries = QueryPool(method->shape(), 17);
  size_t next = 0;
  int64_t checksum = 0;
  for (auto _ : state) {
    checksum += method->RangeSum(queries[next]);
    next = (next + 1) & (kQueryPool - 1);
  }
  benchmark::DoNotOptimize(checksum);
  state.SetLabel("d=2");
}

BENCHMARK(BM_RangeQuery<NaiveMethod<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RangeQuery<PrefixSumMethod<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_RangeQuery<RelativePrefixSum<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_RangeQuery<FenwickMethod<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_RangeQuery<HierarchicalRps<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Unit(benchmark::kNanosecond);

// Batched evaluation vs a single-query loop over the same 64 queries:
// the hierarchical batch path shares duplicated corner assemblies.
template <typename Method>
void BM_QueryBatch64(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto method = BuildMethod<Method>(n);
  const std::vector<Box> queries = QueryPool(method->shape(), 37);
  std::vector<int64_t> results(64);
  size_t next = 0;
  int64_t checksum = 0;
  for (auto _ : state) {
    method->RangeSumBatch(
        std::span<const Box>(queries).subspan(next, 64), results);
    for (const int64_t sum : results) checksum += sum;
    next = (next + 64) & (kQueryPool - 1);
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * 64);
}

template <typename Method>
void BM_QueryLoop64(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto method = BuildMethod<Method>(n);
  const std::vector<Box> queries = QueryPool(method->shape(), 37);
  size_t next = 0;
  int64_t checksum = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < 64; ++i) {
      checksum += method->RangeSum(queries[next + i]);
    }
    next = (next + 64) & (kQueryPool - 1);
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * 64);
}

BENCHMARK(BM_QueryBatch64<HierarchicalRps<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_QueryLoop64<HierarchicalRps<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMicrosecond);

// Rollup-style batch: the 64 queries tile the cube 8x8 -- a GROUP BY
// over a coarse grid, the common OLAP dashboard shape. Adjacent tiles
// share prefix corners on the 9x9 lattice of tile boundaries, so the
// hierarchical batch assembles ~81 distinct corners where the loop runs 256
// independent assemblies. Queries are shuffled: arrival order does
// not matter to the batch path.
std::vector<Box> TiledQueries(int64_t n) {
  const int64_t tile = n / 8;
  std::vector<Box> queries;
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      queries.push_back(Box(CellIndex{i * tile, j * tile},
                            CellIndex{(i + 1) * tile - 1, (j + 1) * tile - 1}));
    }
  }
  std::shuffle(queries.begin(), queries.end(), std::mt19937(7));
  return queries;
}

template <typename Method>
void BM_QueryBatchTiled64(benchmark::State& state) {
  auto method = BuildMethod<Method>(state.range(0));
  const std::vector<Box> queries = TiledQueries(state.range(0));
  std::vector<int64_t> results(queries.size());
  int64_t checksum = 0;
  for (auto _ : state) {
    method->RangeSumBatch(queries, results);
    for (const int64_t sum : results) checksum += sum;
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * 64);
}

template <typename Method>
void BM_QueryLoopTiled64(benchmark::State& state) {
  auto method = BuildMethod<Method>(state.range(0));
  const std::vector<Box> queries = TiledQueries(state.range(0));
  int64_t checksum = 0;
  for (auto _ : state) {
    for (const Box& query : queries) checksum += method->RangeSum(query);
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations() * 64);
}

BENCHMARK(BM_QueryBatchTiled64<HierarchicalRps<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_QueryLoopTiled64<HierarchicalRps<int64_t>>)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMicrosecond);

// Prefix lookups in isolation (the 2^d+1-cell assembly of Figure 12).
void BM_RpsPrefixLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Shape shape = Shape::Hypercube(2, n);
  RelativePrefixSum<int64_t> rps(UniformCube(shape, 0, 99, 19));
  Rng rng(23);
  std::vector<CellIndex> cells;
  cells.reserve(kQueryPool);
  for (size_t i = 0; i < kQueryPool; ++i) {
    cells.push_back(
        CellIndex{rng.UniformInt(0, n - 1), rng.UniformInt(0, n - 1)});
  }
  size_t next = 0;
  int64_t checksum = 0;
  for (auto _ : state) {
    checksum += rps.PrefixSum(cells[next]);
    next = (next + 1) & (kQueryPool - 1);
  }
  benchmark::DoNotOptimize(checksum);
}
BENCHMARK(BM_RpsPrefixLookup)->RangeMultiplier(4)->Range(16, 4096);

// Dimensionality sweep at fixed N ~ 4096 cells: query cost grows with
// 4^d lookups but stays independent of n.
template <int kDims>
void BM_RpsQueryByDims(benchmark::State& state) {
  const int64_t n = kDims == 1 ? 4096 : (kDims == 2 ? 64 : (kDims == 3 ? 16 : 8));
  const Shape shape = Shape::Hypercube(kDims, n);
  RelativePrefixSum<int64_t> rps(UniformCube(shape, 0, 99, 29));
  const std::vector<Box> queries = QueryPool(shape, 31);
  size_t next = 0;
  int64_t checksum = 0;
  for (auto _ : state) {
    checksum += rps.RangeSum(queries[next]);
    next = (next + 1) & (kQueryPool - 1);
  }
  benchmark::DoNotOptimize(checksum);
}
BENCHMARK(BM_RpsQueryByDims<1>);
BENCHMARK(BM_RpsQueryByDims<2>);
BENCHMARK(BM_RpsQueryByDims<3>);
BENCHMARK(BM_RpsQueryByDims<4>);

// The update rung on the same cubes: every d but 2 takes the
// runtime-d instance of the update scatter (OverlayGeometry::Scatter).
template <int kDims>
void BM_RpsUpdateByDims(benchmark::State& state) {
  const int64_t n = kDims == 1 ? 4096 : (kDims == 2 ? 64 : (kDims == 3 ? 16 : 8));
  const Shape shape = Shape::Hypercube(kDims, n);
  RelativePrefixSum<int64_t> rps(UniformCube(shape, 0, 99, 29));
  UniformUpdateGen gen(shape, 5, 43);
  std::vector<UpdateOp> ops;
  ops.reserve(kQueryPool);
  for (size_t i = 0; i < kQueryPool; ++i) ops.push_back(gen.Next());
  size_t next = 0;
  int64_t cells = 0;
  for (auto _ : state) {
    cells += rps.Add(ops[next].cell, ops[next].delta).total();
    next = (next + 1) & (kQueryPool - 1);
  }
  benchmark::DoNotOptimize(cells);
  state.counters["cells/update"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RpsUpdateByDims<1>);
BENCHMARK(BM_RpsUpdateByDims<2>);
BENCHMARK(BM_RpsUpdateByDims<3>);
BENCHMARK(BM_RpsUpdateByDims<4>);

}  // namespace
}  // namespace rps

int main(int argc, char** argv) {
  return rps::bench::RunBenchmarksWithMetrics(argc, argv);
}
