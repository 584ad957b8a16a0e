// Durable-ingest microbenchmark: per-record vs group-commit WAL under
// concurrent writers (google-benchmark --benchmark_filter=bench_durable
// in the perf-smoke CI leg; perfbench's `durable` workload measures
// the same path end to end).
//
// Every Insert is durable before it returns in both modes, and both
// hand their records to the same commit thread; the modes differ only
// in how many barriers N concurrent writers pay. With Threads(t),
// group commit should hold throughput roughly flat per process while
// per-record mode -- groups of one record -- stays capped by one
// barrier per record.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "bench/bench_metrics_main.h"

#include "olap/durable_engine.h"
#include "util/check.h"
#include "util/random.h"

namespace rps {
namespace {

std::unique_ptr<DurableOlapEngine> g_engine;
std::string g_dir;

constexpr int64_t kSide = 64;

void SetupEngine(bool group_commit) {
  static int counter = 0;
  g_dir = (std::filesystem::temp_directory_path() /
           ("rps_bench_durable_" + std::to_string(++counter)))
              .string();
  std::filesystem::remove_all(g_dir);
  std::filesystem::create_directories(g_dir);
  Schema schema("MEASURE", {Dimension::Integer("d0", 0, kSide),
                            Dimension::Integer("d1", 0, kSide)});
  DurableOptions options;
  options.group_commit = group_commit;
  options.group.barrier = WalBarrier::kFlush;
  auto created = DurableOlapEngine::Create(std::move(schema),
                                           EngineMethod::kRelativePrefixSum,
                                           /*shards=*/1, g_dir, options);
  RPS_CHECK(created.ok());
  g_engine = std::move(created).value();
}

void SetupGroup(const benchmark::State&) { SetupEngine(true); }
void SetupPerRecord(const benchmark::State&) { SetupEngine(false); }

void TeardownEngine(const benchmark::State&) {
  g_engine.reset();
  std::filesystem::remove_all(g_dir);
}

void IngestLoop(benchmark::State& state) {
  Rng rng(1234 + static_cast<uint64_t>(state.thread_index()) *
                     0x9e3779b97f4a7c15ull);
  for (auto _ : state) {
    const OlapRecord record{{rng.UniformInt(0, kSide - 1),
                             rng.UniformInt(0, kSide - 1)},
                            static_cast<double>(rng.UniformInt(1, 8))};
    const Status status = g_engine->Insert(record);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DurableIngestGroup(benchmark::State& state) { IngestLoop(state); }
void BM_DurableIngestPerRecord(benchmark::State& state) { IngestLoop(state); }

BENCHMARK(BM_DurableIngestGroup)
    ->Setup(SetupGroup)
    ->Teardown(TeardownEngine)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DurableIngestPerRecord)
    ->Setup(SetupPerRecord)
    ->Teardown(TeardownEngine)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rps

int main(int argc, char** argv) {
  return rps::bench::RunBenchmarksWithMetrics(argc, argv);
}
