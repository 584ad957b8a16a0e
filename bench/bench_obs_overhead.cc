// Observability overhead on the hot paths (google-benchmark).
//
// The always-on telemetry contract (docs/OBSERVABILITY.md) is that an
// instrumented binary with no sinks attached -- no event-log file, no
// slow-query threshold -- stays within a few percent of the same code
// with the RPS_OBS_OFF gate flipped. Each benchmark here runs with
// `Arg(1)` (gate on, the default) and `Arg(0)` (gate off, what
// RPS_OBS_OFF produces); compare the paired rows. A third tier where
// applicable shows the cost when a sink IS armed, so the fast path
// and the active path are both visible.
//
//   ./bench_obs_overhead --benchmark_filter=BM_EngineSum
//
// gates the acceptance check: (on - off) / off < 5%.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_metrics_main.h"
#include "core/relative_prefix_sum.h"
#include "obs/event_log.h"
#include "obs/gate.h"
#include "olap/sharded_engine.h"
#include "olap/query.h"
#include "olap/schema.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

// Gate scope: flips obs on/off for one benchmark run, restoring the
// default (on) afterwards so runs do not leak state into each other.
class GateScope {
 public:
  explicit GateScope(bool enabled) { obs::SetEnabled(enabled); }
  ~GateScope() { obs::SetEnabled(true); }
};

/// The RequestScope fast path in isolation: no sink, no threshold.
/// This is the fixed per-request cost every engine query pays.
void BM_RequestScopeIdle(benchmark::State& state) {
  const GateScope gate(state.range(0) != 0);
  for (auto _ : state) {
    obs::RequestScope request(obs::WideEventKind::kQuery, "bench.idle",
                              "relative_prefix_sum");
    benchmark::DoNotOptimize(&request);
  }
}
BENCHMARK(BM_RequestScopeIdle)->Arg(1)->Arg(0);

/// RequestScope with the event log armed (sink = a scratch file):
/// fills the WideEvent and pushes it through the MPSC ring.
void BM_RequestScopeEmitting(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rps_bench_obs_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  if (!obs::EventLog::Global().Open(path).ok()) {
    state.SkipWithError("cannot open event log sink");
    return;
  }
  for (auto _ : state) {
    obs::RequestScope request(obs::WideEventKind::kQuery, "bench.emit",
                              "relative_prefix_sum");
    request.set_box_volume(64);
    request.set_cells(2, 3);
  }
  obs::EventLog::Global().Close();
  std::filesystem::remove(path);
}
BENCHMARK(BM_RequestScopeEmitting);

/// The core structure's range-sum with its CollectorSpan: one
/// thread-local load when no collector is installed.
void BM_CoreRangeSum(benchmark::State& state) {
  const GateScope gate(state.range(0) != 0);
  const Shape shape = Shape::Hypercube(2, 256);
  RelativePrefixSum<int64_t> rps(UniformCube(shape, 0, 99, 37));
  UniformQueryGen gen(shape, /*seed=*/41);
  std::vector<Box> boxes;
  for (int i = 0; i < 256; ++i) boxes.push_back(gen.Next());
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rps.RangeSum(boxes[next]));
    next = (next + 1) & 255;
  }
}
BENCHMARK(BM_CoreRangeSum)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

/// The serving engine at one shard, the plain case.
std::unique_ptr<ShardedOlapEngine> MakeEngine() {
  Schema schema("MEASURE", {Dimension::Integer("x", 0, 64),
                            Dimension::Integer("y", 0, 64)});
  auto engine = std::make_unique<ShardedOlapEngine>(
      std::move(schema), EngineMethod::kRelativePrefixSum, /*shards=*/1);
  std::vector<OlapRecord> records;
  for (int64_t x = 0; x < 64; ++x) {
    for (int64_t y = 0; y < 64; y += 4) {
      OlapRecord record;
      record.values = {FieldValue(x), FieldValue(y)};
      record.measure = static_cast<double>(x + y);
      records.push_back(std::move(record));
    }
  }
  engine->Load(records);
  return engine;
}

/// The full engine query path: schema resolve, epoch pin, RequestScope
/// and histogram observation around the core range sum. The headline
/// overhead number: instrumented (Arg 1) vs RPS_OBS_OFF (Arg 0).
void BM_EngineSum(benchmark::State& state) {
  const GateScope gate(state.range(0) != 0);
  const std::unique_ptr<ShardedOlapEngine> engine = MakeEngine();
  RangeQuery query;
  query.WhereIntBetween("x", 8, 55);
  query.WhereIntBetween("y", 8, 55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Sum(query));
  }
}
BENCHMARK(BM_EngineSum)->Arg(1)->Arg(0);

/// The engine update path (shard clone, point insert into SUM and
/// COUNT structures, publish) under the same comparison.
void BM_EngineInsert(benchmark::State& state) {
  const GateScope gate(state.range(0) != 0);
  const std::unique_ptr<ShardedOlapEngine> engine = MakeEngine();
  std::vector<OlapRecord> records;
  for (int i = 0; i < 256; ++i) {
    OlapRecord record;
    record.values = {FieldValue(static_cast<int64_t>((i * 17) % 64)),
                     FieldValue(static_cast<int64_t>((i * 29) % 64))};
    record.measure = 1.0;
    records.push_back(std::move(record));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Insert(records[next]));
    next = (next + 1) & 255;
  }
}
BENCHMARK(BM_EngineInsert)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rps

int main(int argc, char** argv) {
  return rps::bench::RunBenchmarksWithMetrics(argc, argv);
}
