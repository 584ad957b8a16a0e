#include "tools/cli.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string_view>
#include <thread>

#include "core/cost_model.h"
#include "core/fenwick_method.h"
#include "core/hierarchical_rps.h"
#include "core/naive_method.h"
#include "core/prefix_sum_method.h"
#include "core/snapshot.h"
#include "cube/cube_io.h"
#include "cube/kernels/kernels.h"
#include "obs/event_log.h"
#include "obs/expo_server.h"
#include "obs/metrics.h"
#include "olap/durable_engine.h"
#include "olap/sharded_engine.h"
#include "storage/buffer_pool.h"
#include "storage/group_commit.h"
#include "storage/pager.h"
#include "storage/recovery_torture.h"
#include "storage/wal.h"
#include "util/epoch.h"
#include "util/random.h"
#include "workload/data_gen.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace rps::cli {
namespace {

Result<int64_t> ParseInt64(std::string_view text) {
  int64_t value;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("not an integer: '" + std::string(text) +
                                   "'");
  }
  return value;
}

Result<std::vector<int64_t>> SplitInts(const std::string& text,
                                       char separator) {
  std::vector<int64_t> values;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find(separator, start);
    const std::string_view piece =
        std::string_view(text).substr(start, end == std::string::npos
                                                 ? std::string::npos
                                                 : end - start);
    RPS_ASSIGN_OR_RETURN(const int64_t value, ParseInt64(piece));
    values.push_back(value);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return values;
}

// Looks up a required option.
Result<std::string> Require(const ParsedArgs& args, const std::string& key) {
  auto it = args.options.find(key);
  if (it == args.options.end()) {
    return Status::InvalidArgument("missing required option --" + key);
  }
  return it->second;
}

std::string OptionOr(const ParsedArgs& args, const std::string& key,
                     const std::string& fallback) {
  auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

Result<int64_t> IntOptionOr(const ParsedArgs& args, const std::string& key,
                            int64_t fallback) {
  auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  return ParseInt64(it->second);
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const int rc = std::fclose(file);
  if (written != content.size() || rc != 0) {
    return Status::IoError("failed writing " + path);
  }
  return Status::Ok();
}

Status CmdGen(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string shape_text, Require(args, "shape"));
  RPS_ASSIGN_OR_RETURN(const Shape shape, ParseShape(shape_text));
  RPS_ASSIGN_OR_RETURN(const std::string out, Require(args, "out"));
  const std::string dist = OptionOr(args, "dist", "uniform");
  RPS_ASSIGN_OR_RETURN(const int64_t seed, IntOptionOr(args, "seed", 1));
  RPS_ASSIGN_OR_RETURN(const int64_t lo, IntOptionOr(args, "lo", 0));
  RPS_ASSIGN_OR_RETURN(const int64_t hi, IntOptionOr(args, "hi", 99));

  NdArray<int64_t> cube(shape);
  if (dist == "uniform") {
    cube = UniformCube(shape, lo, hi, static_cast<uint64_t>(seed));
  } else if (dist == "zipf") {
    cube = ZipfCube(shape, 1.1, shape.num_cells() * 4,
                    static_cast<uint64_t>(seed));
  } else if (dist == "clustered") {
    cube = ClusteredCube(shape, 5, shape.extent(0) / 4 + 1, lo, hi,
                         static_cast<uint64_t>(seed));
  } else if (dist == "sparse") {
    cube = SparseCube(shape, 0.05, hi > 0 ? hi : 1,
                      static_cast<uint64_t>(seed));
  } else {
    return Status::InvalidArgument("unknown --dist '" + dist + "'");
  }
  RPS_RETURN_IF_ERROR(SaveCube(cube, out));
  std::printf("wrote %s cube %s (%lld cells) to %s\n", dist.c_str(),
              shape.ToString().c_str(),
              static_cast<long long>(shape.num_cells()), out.c_str());
  return Status::Ok();
}

Status CmdBuild(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string cube_path, Require(args, "cube"));
  RPS_ASSIGN_OR_RETURN(const std::string out, Require(args, "out"));
  RPS_ASSIGN_OR_RETURN(NdArray<int64_t> cube, LoadCube<int64_t>(cube_path));

  CellIndex box_size = RecommendedBoxSize(cube.shape());
  if (auto it = args.options.find("box"); it != args.options.end()) {
    RPS_ASSIGN_OR_RETURN(const Shape box_shape, ParseShape(it->second));
    if (box_shape.dims() != cube.dims()) {
      return Status::InvalidArgument("--box dimensionality mismatch");
    }
    for (int j = 0; j < cube.dims(); ++j) box_size[j] = box_shape.extent(j);
  }
  const RelativePrefixSum<int64_t> rps(cube, box_size);
  RPS_RETURN_IF_ERROR(SaveSnapshot(rps, out));
  const MemoryStats memory = rps.Memory();
  std::printf("built %s with boxes %s: %lld RP + %lld overlay cells -> %s\n",
              cube.shape().ToString().c_str(), box_size.ToString().c_str(),
              static_cast<long long>(memory.primary_cells),
              static_cast<long long>(memory.aux_cells), out.c_str());
  return Status::Ok();
}

Status CmdInfo(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string snap, Require(args, "snap"));
  RPS_ASSIGN_OR_RETURN(RelativePrefixSum<int64_t> rps,
                       LoadSnapshot<int64_t>(snap));
  const MemoryStats memory = rps.Memory();
  const OverlayGeometry& geo = rps.geometry();
  std::printf("shape:          %s\n", rps.shape().ToString().c_str());
  std::printf("box size:       %s\n", geo.box_size().ToString().c_str());
  std::printf("box grid:       %s (%lld boxes)\n",
              geo.grid_shape().ToString().c_str(),
              static_cast<long long>(geo.num_boxes()));
  std::printf("RP cells:       %lld\n",
              static_cast<long long>(memory.primary_cells));
  std::printf("overlay cells:  %lld (%.2f%% of RP)\n",
              static_cast<long long>(memory.aux_cells),
              100.0 * static_cast<double>(memory.aux_cells) /
                  static_cast<double>(memory.primary_cells));
  std::printf("worst update:   %lld cells\n",
              static_cast<long long>(RpsWorstCaseUpdateCells(geo).total()));
  std::printf("total sum:      %lld\n",
              static_cast<long long>(
                  rps.RangeSum(Box::All(rps.shape()))));
  return Status::Ok();
}

Status CmdQuery(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string snap, Require(args, "snap"));
  RPS_ASSIGN_OR_RETURN(const std::string range_text, Require(args, "range"));
  RPS_ASSIGN_OR_RETURN(const Box range, ParseRange(range_text));
  RPS_ASSIGN_OR_RETURN(RelativePrefixSum<int64_t> rps,
                       LoadSnapshot<int64_t>(snap));
  if (!range.Within(rps.shape())) {
    return Status::OutOfRange("range outside cube " +
                              rps.shape().ToString());
  }
  std::printf("SUM(%s) = %lld\n", range.ToString().c_str(),
              static_cast<long long>(rps.RangeSum(range)));
  return Status::Ok();
}

Status CmdUpdate(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string snap, Require(args, "snap"));
  RPS_ASSIGN_OR_RETURN(const std::string cell_text, Require(args, "cell"));
  RPS_ASSIGN_OR_RETURN(const CellIndex cell, ParseCell(cell_text));
  RPS_ASSIGN_OR_RETURN(const std::string delta_text, Require(args, "delta"));
  RPS_ASSIGN_OR_RETURN(const int64_t delta, ParseInt64(delta_text));
  RPS_ASSIGN_OR_RETURN(RelativePrefixSum<int64_t> rps,
                       LoadSnapshot<int64_t>(snap));
  if (!rps.shape().Contains(cell)) {
    return Status::OutOfRange("cell outside cube");
  }
  const UpdateStats stats = rps.Add(cell, delta);
  std::printf("added %lld at %s: touched %lld cells (%lld RP + %lld overlay)\n",
              static_cast<long long>(delta), cell.ToString().c_str(),
              static_cast<long long>(stats.total()),
              static_cast<long long>(stats.primary_cells),
              static_cast<long long>(stats.aux_cells));
  const std::string out = OptionOr(args, "out", snap);
  RPS_RETURN_IF_ERROR(SaveSnapshot(rps, out));
  std::printf("saved to %s\n", out.c_str());
  return Status::Ok();
}

Status CmdVerify(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string cube_path, Require(args, "cube"));
  RPS_ASSIGN_OR_RETURN(const std::string snap, Require(args, "snap"));
  RPS_ASSIGN_OR_RETURN(NdArray<int64_t> cube, LoadCube<int64_t>(cube_path));
  RPS_ASSIGN_OR_RETURN(RelativePrefixSum<int64_t> rps,
                       LoadSnapshot<int64_t>(snap));
  if (!(cube.shape() == rps.shape())) {
    return Status::FailedPrecondition("shape mismatch: cube " +
                                      cube.shape().ToString() +
                                      " vs snapshot " +
                                      rps.shape().ToString());
  }
  const RelativePrefixSum<int64_t> fresh(cube, rps.geometry().box_size());
  if (!(fresh.MaterializeRp() == rps.MaterializeRp())) {
    return Status::FailedPrecondition("RP arrays differ");
  }
  const std::vector<int64_t> fresh_overlay = fresh.MaterializeOverlay();
  const std::vector<int64_t> overlay = rps.MaterializeOverlay();
  for (size_t slot = 0; slot < fresh_overlay.size(); ++slot) {
    if (fresh_overlay[slot] != overlay[slot]) {
      return Status::FailedPrecondition("overlay slot " +
                                        std::to_string(slot) + " differs");
    }
  }
  std::printf("OK: snapshot matches a fresh build of the cube\n");
  return Status::Ok();
}

Status CmdAudit(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string snap, Require(args, "snap"));
  RPS_ASSIGN_OR_RETURN(const int64_t samples,
                       IntOptionOr(args, "samples", 256));
  RPS_ASSIGN_OR_RETURN(const int64_t seed, IntOptionOr(args, "seed", 1));
  if (samples < 1) {
    return Status::InvalidArgument("--samples must be >= 1");
  }
  RPS_ASSIGN_OR_RETURN(RelativePrefixSum<int64_t> rps,
                       LoadSnapshot<int64_t>(snap));
  AuditOptions options;
  options.rp_samples = samples;
  options.overlay_samples = samples;
  options.prefix_samples = samples / 4 + 1;
  options.seed = static_cast<uint64_t>(seed);
  RPS_RETURN_IF_ERROR(rps.CheckInvariants(options));
  const MemoryStats memory = rps.Memory();
  std::printf(
      "audit OK: %s structure (%lld RP + %lld overlay cells) is "
      "self-consistent (%lld samples per component, seed %lld)\n",
      rps.shape().ToString().c_str(),
      static_cast<long long>(memory.primary_cells),
      static_cast<long long>(memory.aux_cells),
      static_cast<long long>(samples), static_cast<long long>(seed));
  return Status::Ok();
}

// Applies the shared telemetry flags: --slow-query-us arms the
// slow-query log, --event-log opens the wide-event JSONL sink.
Status ApplyObsFlags(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const int64_t slow_us,
                       IntOptionOr(args, "slow-query-us", 0));
  if (slow_us > 0) {
    obs::SlowQueryLog::Global().set_threshold_nanos(slow_us * 1000);
  }
  if (auto it = args.options.find("event-log"); it != args.options.end()) {
    RPS_RETURN_IF_ERROR(obs::EventLog::Global().Open(it->second));
  }
  return Status::Ok();
}

// Threads `serve` starts besides its readers that pin an epoch slot:
// the writer and the exposition server's serving thread.
constexpr int64_t kServePinningThreads = 2;

// Serving stack for live observability: the serving engine (wrapped
// in a DurableOlapEngine under --durable group|per_record, taking
// periodic checkpoints) under synthetic reader/writer load, exposed
// on the exposition server for the run's duration. This is what CI
// scrapes and what an operator points a browser at to watch the
// paper's query/update trade-off live.
Status CmdServe(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const Shape shape,
                       ParseShape(OptionOr(args, "shape", "64x64")));
  RPS_ASSIGN_OR_RETURN(const int64_t port, IntOptionOr(args, "port", 0));
  RPS_ASSIGN_OR_RETURN(const int64_t duration_s,
                       IntOptionOr(args, "duration-s", 5));
  RPS_ASSIGN_OR_RETURN(const int64_t readers, IntOptionOr(args, "readers", 2));
  RPS_ASSIGN_OR_RETURN(const int64_t seed, IntOptionOr(args, "seed", 1));
  RPS_ASSIGN_OR_RETURN(const int64_t checkpoint_every,
                       IntOptionOr(args, "checkpoint-every", 256));
  // < 1 = one shard per pool thread (the engine's default).
  RPS_ASSIGN_OR_RETURN(const int64_t shards, IntOptionOr(args, "shards", 0));
  // --durable group|per_record funnels the writer's inserts through a
  // DurableOlapEngine (every record logged durably before Insert
  // returns, checkpoints pipelined); "off" serves from memory only.
  const std::string durable_mode = OptionOr(args, "durable", "off");
  if (durable_mode != "off" && durable_mode != "group" &&
      durable_mode != "per_record") {
    return Status::InvalidArgument("unknown --durable '" + durable_mode +
                                   "' (off|group|per_record)");
  }
  if (duration_s < 1) return Status::InvalidArgument("--duration-s must be >= 1");
  if (readers < 1) return Status::InvalidArgument("--readers must be >= 1");
  // Every reader pins an epoch slot, as do the threads serve starts
  // itself; the epoch domain has a fixed number of slots.
  if (readers + kServePinningThreads > EpochDomain::kMaxSlots) {
    return Status::InvalidArgument(
        "--readers must be <= " +
        std::to_string(EpochDomain::kMaxSlots - kServePinningThreads));
  }
  if (checkpoint_every < 1) {
    return Status::InvalidArgument("--checkpoint-every must be >= 1");
  }
  RPS_RETURN_IF_ERROR(ApplyObsFlags(args));

  // Engine over an Integer schema matching --shape (dimensions d0,
  // d1, ...), queried and updated concurrently below.
  std::vector<Dimension> dimensions;
  for (int j = 0; j < shape.dims(); ++j) {
    dimensions.push_back(Dimension::Integer("d" + std::to_string(j), 0,
                                            shape.extent(j)));
  }
  Schema schema("MEASURE", std::move(dimensions));
  std::unique_ptr<OlapServingEngine> engine;
  const ShardedOlapEngine* sharded = nullptr;
  DurableOlapEngine* durable_engine = nullptr;
  std::string directory;
  bool own_directory = false;
  std::error_code ec;
  if (durable_mode != "off") {
    // Generation files go to --dir, or to a scratch dir removed on
    // success.
    directory = OptionOr(args, "dir", "");
    own_directory = directory.empty();
    if (own_directory) {
      directory = (std::filesystem::temp_directory_path() /
                   ("rps_serve_" + std::to_string(::getpid())))
                      .string();
    }
    std::filesystem::create_directories(directory, ec);
    if (ec) return Status::IoError("cannot create scratch dir " + directory);
    DurableOptions durable_options;
    durable_options.group_commit = durable_mode == "group";
    RPS_ASSIGN_OR_RETURN(
        std::unique_ptr<DurableOlapEngine> created,
        DurableOlapEngine::Create(std::move(schema),
                                  EngineMethod::kRelativePrefixSum,
                                  static_cast<int>(shards), directory,
                                  durable_options));
    durable_engine = created.get();
    sharded = &created->inner();
    engine = std::move(created);
  } else {
    auto created = std::make_unique<ShardedOlapEngine>(
        std::move(schema), EngineMethod::kRelativePrefixSum,
        static_cast<int>(shards));
    sharded = created.get();
    engine = std::move(created);
  }
  int64_t checkpoints = 0;  // written by the writer thread only

  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> updates{0};
  std::atomic<int64_t> failures{0};

  obs::ExpoServer::Options options;
  options.port = static_cast<int>(port);
  obs::ExpoServer server(options);
  server.AddHealthSource("engine", [sharded] { return sharded->HealthJson(); });
  server.AddVarzSource("shards", [sharded] { return sharded->VarzJson(); });
  if (durable_engine != nullptr) {
    server.AddHealthSource("durable", [durable_engine] {
      return durable_engine->HealthJson();
    });
  }
  server.AddVarzSource("kernels", [] { return kernels::InfoJson(); });
  server.AddVarzSource("serve", [&] {
    std::string out = "{\"queries\":";
    out += std::to_string(queries.load(std::memory_order_relaxed));
    out += ",\"updates\":";
    out += std::to_string(updates.load(std::memory_order_relaxed));
    out += ",\"failures\":";
    out += std::to_string(failures.load(std::memory_order_relaxed));
    out += '}';
    return out;
  });
  RPS_RETURN_IF_ERROR(server.Start());
  std::printf("serving on http://127.0.0.1:%d for %llds "
              "(/metrics /metrics.json /healthz /varz /debug/slow)\n",
              server.port(), static_cast<long long>(duration_s));
  std::fflush(stdout);
  if (auto it = args.options.find("port-file"); it != args.options.end()) {
    RPS_RETURN_IF_ERROR(
        WriteTextFile(it->second, std::to_string(server.port()) + "\n"));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int64_t i = 0; i < readers; ++i) {
    workers.emplace_back([&, i] {
      Rng rng(static_cast<uint64_t>(seed) * 1000 + static_cast<uint64_t>(i));
      while (!stop.load(std::memory_order_relaxed)) {
        RangeQuery query;
        for (int j = 0; j < shape.dims(); ++j) {
          const int64_t a = rng.UniformInt(0, shape.extent(j) - 1);
          const int64_t b = rng.UniformInt(0, shape.extent(j) - 1);
          query.WhereIntBetween("d" + std::to_string(j), std::min(a, b),
                                std::max(a, b));
        }
        if (engine->Sum(query).ok()) {
          queries.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  workers.emplace_back([&] {
    Rng rng(static_cast<uint64_t>(seed) + 99);
    int64_t inserted = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      OlapRecord record;
      for (int j = 0; j < shape.dims(); ++j) {
        record.values.emplace_back(rng.UniformInt(0, shape.extent(j) - 1));
      }
      record.measure = static_cast<double>(rng.UniformInt(0, 9));
      if (engine->Insert(record).ok()) {
        updates.fetch_add(1, std::memory_order_relaxed);
        ++inserted;
      } else {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      // The engine logged the insert durably already; periodic
      // checkpoints bound replay (and run pipelined, so readers and
      // this writer keep going while the base file lands).
      if (durable_engine != nullptr && inserted > 0 &&
          inserted % checkpoint_every == 0) {
        if (durable_engine->Checkpoint().ok()) ++checkpoints;
      }
    }
  });

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(duration_s);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& worker : workers) worker.join();
  server.Stop();
  obs::EventLog::Global().Close();

  std::printf("served %lld queries, %lld updates (%lld failures); "
              "%lld checkpoints, final generation %lld\n",
              static_cast<long long>(queries.load()),
              static_cast<long long>(updates.load()),
              static_cast<long long>(failures.load()),
              static_cast<long long>(checkpoints),
              static_cast<long long>(durable_engine != nullptr
                                         ? durable_engine->generation()
                                         : 0));
  if (failures.load() != 0) {
    return Status::Internal("serve workload had failures");
  }
  if (own_directory) std::filesystem::remove_all(directory, ec);
  return Status::Ok();
}

Status CmdBench(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string cube_path, Require(args, "cube"));
  RPS_ASSIGN_OR_RETURN(NdArray<int64_t> cube, LoadCube<int64_t>(cube_path));
  RPS_ASSIGN_OR_RETURN(const int64_t queries,
                       IntOptionOr(args, "queries", 200));
  RPS_ASSIGN_OR_RETURN(const int64_t updates,
                       IntOptionOr(args, "updates", 200));
  RPS_ASSIGN_OR_RETURN(const int64_t seed, IntOptionOr(args, "seed", 1));
  RPS_ASSIGN_OR_RETURN(const int64_t batch_queries,
                       IntOptionOr(args, "batch-queries", 256));

  const std::string method_name = OptionOr(args, "method", "all");
  std::vector<std::unique_ptr<QueryMethod<int64_t>>> methods;
  auto want = [&](const char* name) {
    return method_name == "all" || method_name == name;
  };
  if (want("naive")) {
    methods.push_back(std::make_unique<NaiveMethod<int64_t>>(cube));
  }
  if (want("prefix_sum")) {
    methods.push_back(std::make_unique<PrefixSumMethod<int64_t>>(cube));
  }
  if (want("relative_prefix_sum") || method_name == "rps") {
    methods.push_back(std::make_unique<RelativePrefixSum<int64_t>>(cube));
  }
  if (want("hierarchical_rps") || method_name == "hier") {
    methods.push_back(std::make_unique<HierarchicalRps<int64_t>>(cube));
  }
  if (want("fenwick")) {
    methods.push_back(std::make_unique<FenwickMethod<int64_t>>(cube));
  }
  if (methods.empty()) {
    return Status::InvalidArgument("unknown --method '" + method_name + "'");
  }

  // Optional live telemetry while the bench runs: an exposition
  // server to scrape, a slow-query threshold, a wide-event sink.
  RPS_RETURN_IF_ERROR(ApplyObsFlags(args));
  std::optional<obs::ExpoServer> expo;
  if (auto it = args.options.find("expo-port"); it != args.options.end()) {
    RPS_ASSIGN_OR_RETURN(const int64_t expo_port, ParseInt64(it->second));
    obs::ExpoServer::Options options;
    options.port = static_cast<int>(expo_port);
    expo.emplace(options);
    expo->AddVarzSource("kernels", [] { return kernels::InfoJson(); });
    RPS_RETURN_IF_ERROR(expo->Start());
    std::printf("exposition server on http://127.0.0.1:%d\n", expo->port());
    std::fflush(stdout);
  }

  std::printf("row kernels: %s\n", kernels::BackendName(
                                       kernels::ActiveBackend()));
  std::printf("%-22s %14s %14s %18s\n", "method", "avg query us",
              "avg update us", "avg cells/update");
  for (auto& method : methods) {
    UniformQueryGen query_gen(cube.shape(), static_cast<uint64_t>(seed));
    UniformUpdateGen update_gen(cube.shape(), 9,
                                static_cast<uint64_t>(seed) + 1);
    const WorkloadSpec spec{.num_queries = queries, .num_updates = updates,
                            .interleave = true};
    const WorkloadReport report =
        RunWorkload(*method, query_gen, update_gen, spec);
    std::printf("%-22s %14.3f %14.3f %18.1f\n", report.method.c_str(),
                report.avg_query_micros(), report.avg_update_micros(),
                report.avg_update_cells());
  }

  // Batched-query phase: the same uniform query mix, answered through
  // RangeSumBatch (RunParallelQueryWorkload chunks the batch over the
  // global pool). --batch-queries 0 skips it.
  if (batch_queries > 0) {
    std::printf("%-22s %14s   (batch of %lld)\n", "method",
                "avg query us", static_cast<long long>(batch_queries));
    for (auto& method : methods) {
      UniformQueryGen query_gen(cube.shape(), static_cast<uint64_t>(seed));
      std::vector<Box> ranges;
      ranges.reserve(static_cast<size_t>(batch_queries));
      for (int64_t i = 0; i < batch_queries; ++i) {
        ranges.push_back(query_gen.Next());
      }
      const WorkloadReport report =
          RunParallelQueryWorkload(*method, ranges, &ThreadPool::Global());
      std::printf("%-22s %14.3f\n", report.method.c_str(),
                  report.avg_query_micros());
    }
  }
  if (auto it = args.options.find("metrics-json"); it != args.options.end()) {
    RPS_RETURN_IF_ERROR(WriteTextFile(
        it->second, obs::MetricRegistry::Global().RenderJson() + "\n"));
    std::printf("wrote metrics JSON to %s\n", it->second.c_str());
  }
  obs::EventLog::Global().Close();
  return Status::Ok();
}

// Extracts counter name{labels} -> value pairs from a /metrics.json
// payload. A purpose-built scanner, not a JSON parser: the format is
// ours (MetricRegistry::RenderJson, golden-pinned), label objects
// never nest, and counter values are integers.
std::map<std::string, int64_t> ParseCounterValues(const std::string& json) {
  std::map<std::string, int64_t> out;
  const size_t begin = json.find("\"counters\":[");
  if (begin == std::string::npos) return out;
  const size_t end = json.find("],\"gauges\"", begin);
  const std::string_view section =
      std::string_view(json).substr(begin, end == std::string::npos
                                               ? std::string::npos
                                               : end - begin);
  size_t pos = 0;
  for (;;) {
    size_t name_at = section.find("{\"name\":\"", pos);
    if (name_at == std::string_view::npos) break;
    name_at += 9;
    const size_t name_end = section.find('"', name_at);
    size_t labels_at = section.find("\"labels\":{", name_end);
    if (labels_at == std::string_view::npos) break;
    labels_at += 9;
    const size_t labels_end = section.find('}', labels_at);
    size_t value_at = section.find("\"value\":", labels_end);
    if (value_at == std::string_view::npos) break;
    value_at += 8;
    size_t value_end = value_at;
    while (value_end < section.size() &&
           (section[value_end] == '-' || (section[value_end] >= '0' &&
                                          section[value_end] <= '9'))) {
      ++value_end;
    }
    const Result<int64_t> value =
        ParseInt64(section.substr(value_at, value_end - value_at));
    if (value.ok()) {
      std::string key(section.substr(name_at, name_end - name_at));
      const std::string_view labels =
          section.substr(labels_at, labels_end + 1 - labels_at);
      if (labels != "{}") key += std::string(labels);
      out[key] = value.value();
    }
    pos = value_end;
  }
  return out;
}

// Delta mode: scrapes /metrics.json from a live exposition server
// every --watch seconds and prints each counter's rate of change.
Status CmdMetricsWatch(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const int64_t interval, IntOptionOr(args, "watch", 2));
  if (interval < 1) return Status::InvalidArgument("--watch must be >= 1");
  RPS_ASSIGN_OR_RETURN(const std::string port_text, Require(args, "port"));
  RPS_ASSIGN_OR_RETURN(const int64_t port, ParseInt64(port_text));
  const std::string host = OptionOr(args, "host", "127.0.0.1");
  // 0 watches until interrupted; tests and CI pass a finite count.
  RPS_ASSIGN_OR_RETURN(const int64_t rounds, IntOptionOr(args, "rounds", 0));

  std::map<std::string, int64_t> previous;
  for (int64_t round = 0; rounds == 0 || round < rounds; ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(interval));
    }
    RPS_ASSIGN_OR_RETURN(
        const std::string body,
        obs::HttpGet(host, static_cast<int>(port), "/metrics.json"));
    const std::map<std::string, int64_t> current = ParseCounterValues(body);
    if (round == 0) {
      std::printf("watching %zu counters on %s:%lld every %llds\n",
                  current.size(), host.c_str(),
                  static_cast<long long>(port),
                  static_cast<long long>(interval));
    } else {
      std::printf("-- t+%llds\n",
                  static_cast<long long>(round * interval));
      bool any = false;
      for (const auto& [key, value] : current) {
        const auto it = previous.find(key);
        const int64_t delta = value - (it == previous.end() ? 0 : it->second);
        if (delta == 0) continue;
        any = true;
        std::printf("%-60s %12lld %+10lld (%.1f/s)\n", key.c_str(),
                    static_cast<long long>(value),
                    static_cast<long long>(delta),
                    static_cast<double>(delta) /
                        static_cast<double>(interval));
      }
      if (!any) std::printf("(no counter movement)\n");
    }
    std::fflush(stdout);
    previous = current;
  }
  return Status::Ok();
}

// Runs a small self-contained workload so every instrumented
// subsystem (core structures, buffer pool, pager, WAL) has samples,
// then renders the process-wide registry.
Status CmdMetrics(const ParsedArgs& args) {
  if (args.options.count("watch") != 0) return CmdMetricsWatch(args);
  RPS_ASSIGN_OR_RETURN(const Shape shape,
                       ParseShape(OptionOr(args, "shape", "32x32")));
  RPS_ASSIGN_OR_RETURN(const int64_t queries,
                       IntOptionOr(args, "queries", 64));
  RPS_ASSIGN_OR_RETURN(const int64_t updates,
                       IntOptionOr(args, "updates", 64));
  RPS_ASSIGN_OR_RETURN(const int64_t seed, IntOptionOr(args, "seed", 1));
  const std::string format = OptionOr(args, "format", "both");
  if (format != "text" && format != "json" && format != "both") {
    return Status::InvalidArgument("unknown --format '" + format + "'");
  }

  // Core structures via the workload driver: fills the per-method
  // rps_workload_* latency histograms and the rps_core_* counters.
  const NdArray<int64_t> cube =
      UniformCube(shape, 0, 9, static_cast<uint64_t>(seed));
  std::vector<std::unique_ptr<QueryMethod<int64_t>>> methods;
  methods.push_back(std::make_unique<NaiveMethod<int64_t>>(cube));
  methods.push_back(std::make_unique<PrefixSumMethod<int64_t>>(cube));
  methods.push_back(std::make_unique<RelativePrefixSum<int64_t>>(cube));
  methods.push_back(std::make_unique<HierarchicalRps<int64_t>>(cube));
  methods.push_back(std::make_unique<FenwickMethod<int64_t>>(cube));
  for (auto& method : methods) {
    UniformQueryGen query_gen(cube.shape(), static_cast<uint64_t>(seed));
    UniformUpdateGen update_gen(cube.shape(), 9,
                                static_cast<uint64_t>(seed) + 1);
    const WorkloadSpec spec{.num_queries = queries, .num_updates = updates,
                            .interleave = true};
    (void)RunWorkload(*method, query_gen, update_gen, spec);
  }

  // Storage: churn a small buffer pool over a MemPager (hits, misses,
  // evictions, write-backs) ...
  {
    MemPager pager(512);
    RPS_RETURN_IF_ERROR(pager.Grow(16));
    BufferPool pool(&pager, 4);
    for (int64_t round = 0; round < 2; ++round) {
      for (PageId id = 0; id < pager.num_pages(); ++id) {
        RPS_ASSIGN_OR_RETURN(PinnedPage page, pool.Pin(id));
        page.MarkDirty();
        RPS_ASSIGN_OR_RETURN(const PinnedPage again, pool.Pin(id));  // hit
      }
    }
    RPS_RETURN_IF_ERROR(pool.FlushAll());
  }

  // ... and WAL append/flush latency against a scratch file.
  {
    const std::string wal_path =
        (std::filesystem::temp_directory_path() /
         ("rps_metrics_" + std::to_string(::getpid()) + ".wal"))
            .string();
    RPS_ASSIGN_OR_RETURN(
        WriteAheadLog wal,
        WriteAheadLog::OpenForAppend(wal_path, shape.dims(),
                                     sizeof(int64_t)));
    const int64_t payload = 1;
    CellIndex cell = CellIndex::Filled(shape.dims(), 0);
    for (int64_t i = 0; i < 8; ++i) {
      cell[0] = i % shape.extent(0);
      RPS_RETURN_IF_ERROR(wal.Append(cell, &payload));
    }
    RPS_RETURN_IF_ERROR(wal.Close());
    std::filesystem::remove(wal_path);
  }

  // ... and the group-commit front end (rps_wal_group_queue_depth
  // plus more samples in the rps_wal_group_* histograms) over a
  // second scratch log.
  {
    const std::string wal_path =
        (std::filesystem::temp_directory_path() /
         ("rps_metrics_" + std::to_string(::getpid()) + ".gwal"))
            .string();
    RPS_ASSIGN_OR_RETURN(
        WriteAheadLog wal,
        WriteAheadLog::OpenForAppend(wal_path, shape.dims(),
                                     sizeof(int64_t)));
    GroupCommitOptions group_options;
    group_options.barrier = WalBarrier::kFlush;
    GroupCommitWal group_wal(std::move(wal), group_options);
    const int64_t payload = 1;
    CellIndex cell = CellIndex::Filled(shape.dims(), 0);
    for (int64_t i = 0; i < 8; ++i) {
      cell[0] = i % shape.extent(0);
      RPS_RETURN_IF_ERROR(group_wal.Append(cell, &payload));
    }
    group_wal.Shutdown();
    std::filesystem::remove(wal_path);
  }

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  if (format == "text" || format == "both") {
    std::fputs(registry.RenderText().c_str(), stdout);
  }
  if (format == "json" || format == "both") {
    std::fputs(registry.RenderJson().c_str(), stdout);
    std::fputc('\n', stdout);
  }
  if (auto it = args.options.find("json"); it != args.options.end()) {
    RPS_RETURN_IF_ERROR(
        WriteTextFile(it->second, registry.RenderJson() + "\n"));
  }
  return Status::Ok();
}

// Thousands of simulated crash/recover cycles against an in-memory
// oracle (storage/recovery_torture.h). Every knob is deterministic
// from --seed; the seed is echoed so failures reproduce exactly.
Status CmdTorture(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const Shape shape,
                       ParseShape(OptionOr(args, "shape", "12x12")));
  RPS_ASSIGN_OR_RETURN(const Shape box,
                       ParseShape(OptionOr(args, "box", "4x4")));
  if (box.dims() != shape.dims()) {
    return Status::InvalidArgument("--box dimensionality mismatch");
  }
  TortureOptions options;
  RPS_ASSIGN_OR_RETURN(options.cycles, IntOptionOr(args, "cycles", 200));
  RPS_ASSIGN_OR_RETURN(const int64_t seed, IntOptionOr(args, "seed", 1));
  options.seed = static_cast<uint64_t>(seed);
  RPS_ASSIGN_OR_RETURN(options.ops_per_cycle, IntOptionOr(args, "ops", 40));
  RPS_ASSIGN_OR_RETURN(options.queries_per_cycle,
                       IntOptionOr(args, "queries", 8));
  // --group-commit 1 funnels every cycle's appends through the
  // group-commit front end and pipelines checkpoints, so recovery
  // exercises rotated/orphan log generations too.
  RPS_ASSIGN_OR_RETURN(const int64_t group_commit,
                       IntOptionOr(args, "group-commit", 0));
  options.group_commit = group_commit != 0;
  options.extents.clear();
  options.box_size.clear();
  for (int j = 0; j < shape.dims(); ++j) {
    options.extents.push_back(shape.extent(j));
    options.box_size.push_back(box.extent(j));
  }

  // Scratch directory: --dir if given, otherwise a fresh temp dir
  // that is removed when the run passes (kept on failure for
  // inspection).
  options.directory = OptionOr(args, "dir", "");
  const bool own_directory = options.directory.empty();
  std::error_code ec;
  if (own_directory) {
    options.directory =
        (std::filesystem::temp_directory_path() /
         ("rps_torture_" + std::to_string(::getpid()) + "_" +
          std::to_string(seed)))
            .string();
  }
  std::filesystem::create_directories(options.directory, ec);
  if (ec) {
    return Status::IoError("cannot create scratch dir " + options.directory);
  }

  const Result<TortureReport> run = RunRecoveryTorture(options);
  if (!run.ok()) {
    std::fprintf(stderr, "torture state kept in %s\n",
                 options.directory.c_str());
    return run.status();
  }
  if (own_directory) std::filesystem::remove_all(options.directory, ec);
  const TortureReport& report = run.value();
  std::printf(
      "torture OK: %lld cycles on %s (seed %lld%s)\n"
      "  adds:        %lld applied, %lld interrupted "
      "(%lld recovered, %lld lost)\n"
      "  checkpoints: %lld committed, %lld interrupted "
      "(final generation %lld)\n"
      "  crashes:     %lld simulated, %lld torn WAL tails, "
      "%lld records replayed\n"
      "  verified:    %lld cells + %lld range sums post-recovery\n",
      static_cast<long long>(report.cycles_run), shape.ToString().c_str(),
      static_cast<long long>(seed),
      options.group_commit ? ", group commit" : "",
      static_cast<long long>(report.adds_applied),
      static_cast<long long>(report.adds_failed),
      static_cast<long long>(report.pending_applied),
      static_cast<long long>(report.pending_lost),
      static_cast<long long>(report.checkpoints),
      static_cast<long long>(report.checkpoints_failed),
      static_cast<long long>(report.final_generation),
      static_cast<long long>(report.crashes_injected),
      static_cast<long long>(report.torn_tails),
      static_cast<long long>(report.records_replayed),
      static_cast<long long>(report.cells_verified),
      static_cast<long long>(report.range_sums_verified));
  return Status::Ok();
}

Status CmdTraceRecord(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string shape_text, Require(args, "shape"));
  RPS_ASSIGN_OR_RETURN(const Shape shape, ParseShape(shape_text));
  RPS_ASSIGN_OR_RETURN(const std::string out, Require(args, "out"));
  RPS_ASSIGN_OR_RETURN(const int64_t queries,
                       IntOptionOr(args, "queries", 100));
  RPS_ASSIGN_OR_RETURN(const int64_t updates,
                       IntOptionOr(args, "updates", 100));
  RPS_ASSIGN_OR_RETURN(const int64_t seed, IntOptionOr(args, "seed", 1));
  const Trace trace = RecordMixedTrace(shape, queries, updates,
                                       static_cast<uint64_t>(seed));
  RPS_RETURN_IF_ERROR(SaveTrace(trace, out));
  std::printf("recorded %zu ops (%lld queries + %lld updates) over %s -> %s\n",
              trace.ops.size(), static_cast<long long>(queries),
              static_cast<long long>(updates), shape.ToString().c_str(),
              out.c_str());
  return Status::Ok();
}

Status CmdTraceReplay(const ParsedArgs& args) {
  RPS_ASSIGN_OR_RETURN(const std::string cube_path, Require(args, "cube"));
  RPS_ASSIGN_OR_RETURN(const std::string trace_path, Require(args, "trace"));
  RPS_ASSIGN_OR_RETURN(NdArray<int64_t> cube, LoadCube<int64_t>(cube_path));
  RPS_ASSIGN_OR_RETURN(Trace trace, LoadTrace(trace_path));
  const std::string method_name =
      OptionOr(args, "method", "relative_prefix_sum");

  std::unique_ptr<QueryMethod<int64_t>> method;
  if (method_name == "naive") {
    method = std::make_unique<NaiveMethod<int64_t>>(cube);
  } else if (method_name == "prefix_sum") {
    method = std::make_unique<PrefixSumMethod<int64_t>>(cube);
  } else if (method_name == "relative_prefix_sum" || method_name == "rps") {
    method = std::make_unique<RelativePrefixSum<int64_t>>(cube);
  } else if (method_name == "hierarchical_rps" || method_name == "hier") {
    method = std::make_unique<HierarchicalRps<int64_t>>(cube);
  } else if (method_name == "fenwick") {
    method = std::make_unique<FenwickMethod<int64_t>>(cube);
  } else {
    return Status::InvalidArgument("unknown --method '" + method_name + "'");
  }

  RPS_ASSIGN_OR_RETURN(const TraceReplayReport report,
                       ReplayTrace(*method, trace));
  std::printf("%s replayed %lld queries + %lld updates:\n"
              "  query checksum: %lld\n"
              "  update cells:   %lld\n",
              method->name().c_str(),
              static_cast<long long>(report.queries),
              static_cast<long long>(report.updates),
              static_cast<long long>(report.query_checksum),
              static_cast<long long>(report.update_cells));
  return Status::Ok();
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: rps_tool <command> [options]\n"
      "  gen     --shape AxB [--dist uniform|zipf|clustered|sparse]\n"
      "          [--seed N --lo N --hi N] --out cube.bin\n"
      "  build   --cube cube.bin [--box AxB] --out structure.snap\n"
      "  info    --snap structure.snap\n"
      "  query   --snap structure.snap --range a,b:c,d\n"
      "  update  --snap structure.snap --cell a,b --delta N [--out f]\n"
      "  verify  --cube cube.bin --snap structure.snap\n"
      "  audit   --snap structure.snap [--samples N --seed N]\n"
      "  bench   --cube cube.bin [--method all|naive|prefix_sum|\n"
      "          relative_prefix_sum|hierarchical_rps|fenwick]\n"
      "          [--queries N --updates N --batch-queries N --seed N]\n"
      "          [--metrics-json metrics.json] [--expo-port N]\n"
      "          [--slow-query-us N] [--event-log events.jsonl]\n"
      "  serve   [--port N --port-file f --duration-s N --shape AxB]\n"
      "          [--readers N --checkpoint-every N --seed N --dir d]\n"
      "          [--shards N (<1 = one per pool thread)]\n"
      "          [--durable off|group|per_record] [--slow-query-us N]\n"
      "          [--event-log events.jsonl]\n"
      "  metrics [--shape AxB --queries N --updates N --seed N]\n"
      "          [--format text|json|both] [--json out.json]\n"
      "  metrics --watch N --port N [--host H --rounds N]\n"
      "  torture [--cycles N --shape AxB --box AxB --seed N]\n"
      "          [--ops N --queries N --dir scratch/]\n"
      "          [--group-commit 0|1]\n"
      "  trace-record --shape AxB [--queries N --updates N --seed N]\n"
      "          --out t.trace\n"
      "  trace-replay --cube cube.bin --trace t.trace [--method M]\n");
}

}  // namespace

Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("missing command");
  }
  ParsedArgs parsed;
  parsed.command = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("option " + arg + " needs a value");
      }
      parsed.options[arg.substr(2)] = args[i + 1];
      ++i;
    } else {
      parsed.positional.push_back(arg);
    }
  }
  return parsed;
}

Result<Shape> ParseShape(const std::string& text) {
  RPS_ASSIGN_OR_RETURN(const std::vector<int64_t> extents,
                       SplitInts(text, 'x'));
  if (extents.empty() || static_cast<int>(extents.size()) > kMaxDims) {
    return Status::InvalidArgument("bad shape '" + text + "'");
  }
  for (int64_t e : extents) {
    if (e < 1) return Status::InvalidArgument("bad extent in '" + text + "'");
  }
  return Shape::FromExtents(extents);
}

Result<CellIndex> ParseCell(const std::string& text) {
  RPS_ASSIGN_OR_RETURN(const std::vector<int64_t> coords,
                       SplitInts(text, ','));
  if (coords.empty() || static_cast<int>(coords.size()) > kMaxDims) {
    return Status::InvalidArgument("bad cell '" + text + "'");
  }
  CellIndex cell = CellIndex::Filled(static_cast<int>(coords.size()), 0);
  for (size_t j = 0; j < coords.size(); ++j) {
    cell[static_cast<int>(j)] = coords[j];
  }
  return cell;
}

Result<Box> ParseRange(const std::string& text) {
  const size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("range needs 'lo:hi': '" + text + "'");
  }
  RPS_ASSIGN_OR_RETURN(const CellIndex lo, ParseCell(text.substr(0, colon)));
  RPS_ASSIGN_OR_RETURN(const CellIndex hi, ParseCell(text.substr(colon + 1)));
  if (lo.dims() != hi.dims()) {
    return Status::InvalidArgument("range corner dimensionality mismatch");
  }
  for (int j = 0; j < lo.dims(); ++j) {
    if (lo[j] > hi[j]) {
      return Status::InvalidArgument("inverted range in '" + text + "'");
    }
  }
  return Box(lo, hi);
}

int RunCli(const std::vector<std::string>& args) {
  const auto parsed = ParseArgs(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  Status status;
  const std::string& command = parsed.value().command;
  if (command == "gen") {
    status = CmdGen(parsed.value());
  } else if (command == "build") {
    status = CmdBuild(parsed.value());
  } else if (command == "info") {
    status = CmdInfo(parsed.value());
  } else if (command == "query") {
    status = CmdQuery(parsed.value());
  } else if (command == "update") {
    status = CmdUpdate(parsed.value());
  } else if (command == "verify") {
    status = CmdVerify(parsed.value());
  } else if (command == "audit") {
    status = CmdAudit(parsed.value());
  } else if (command == "bench") {
    status = CmdBench(parsed.value());
  } else if (command == "serve") {
    status = CmdServe(parsed.value());
  } else if (command == "metrics") {
    status = CmdMetrics(parsed.value());
  } else if (command == "torture") {
    status = CmdTorture(parsed.value());
  } else if (command == "trace-record") {
    status = CmdTraceRecord(parsed.value());
  } else if (command == "trace-replay") {
    status = CmdTraceReplay(parsed.value());
  } else {
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    PrintUsage();
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace rps::cli
