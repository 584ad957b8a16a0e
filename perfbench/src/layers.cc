#include "layers.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/cost_model.h"
#include "cube/kernels/kernels.h"
#include "obs/gate.h"
#include "obs/metrics.h"
#include "storage/wal.h"
#include "util/epoch.h"

namespace perfbench {
namespace {

/// The durable engine's log payload: measure delta and count delta.
struct Payload {
  double sum = 0;
  int64_t count = 0;
};

/// Keeps a computed value alive so a shadow call is not optimised out.
volatile double g_sink = 0;

int64_t DurationNs(const Span& span, int64_t clock_ns) {
  return std::max<int64_t>(0, span.end_ns - span.start_ns - clock_ns);
}

rps::Box CellBox(int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
  return rps::Box(rps::CellIndex{r0, c0}, rps::CellIndex{r1, c1});
}

}  // namespace

ShardShadow::ShardShadow(int64_t rows, int64_t cols, int shards,
                         uint64_t preload_seed, int64_t preload_records,
                         rps::ThreadPool* pool)
    : rows_(rows), cols_(cols), shard_rows_(rows / shards) {
  const rps::Shape shape{shard_rows_, cols_};
  rps::NdArray<double> sums(shape, 0.0);
  rps::NdArray<int64_t> counts(shape, int64_t{0});
  rps::Rng rng(preload_seed);
  for (int64_t i = 0; i < preload_records; ++i) {
    const CellRecord r = NextRecord(rng, 0, rows_ - 1, cols_);
    if (r.row >= shard_rows_) continue;
    sums.at(rps::CellIndex{r.row, r.col}) += r.measure;
    counts.at(rps::CellIndex{r.row, r.col}) += 1;
  }
  sums_ = std::make_unique<rps::RelativePrefixSum<double>>(sums, pool);
  counts_ = std::make_unique<rps::RelativePrefixSum<int64_t>>(counts, pool);
}

void ShardShadow::ShadowRead(SpanLog* log, int32_t root, int64_t request,
                             const rps::RangeQuery& query,
                             const rps::Schema& schema,
                             const Box2& box) const {
  // The engine's structures are hot: every request reads them. The
  // standalone copies see only sampled requests, so each shadow input
  // is run once untimed first to bring the copy to the same state.
  const int64_t first = box.r0 / shard_rows_;
  const int64_t last = box.r1 / shard_rows_;
  const auto core_sum = [&] {
    double total = 0;
    for (int64_t s = first; s <= last; ++s) {
      const int64_t base = s * shard_rows_;
      total += sums_->RangeSum(
          CellBox(std::max(box.r0, base) - base,
                  std::min(box.r1, base + shard_rows_ - 1) - base, box.c0,
                  box.c1));
    }
    return total;
  };
  g_sink = query.Resolve(schema).ok() ? core_sum() : 0;
  {
    ScopedSpan span(log, SpanName::kOlapResolve, root, request);
    g_sink = query.Resolve(schema).ok() ? 1 : 0;
  }
  {
    // One pin is a few nanoseconds, below the clock's own cost, so the
    // span covers 16 pins and reports the mean.
    constexpr int kPins = 16;
    ScopedSpan span(log, SpanName::kEpochGuard, root, request);
    for (int i = 0; i < kPins; ++i) {
      rps::EpochDomain::Guard guard(rps::EpochDomain::Global());
    }
    span.set_work(kPins);
  }
  ScopedSpan span(log, SpanName::kCoreRangeSum, root, request);
  g_sink = core_sum();
  span.set_work(last - first + 1);
}

void ShardShadow::ShadowWrite(SpanLog* log, int32_t root, int64_t request,
                              const std::vector<CellRecord>& records) const {
  const auto n = static_cast<int64_t>(records.size());
  std::unique_ptr<rps::QueryMethod<double>> sums;
  std::unique_ptr<rps::QueryMethod<int64_t>> counts;
  {
    ScopedSpan span(log, SpanName::kCoreClone, root, request);
    sums = sums_->Clone();
    counts = counts_->Clone();
  }
  {
    ScopedSpan span(log, SpanName::kCoreAdd, root, request);
    int64_t cells = 0;
    for (const CellRecord& r : records) {
      const rps::CellIndex cell{r.row % shard_rows_, r.col};
      cells += sums->Add(cell, r.measure).total();
      cells += counts->Add(cell, 1).total();
    }
    span.set_work(n);
    span.set_cells(cells);
  }
  std::vector<double> row(static_cast<size_t>(cols_), 0.0);
  {
    constexpr int kRows = 16;
    ScopedSpan span(log, SpanName::kCubeAddToRow, root, request);
    const auto& kernels = rps::kernels::Active<double>();
    for (int i = 0; i < kRows; ++i) kernels.add_to_row(row.data(), cols_, 1.0);
    span.set_work(kRows * cols_);
  }
  g_sink = row[0];
}

std::vector<rps::Box> ShardShadow::PanelTiles(rps::Rng& rng) const {
  const int64_t height = shard_rows_ / 2;
  const int64_t width = cols_ / 2;
  const int64_t r0 = rng.UniformInt(0, shard_rows_ - height);
  const int64_t c0 = rng.UniformInt(0, cols_ - width);
  const int64_t tile_h = std::max<int64_t>(1, height / 8);
  const int64_t tile_w = std::max<int64_t>(1, width / 8);
  std::vector<rps::Box> tiles;
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      const int64_t lo_r = std::min(r0 + i * tile_h, shard_rows_ - 1);
      const int64_t lo_c = std::min(c0 + j * tile_w, cols_ - 1);
      tiles.push_back(
          CellBox(lo_r, std::min(lo_r + tile_h - 1, shard_rows_ - 1), lo_c,
                  std::min(lo_c + tile_w - 1, cols_ - 1)));
    }
  }
  return tiles;
}

void ShardShadow::ShadowPanel(SpanLog* log, int32_t root, int64_t request,
                              const std::vector<rps::Box>& tiles) const {
  std::vector<double> results(tiles.size());
  ScopedSpan span(log, SpanName::kCoreRangeSumBatch, root, request);
  sums_->RangeSumBatch(tiles, results);
  g_sink = results[0];
  span.set_work(static_cast<int64_t>(tiles.size()));
}

double ShardShadow::CellsReadPerQuery(uint64_t seed, int queries) const {
  sums_->ResetLookupStats();
  rps::Rng rng(seed);
  double total = 0;
  for (int i = 0; i < queries; ++i) {
    const Box2 box = UniformBox(rng, shard_rows_, cols_);
    total += sums_->RangeSum(CellBox(box.r0, box.r1, box.c0, box.c1));
  }
  g_sink = total;
  return static_cast<double>(sums_->lookup_stats().total()) / queries;
}

int64_t ShardShadow::WorstCaseUpdateCells() const {
  return rps::RpsWorstCaseUpdateCells(sums_->geometry()).total();
}

ShadowLog::ShadowLog(const std::string& path) {
  rps::Result<rps::WriteAheadLog> wal = rps::WriteAheadLog::OpenForAppend(
      path, 2, static_cast<int64_t>(sizeof(Payload)));
  RPS_CHECK_MSG(wal.ok() && wal.value().Reset().ok(),
                "cannot open a shadow log");
  wal_ = std::make_unique<rps::GroupCommitWal>(std::move(wal).value(),
                                               rps::GroupCommitOptions{});
}

void ShadowLog::Append(SpanLog* log, int32_t root, int64_t request,
                       int64_t row, int64_t col, double measure) {
  const rps::CellIndex cell{row, col};
  const Payload payload{measure, 1};
  ScopedSpan span(log, SpanName::kStorageAppend, root, request);
  RPS_CHECK(wal_->Append(cell, &payload).ok());
}

WalCounters WalCounters::Read() {
  rps::obs::MetricRegistry& registry = rps::obs::MetricRegistry::Global();
  const rps::obs::Histogram& records =
      registry.GetHistogram("rps_wal_group_records");
  const rps::obs::Histogram& bytes =
      registry.GetHistogram("rps_wal_group_bytes");
  WalCounters counters;
  counters.groups = records.Count();
  // Unit-count histograms keep their sum in the "nanos" field.
  counters.records = std::llround(records.SumSeconds() * 1e9);
  counters.bytes = std::llround(bytes.SumSeconds() * 1e9);
  const rps::obs::Histogram& barriers =
      registry.GetHistogram("rps_wal_fsync_seconds");
  counters.barriers = barriers.Count();
  counters.barrier_seconds = barriers.SumSeconds();
  return counters;
}

int64_t ClonedCells(int shards) {
  const rps::obs::Labels labels = {
      {"method", rps::EngineMethodName(rps::EngineMethod::kRelativePrefixSum)},
      {"shards", std::to_string(shards)}};
  return rps::obs::MetricRegistry::Global()
      .GetCounter("rps_shard_cloned_cells_total", labels)
      .Value();
}

double ClonedBytesPerRecord(int64_t cloned_cells, int64_t records) {
  return records > 0 ? static_cast<double>(cloned_cells) * 8 /
                           static_cast<double>(records)
                     : 0;
}

double RunAppendProbe(const std::string& dir, uint64_t seed, SpanLog* logs) {
  constexpr int kPerThread = 2048;
  const WalCounters before = WalCounters::Read();
  {
    ShadowLog wal(dir + "/probe-append.log");
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        rps::Rng rng(seed + static_cast<uint64_t>(t));
        SpanLog* log = &logs[t];
        for (int i = 0; i < kPerThread; ++i) {
          const CellRecord r = NextRecord(rng, 0, 255, 256);
          const int64_t request = int64_t{t} << 32 | i;
          ScopedSpan root(log, SpanName::kReqProbe, -1, request);
          wal.Append(log, root.index(), request, r.row, r.col, r.measure);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const WalCounters after = WalCounters::Read();
  const int64_t groups = after.groups - before.groups;
  return groups > 0 ? static_cast<double>(after.records - before.records) /
                          static_cast<double>(groups)
                    : 0;
}

double RunBarrierProbe(const std::string& dir, double group_size,
                       SpanLog* log) {
  constexpr int kBatches = 256;
  const std::string path = dir + "/probe-barrier.log";
  const int64_t g = std::max<int64_t>(1, std::llround(group_size));
  std::vector<rps::CellIndex> cells;
  std::vector<Payload> payloads;
  for (int64_t i = 0; i < g; ++i) {
    cells.push_back(rps::CellIndex{i % 256, (i * 7) % 256});
    payloads.push_back(Payload{1.0, 1});
  }
  std::vector<rps::WalAppend> appends;
  for (int64_t i = 0; i < g; ++i) {
    appends.push_back(rps::WalAppend{&cells[static_cast<size_t>(i)],
                                     &payloads[static_cast<size_t>(i)]});
  }
  {
    rps::Result<rps::WriteAheadLog> opened = rps::WriteAheadLog::OpenForAppend(
        path, 2, static_cast<int64_t>(sizeof(Payload)));
    RPS_CHECK(opened.ok());
    rps::WriteAheadLog wal = std::move(opened).value();
    RPS_CHECK(wal.Reset().ok());
    for (int i = 0; i < kBatches; ++i) {
      ScopedSpan root(log, SpanName::kReqProbe, -1, i);
      ScopedSpan span(log, SpanName::kStorageAppendBatch, root.index(), i);
      RPS_CHECK(wal.AppendBatch(appends.data(), g, rps::WalBarrier::kFlush).ok());
      span.set_work(g);
    }
    RPS_CHECK(wal.Close().ok());
  }
  int64_t replayed = 0;
  const double seconds = Median(TimeRepeats(5, [](int) {}, [&](int) {
    const rps::Result<rps::WalReplay> replay = rps::WriteAheadLog::Replay(
        path, 2, static_cast<int64_t>(sizeof(Payload)));
    RPS_CHECK(replay.ok());
    replayed = static_cast<int64_t>(replay.value().records.size());
  }));
  return static_cast<double>(replayed) / seconds;
}

double ObsQueryOverheadNs(const rps::OlapServingEngine& engine, int64_t rows,
                          int64_t cols, uint64_t seed) {
  constexpr int kRounds = 8;
  constexpr int kQueries = 4096;
  const bool was_enabled = rps::obs::Enabled();
  LatencyHistogram on;
  LatencyHistogram off;
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < 2; ++k) {
      // Alternate which setting goes first so drift cancels.
      const bool enabled = (round + k) % 2 == 0;
      rps::obs::SetEnabled(enabled);
      LatencyHistogram hist[2];
      std::vector<std::thread> threads;
      for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
          rps::Rng rng(seed + static_cast<uint64_t>(round * 4 + k * 2 + t));
          for (int i = 0; i < kQueries; ++i) {
            const rps::RangeQuery query = QueryOf(UniformBox(rng, rows, cols));
            const int64_t t0 = NowNs();
            const rps::Result<double> sum = engine.Sum(query);
            hist[t].Record(NowNs() - t0);
            g_sink = sum.ok() ? sum.value() : 0;
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (const LatencyHistogram& h : hist) (enabled ? on : off).Merge(h);
    }
  }
  rps::obs::SetEnabled(was_enabled);
  return on.Percentile(0.5) - off.Percentile(0.5);
}

int64_t ClockOverheadNs() {
  std::vector<double> deltas;
  for (int i = 0; i < 1001; ++i) {
    const int64_t a = NowNs();
    const int64_t b = NowNs();
    deltas.push_back(static_cast<double>(b - a));
  }
  return static_cast<int64_t>(Median(deltas));
}

double LayerSamples::CenterOf(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0 : InterquartileMean(it->second);
}

size_t LayerSamples::CountOf(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second.size();
}

LayerSamples CollectLayers(const std::vector<const SpanLog*>& logs,
                           int64_t clock_ns) {
  LayerSamples out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    size_t i = 0;
    while (i < spans.size()) {
      const Span& root = spans[i];
      size_t j = i + 1;
      // Per-root totals for the remainder ("self") metrics.
      double real = -1;
      double shadows = 0;
      double append = -1;
      for (; j < spans.size() && spans[j].parent != -1; ++j) {
        const Span& child = spans[j];
        const double ns = static_cast<double>(DurationNs(child, clock_ns));
        const double work = static_cast<double>(std::max<int64_t>(1, child.work));
        switch (child.name) {
          case SpanName::kOlapSum:
          case SpanName::kOlapPanel:
          case SpanName::kOlapInsertBatch:
          case SpanName::kOlapDurableInsert:
            real = ns;
            break;
          case SpanName::kOlapResolve:
            out.Add("olap.resolve_ns", ns);
            shadows += ns;
            break;
          case SpanName::kEpochGuard:
            out.Add("util.epoch_pin_ns", ns / work);
            shadows += ns / work;
            break;
          case SpanName::kCoreRangeSum:
            out.Add("core.range_sum_ns", ns);
            out.Add("olap.shards_touched_per_query", work);
            shadows += ns;
            break;
          case SpanName::kCoreRangeSumBatch:
            out.Add("core.batch_ns_per_query", ns / work);
            break;
          case SpanName::kCoreClone:
            out.Add("core.clone_us", ns * 1e-3);
            shadows += ns;
            break;
          case SpanName::kCoreAdd:
            out.Add("core.add_ns_per_record", ns / work);
            out.Add("core.cells_touched_per_update",
                    static_cast<double>(child.cells) / (2 * work));
            shadows += ns;
            break;
          case SpanName::kCubeAddToRow:
            out.Add("cube.add_to_row_ns_per_cell", ns / work);
            break;
          case SpanName::kStorageAppend:
            out.Add("storage.append_us", ns * 1e-3);
            append = ns;
            break;
          case SpanName::kStorageAppendBatch:
            out.Add("storage.barrier_us", ns * 1e-3);
            break;
          case SpanName::kStorageCheckpoint:
            out.Add("storage.checkpoint_ms", ns * 1e-6);
            break;
          default:
            break;
        }
      }
      if (real >= 0) {
        switch (root.name) {
          case SpanName::kReqSum:
            out.Add("olap.sum_ns", real);
            out.Add("olap.sum_self_ns", real - shadows);
            break;
          case SpanName::kReqInsert:
            if (append >= 0) {
              out.Add("olap.durable_apply_us", (real - append) * 1e-3);
            } else {
              out.Add("olap.insert_us", real * 1e-3);
              out.Add("olap.insert_self_us", (real - shadows) * 1e-3);
            }
            break;
          default:
            break;
        }
      }
      i = j;
    }
  }
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, int64_t clock_ns) {
  std::ofstream file(path);
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    if (!log->spans().empty()) {
      origin = std::min(origin, log->spans().front().start_ns);
    }
  }
  file << "{\"clock_overhead_ns\":" << clock_ns << "}\n";
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::vector<Interval> children;
      for (size_t j = i + 1; j < spans.size() && spans[j].parent != -1; ++j) {
        if (spans[j].parent == static_cast<int32_t>(i)) {
          children.push_back(Interval{spans[j].start_ns, spans[j].end_ns});
        }
      }
      file << "{\"thread\":" << t << ",\"index\":" << i
           << ",\"parent\":" << span.parent << ",\"request\":" << span.request
           << ",\"name\":\"" << SpanNameString(span.name)
           << "\",\"start_ns\":" << span.start_ns - origin
           << ",\"dur_ns\":" << span.end_ns - span.start_ns << ",\"self_ns\":"
           << SelfTimeNs(Interval{span.start_ns, span.end_ns}, children)
           << ",\"work\":" << span.work << ",\"cells\":" << span.cells
           << "}\n";
    }
  }
}

void AddLayer(const std::string& workload, RunOutput* out,
              const std::string& name, double value, const std::string& unit,
              const std::string& note) {
  out->per_layer.push_back(Metric{name, value, unit});
  Report(workload, name, value, unit, note);
}

void AddCommonLayerMetrics(const std::string& workload,
                           const LayerSamples& samples,
                           const ShardShadow& shadow,
                           const LayerFigures& figures, uint64_t seed,
                           RunOutput* out) {
  const auto center = [&](const char* name) { return samples.CenterOf(name); };
  const auto n = [&](const char* name) {
    return "n=" + std::to_string(samples.CountOf(name));
  };
  AddLayer(workload, out, "olap.resolve_ns", center("olap.resolve_ns"), "ns",
           n("olap.resolve_ns"));
  AddLayer(workload, out, "olap.sum_self_ns", center("olap.sum_self_ns"), "ns",
           n("olap.sum_self_ns"));
  AddLayer(workload, out, "olap.shards_touched_per_query",
           center("olap.shards_touched_per_query"), "count");
  AddLayer(workload, out, "util.epoch_pin_ns", center("util.epoch_pin_ns"),
           "ns");
  AddLayer(workload, out, "core.range_sum_ns", center("core.range_sum_ns"),
           "ns");
  const double cells_read = shadow.CellsReadPerQuery(seed ^ 0xce11, 4096);
  AddLayer(workload, out, "core.cells_read_per_query", cells_read, "count");
  AddLayer(workload, out, "core.cells_read_vs_bound", cells_read / 16.0,
           "ratio", "bound 4^d = 16");
  AddLayer(workload, out, "core.batch_ns_per_query",
           center("core.batch_ns_per_query"), "ns",
           n("core.batch_ns_per_query"));
  AddLayer(workload, out, "core.add_ns_per_record",
           center("core.add_ns_per_record"), "ns", n("core.add_ns_per_record"));
  const double touched = center("core.cells_touched_per_update");
  AddLayer(workload, out, "core.cells_touched_per_update", touched, "count");
  AddLayer(workload, out, "core.update_vs_bound",
           touched / static_cast<double>(shadow.WorstCaseUpdateCells()),
           "ratio",
           "bound " + std::to_string(shadow.WorstCaseUpdateCells()) + " cells");
  AddLayer(workload, out, "core.clone_us", center("core.clone_us"), "us",
           n("core.clone_us"));
  AddLayer(workload, out, "core.cloned_bytes_per_record",
           figures.cloned_bytes_per_record, "B",
           "rps_shard_cloned_cells_total x 8 / records");
  AddLayer(workload, out, "cube.add_to_row_ns_per_cell",
           center("cube.add_to_row_ns_per_cell"), "ns",
           rps::kernels::BackendName(rps::kernels::ActiveBackend()));
  AddLayer(workload, out, "storage.append_us", center("storage.append_us"),
           "us", n("storage.append_us"));
  AddLayer(workload, out, "storage.barrier_us", center("storage.barrier_us"),
           "us", n("storage.barrier_us"));
  AddLayer(workload, out, "storage.records_per_group",
           figures.records_per_group, "count");
  AddLayer(workload, out, "storage.replay_records_per_s",
           figures.replay_records_per_s, "1/s");
  AddLayer(workload, out, "obs.query_overhead_ns",
           figures.obs_query_overhead_ns, "ns",
           "two threads, gate on minus off");
}

}  // namespace perfbench
