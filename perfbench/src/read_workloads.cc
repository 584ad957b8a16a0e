// dashboard: one read-only analyst on a cube that fits in L2.
// feed: one closed-loop batch writer beside one reader, on a cube 8x
// larger than L2.

#include <memory>
#include <thread>

#include "layers.h"
#include "obs/gate.h"
#include "olap/engine.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rps::OlapServingEngine;

/// Trace sampling: one in this many ad-hoc Sums / panels carries
/// spans, which keeps the span logs to a few MB.
constexpr int64_t kTraceSumEvery = 256;
constexpr int64_t kTracePanelEvery = 4;
constexpr size_t kSpanReserve = 1 << 18;

struct Tally {
  explicit Tally(const Window& window) : queries(window), ops(window) {}
  OpRecorder queries;
  OpRecorder ops;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Writer batches that failed, by index (excluded from the model).
  std::vector<int64_t> failed_batches;
  int64_t batches = 0;
  double rss_mb = 0;
};

/// Engines the benchmark builds, with the run's own pool.
std::unique_ptr<OlapServingEngine> MakeEngine(int64_t rows, int64_t cols,
                                              int shards,
                                              rps::ThreadPool* pool) {
  return rps::MakeServingEngine(MakeSchema(rows, cols),
                                rps::EngineMethod::kRelativePrefixSum, shards,
                                pool);
}

/// One round of `reps` timed set-ups: engine construction plus the
/// Load of `preload` seeded records (generated untimed, freed after).
/// Leaves the last engine in *engine.
std::vector<double> SetupRound(int reps, int64_t side, int shards,
                               int64_t preload, uint64_t preload_seed,
                               rps::ThreadPool* pool,
                               std::unique_ptr<OlapServingEngine>* engine,
                               RunOutput* out) {
  rps::Rng rng(preload_seed);
  const std::vector<rps::OlapRecord> records =
      MakeRecords(rng, preload, 0, side - 1, side);
  return TimeRepeats(
      reps, [&](int) { engine->reset(); },
      [&](int) {
        *engine = MakeEngine(side, side, shards, pool);
        const rps::IngestReport report = (*engine)->Load(records);
        out->Check(report.rejected == 0 && report.accepted == preload,
                   "preload");
      });
}

/// Median of kRepeats rebuilds of a fresh engine from the final cells
/// through LoadCells, the serving engines' recovery entry point.
double TimedRecover(const FlatModel& model, int shards,
                    rps::ThreadPool* pool, RunOutput* out) {
  const rps::NdArray<double> sums = model.SumCells();
  const rps::NdArray<int64_t> counts = model.CountCells();
  std::unique_ptr<OlapServingEngine> engine;
  return Median(TimeRepeats(
      kRepeats, [&](int) { engine.reset(); },
      [&](int) {
        engine = MakeEngine(model.rows(), model.cols(), shards, pool);
        out->Check(engine->LoadCells(sums, counts).ok(), "LoadCells");
      }));
}

void AddPreload(FlatModel* model, uint64_t seed, int64_t n) {
  rps::Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    const CellRecord r = NextRecord(rng, 0, model->rows() - 1, model->cols());
    model->Add(r.row, r.col, r.measure);
  }
}

std::vector<rps::OlapRecord> ToRecords(const std::vector<CellRecord>& cells) {
  std::vector<rps::OlapRecord> records;
  records.reserve(cells.size());
  for (const CellRecord& c : cells) {
    records.push_back(RecordOf(c.row, c.col, c.measure));
  }
  return records;
}

std::vector<const SpanLog*> Pointers(const std::vector<SpanLog>& logs) {
  std::vector<const SpanLog*> out;
  for (const SpanLog& log : logs) out.push_back(&log);
  return out;
}

// ---------------------------------------------------------------- dashboard

constexpr int64_t kDashSide = 256;
constexpr int64_t kDashPreload = 262144;
/// Set-up repetitions per round: about one second of set-ups.
constexpr int kDashSetupRepeats = 40;
constexpr int64_t kPanelEvery = 32;

/// One panel refresh: the 64 tiles of an 8x8 grid over a 128x128 area,
/// a 7-wide rolling sum over 64 d0 positions, Average and Count.
struct Panel {
  Box2 area;
  std::vector<rps::Box> tiles;
  std::vector<rps::RangeQuery> tile_queries;
  Box2 rolling;
  rps::RangeQuery rolling_query;
  rps::RangeQuery area_query;
};
constexpr int64_t kRollingWindow = 7;

Panel MakePanel(rps::Rng& rng) {
  Panel panel;
  const int64_t r0 = rng.UniformInt(0, kDashSide - 128);
  const int64_t c0 = rng.UniformInt(0, kDashSide - 128);
  panel.area = Box2{r0, r0 + 127, c0, c0 + 127};
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      const Box2 tile{r0 + 16 * i, r0 + 16 * i + 15, c0 + 16 * j,
                      c0 + 16 * j + 15};
      panel.tiles.push_back(rps::Box(rps::CellIndex{tile.r0, tile.c0},
                                     rps::CellIndex{tile.r1, tile.c1}));
      panel.tile_queries.push_back(QueryOf(tile));
    }
  }
  panel.rolling = Box2{r0, r0 + 63, c0, c0 + 127};
  panel.rolling_query = QueryOf(panel.rolling);
  panel.area_query = QueryOf(panel.area);
  return panel;
}

/// The panel's four engine calls; false if any returns an error.
bool RunPanel(const OlapServingEngine& engine, const Panel& panel) {
  const auto batch = engine.QueryBatch(panel.tile_queries);
  const auto rolling =
      engine.RollingSum(panel.rolling_query, "d0", kRollingWindow);
  const auto average = engine.Average(panel.area_query);
  const auto count = engine.Count(panel.area_query);
  return batch.ok() && rolling.ok() && average.ok() && count.ok();
}

void CheckPanel(const OlapServingEngine& engine, const FlatModel& model,
                const Panel& panel, RunOutput* out) {
  const auto batch = engine.QueryBatch(panel.tile_queries);
  bool ok = batch.ok() && batch.value().size() == 64;
  for (size_t k = 0; ok && k < 64; ++k) {
    const rps::Box& t = panel.tiles[k];
    ok = SameSum(batch.value()[k],
                 model.Sum(Box2{t.lo()[0], t.hi()[0], t.lo()[1], t.hi()[1]}));
  }
  out->Check(ok, "panel QueryBatch");
  const auto rolling =
      engine.RollingSum(panel.rolling_query, "d0", kRollingWindow);
  ok = rolling.ok() && rolling.value().size() == 64;
  for (int64_t k = 0; ok && k < 64; ++k) {
    const int64_t p = panel.rolling.r0 + k;
    const Box2 window{std::max(panel.rolling.r0, p - kRollingWindow + 1), p,
                      panel.rolling.c0, panel.rolling.c1};
    ok = SameSum(rolling.value()[static_cast<size_t>(k)], model.Sum(window));
  }
  out->Check(ok, "panel RollingSum");
  const auto count = engine.Count(panel.area_query);
  const auto average = engine.Average(panel.area_query);
  const int64_t want_count = model.Count(panel.area);
  out->Check(count.ok() && count.value() == want_count, "panel Count");
  out->Check(average.ok() &&
                 SameSum(average.value(), model.Sum(panel.area) /
                                              static_cast<double>(want_count)),
             "panel Average");
}

void DashboardAnalyst(const OlapServingEngine& engine,
                      const ShardShadow* shadow, const Window& window,
                      uint64_t seed, SpanLog* log, Tally* tally) {
  rps::Rng rng(seed);
  CpuRotor rotor(window, 0);
  for (int64_t i = 0;; ++i) {
    const int64_t request = i;
    int64_t end = 0;
    bool ok = false;
    if (i % kPanelEvery == kPanelEvery - 1) {
      const Panel panel = MakePanel(rng);
      const bool traced = log != nullptr && (i / kPanelEvery) % kTracePanelEvery == 0;
      SpanLog* span_log = traced ? log : nullptr;
      ScopedSpan root(span_log, SpanName::kReqPanel, -1, request);
      int64_t start = 0;
      {
        ScopedSpan call(span_log, SpanName::kOlapPanel, root.index(), request);
        start = NowNs();
        ok = RunPanel(engine, panel);
        end = NowNs();
      }
      tally->ops.Record(start, end, 1);
      if (traced) shadow->ShadowPanel(log, root.index(), request, panel.tiles);
    } else {
      ok = TimedSum(engine, shadow, rng, kDashSide, kDashSide,
                    log != nullptr && i % kTraceSumEvery == 0 ? log : nullptr,
                    request, &tally->queries, &end);
    }
    ++tally->attempted;
    if (!ok) ++tally->failed;
    if (end >= window.end_ns) break;
    rotor.Step(end);
  }
}

/// One closed-loop phase of the analyst, on the calling thread.
///
/// One analyst, not two. Two contend for the engine's shared counters,
/// and what a contended cache line costs depends on where the host
/// places the two vCPUs: over ten seeds query_p50_us read either about
/// 1.6 or about 2.1 us, a spread (IQR/median) of 0.35. The traced
/// run's obs.query_overhead_ns probe still runs two threads.
Tally DashboardPhase(const OlapServingEngine& engine,
                     const ShardShadow* shadow, double seconds,
                     uint64_t seed, int phase, SpanLog* log) {
  const Window window = Window::Start(seconds, kWarmupSeconds);
  RssSampler rss(window);
  Tally tally(window);
  DashboardAnalyst(engine, shadow, window, SeedFor(seed, phase, 0), log,
                   &tally);
  tally.rss_mb = rss.StopMb();
  return tally;
}

// --------------------------------------------------------------------- feed

constexpr int64_t kFeedSide = 1024;
constexpr int kFeedShards = 4;
constexpr int64_t kFeedPreload = 262144;
constexpr int kFeedSetupRepeats = 9;  // ~0.2 s each
constexpr int64_t kFeedBatch = 256;
constexpr int64_t kFeedHotRows = 8;

std::vector<CellRecord> FeedBatch(rps::Rng& rng) {
  std::vector<CellRecord> batch;
  for (int64_t i = 0; i < kFeedBatch; ++i) {
    batch.push_back(
        NextRecord(rng, kFeedSide - kFeedHotRows, kFeedSide - 1, kFeedSide));
  }
  return batch;
}

void FeedWriter(OlapServingEngine& engine, const ShardShadow* shadow,
                const Window& window, uint64_t seed, SpanLog* log,
                Tally* tally) {
  rps::Rng rng(seed);
  CpuRotor rotor(window, 0);
  for (int64_t i = 0;; ++i) {
    const std::vector<CellRecord> cells = FeedBatch(rng);
    const std::vector<rps::OlapRecord> records = ToRecords(cells);
    const int64_t request = int64_t{1} << 40 | i;
    ScopedSpan root(log, SpanName::kReqInsert, -1, request);
    int64_t start = 0;
    int64_t end = 0;
    rps::Status status;
    {
      ScopedSpan call(log, SpanName::kOlapInsertBatch, root.index(), request);
      start = NowNs();
      status = engine.InsertBatch(records);
      end = NowNs();
    }
    tally->ops.Record(start, end, kFeedBatch);
    if (log != nullptr) shadow->ShadowWrite(log, root.index(), request, cells);
    ++tally->attempted;
    ++tally->batches;
    if (!status.ok()) {
      ++tally->failed;
      tally->failed_batches.push_back(i);
    }
    if (end >= window.end_ns) break;
    rotor.Step(end);
  }
}

void FeedReader(const OlapServingEngine& engine, const ShardShadow* shadow,
                const Window& window, uint64_t seed, SpanLog* log,
                Tally* tally) {
  rps::Rng rng(seed);
  CpuRotor rotor(window, 1);
  for (int64_t i = 0;; ++i) {
    int64_t end = 0;
    const bool ok = TimedSum(
        engine, shadow, rng, kFeedSide, kFeedSide,
        log != nullptr && i % kTraceSumEvery == 0 ? log : nullptr, i,
        &tally->queries, &end);
    ++tally->attempted;
    if (!ok) ++tally->failed;
    if (end >= window.end_ns) break;
    rotor.Step(end);
  }
}

struct FeedPhaseResult {
  explicit FeedPhaseResult(const Window& window)
      : writer(window), reader(window) {}
  Tally writer;
  Tally reader;
  double rss_mb = 0;
  /// Cells the engine cloned during the phase (the program's counter).
  int64_t cloned_cells = 0;

  int64_t AckedRecords() const {
    return (writer.batches -
            static_cast<int64_t>(writer.failed_batches.size())) *
           kFeedBatch;
  }
};

FeedPhaseResult FeedPhase(OlapServingEngine& engine, const ShardShadow* shadow,
                          double seconds, uint64_t seed, int phase,
                          std::vector<SpanLog>* logs) {
  const Window window = Window::Start(seconds, kWarmupSeconds);
  FeedPhaseResult result(window);
  RssSampler rss(window);
  const int64_t cloned_before = ClonedCells(kFeedShards);
  std::thread writer([&] {
    FeedWriter(engine, shadow, window, SeedFor(seed, phase, 0),
               logs ? &(*logs)[0] : nullptr, &result.writer);
  });
  FeedReader(engine, shadow, window, SeedFor(seed, phase, 1),
             logs ? &(*logs)[1] : nullptr, &result.reader);
  writer.join();
  result.cloned_cells = ClonedCells(kFeedShards) - cloned_before;
  result.rss_mb = rss.StopMb();
  return result;
}

/// Adds every acknowledged writer batch of `phase` to the model.
void AddFeedBatches(FlatModel* model, uint64_t seed, int phase,
                    const Tally& writer) {
  rps::Rng rng(SeedFor(seed, phase, 0));
  size_t next_failed = 0;
  for (int64_t b = 0; b < writer.batches; ++b) {
    const std::vector<CellRecord> cells = FeedBatch(rng);
    if (next_failed < writer.failed_batches.size() &&
        writer.failed_batches[next_failed] == b) {
      ++next_failed;
      continue;
    }
    for (const CellRecord& c : cells) model->Add(c.row, c.col, c.measure);
  }
}

/// Median InsertBatch latency with obs on minus off, alternating.
double ObsInsertOverheadUs(OlapServingEngine& engine, uint64_t seed) {
  rps::Rng rng(seed);
  std::vector<double> on;
  std::vector<double> off;
  const bool was_enabled = rps::obs::Enabled();
  for (int i = 0; i < 64; ++i) {
    const bool enabled = i % 2 == 0;
    rps::obs::SetEnabled(enabled);
    const std::vector<rps::OlapRecord> records = ToRecords(FeedBatch(rng));
    const int64_t t0 = NowNs();
    const rps::Status status = engine.InsertBatch(records);
    const double us = static_cast<double>(NowNs() - t0) * 1e-3;
    RPS_CHECK(status.ok());
    (enabled ? on : off).push_back(us);
  }
  rps::obs::SetEnabled(was_enabled);
  return Median(on) - Median(off);
}

}  // namespace

uint64_t SeedFor(uint64_t seed, int phase, int role) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(phase) *
                                                   0xbf58476d1ce4e5b9ull +
               static_cast<uint64_t>(role + 1) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

bool TimedSum(const OlapServingEngine& engine, const ShardShadow* shadow,
              rps::Rng& rng, int64_t rows, int64_t cols, SpanLog* log,
              int64_t request, OpRecorder* rec, int64_t* end_ns) {
  const Box2 box = UniformBox(rng, rows, cols);
  const rps::RangeQuery query = QueryOf(box);
  ScopedSpan root(log, SpanName::kReqSum, -1, request);
  int64_t start = 0;
  bool ok = false;
  {
    ScopedSpan call(log, SpanName::kOlapSum, root.index(), request);
    start = NowNs();
    ok = engine.Sum(query).ok();
    *end_ns = NowNs();
  }
  rec->Record(start, *end_ns, 1);
  if (log != nullptr) {
    shadow->ShadowRead(log, root.index(), request, query, engine.schema(),
                       box);
  }
  return ok;
}

void RunDashboard(const Options& options, RunOutput* out) {
  const std::string name = "dashboard";
  // No pool workers: a panel's QueryBatch runs on its analyst. With two
  // workers (4 threads on 4 vCPUs) a preempted worker stalled the
  // analyst waiting for its chunk, and query_qps ranged 67k-243k over
  // ten seeds.
  rps::ThreadPool pool(0);
  const uint64_t preload_seed = SeedFor(options.seed, 0, 100);
  std::unique_ptr<OlapServingEngine> engine;
  const std::vector<double> setup_first =
      SetupRound(kDashSetupRepeats, kDashSide, 1, kDashPreload, preload_seed,
                 &pool, &engine, out);
  ReturnFreedMemory();

  const Tally phase = DashboardPhase(*engine, nullptr, options.seconds,
                                     options.seed, 0, nullptr);
  out->attempted += phase.attempted;
  out->failed += phase.failed;
  std::unique_ptr<OlapServingEngine> spare;
  const double setup_s = SetupSeconds(
      setup_first, SetupRound(kDashSetupRepeats, kDashSide, 1, kDashPreload,
                              preload_seed, &pool, &spare, out));
  spare.reset();

  FlatModel model(kDashSide, kDashSide);
  AddPreload(&model, preload_seed, kDashPreload);
  CheckAgainstModel(*engine, model, SeedFor(options.seed, 9, 0), 256, out);
  rps::Rng panel_rng(SeedFor(options.seed, 9, 1));
  for (int i = 0; i < 16; ++i) CheckPanel(*engine, model, MakePanel(panel_rng), out);
  const double recover_s = TimedRecover(model, 1, &pool, out);
  AddEndToEnd(name, out, setup_s, phase.queries, phase.queries.SliceRate(),
              phase.ops, recover_s, phase.rss_mb);
  Report(name, "panel_p50_us", PercentileUs(phase.ops, 0.5, "panel"), "us",
         "op_p50_us");
  if (!options.trace) return;

  // Traced run: the same seed and length again, with spans.
  const ShardShadow shadow(kDashSide, kDashSide, 1, preload_seed,
                           kDashPreload, &pool);
  std::vector<SpanLog> logs;
  logs.emplace_back(kSpanReserve);
  const Tally traced = DashboardPhase(*engine, &shadow, options.seconds,
                                      options.seed, 0, &logs[0]);
  out->attempted += traced.attempted;
  out->failed += traced.failed;

  // Probes for the layers read-only traffic does not reach. The write
  // batches also go to the engine itself (every check is done), so the
  // program's clone counter sees them.
  logs.emplace_back(kSpanReserve);
  logs.emplace_back(kSpanReserve);
  logs.emplace_back(kSpanReserve);
  SpanLog* probe = &logs[1];
  LayerFigures figures;
  rps::Rng write_rng(SeedFor(options.seed, 8, 0));
  const int64_t cloned_before = ClonedCells(1);
  for (int64_t i = 0; i < 16; ++i) {
    std::vector<CellRecord> batch;
    for (int k = 0; k < 256; ++k) {
      batch.push_back(NextRecord(write_rng, 0, kDashSide - 1, kDashSide));
    }
    out->Check(engine->InsertBatch(ToRecords(batch)).ok(),
               "probe InsertBatch");
    ScopedSpan root(probe, SpanName::kReqProbe, -1, i);
    shadow.ShadowWrite(probe, root.index(), i, batch);
  }
  figures.cloned_bytes_per_record =
      ClonedBytesPerRecord(ClonedCells(1) - cloned_before, 16 * 256);
  figures.records_per_group =
      RunAppendProbe(options.work_dir, SeedFor(options.seed, 8, 1),
                     &logs[2]);
  figures.replay_records_per_s =
      RunBarrierProbe(options.work_dir, figures.records_per_group, probe);
  figures.obs_query_overhead_ns =
      ObsQueryOverheadNs(*engine, kDashSide, kDashSide, options.seed);

  const int64_t clock_ns = ClockOverheadNs();
  const std::vector<const SpanLog*> pointers = Pointers(logs);
  WriteSpans(options.trace_dir + "/spans-dashboard.jsonl", pointers, clock_ns);
  const LayerSamples samples = CollectLayers(pointers, clock_ns);
  AddCommonLayerMetrics(name, samples, shadow, figures, options.seed, out);
  AddTraceOverhead(name, out, phase.queries, phase.ops, traced.queries,
                   traced.ops);
  // Where an engine Sum spends its time.
  const double sum_ns = samples.CenterOf("olap.sum_ns");
  Report(name, "breakdown.sum_ns", sum_ns, "ns", "traced engine Sum");
  for (const char* part : {"olap.resolve_ns", "util.epoch_pin_ns",
                           "core.range_sum_ns", "olap.sum_self_ns"}) {
    const double v = samples.CenterOf(part);
    Report(name, std::string("breakdown.") + part, v, "ns",
           std::to_string(sum_ns > 0 ? 100 * v / sum_ns : 0) + "% of Sum");
  }
}

void RunFeed(const Options& options, RunOutput* out) {
  const std::string name = "feed";
  // Writer + reader, no pool workers: builds (set-up, recovery) run on
  // the calling thread, where a pool handoff to a preempted worker
  // moved recover_s by 30% between seeds.
  rps::ThreadPool pool(0);
  const uint64_t preload_seed = SeedFor(options.seed, 0, 100);
  std::unique_ptr<OlapServingEngine> engine;
  const std::vector<double> setup_first =
      SetupRound(kFeedSetupRepeats, kFeedSide, kFeedShards, kFeedPreload,
                 preload_seed, &pool, &engine, out);
  ReturnFreedMemory();

  const FeedPhaseResult phase =
      FeedPhase(*engine, nullptr, options.seconds, options.seed, 0, nullptr);
  out->attempted += phase.writer.attempted + phase.reader.attempted;
  out->failed += phase.writer.failed + phase.reader.failed;
  std::unique_ptr<OlapServingEngine> spare;
  const double setup_s = SetupSeconds(
      setup_first, SetupRound(kFeedSetupRepeats, kFeedSide, kFeedShards,
                              kFeedPreload, preload_seed, &pool, &spare, out));
  spare.reset();

  std::unique_ptr<ShardShadow> shadow;
  std::vector<SpanLog> logs;
  std::unique_ptr<FeedPhaseResult> traced;
  if (options.trace) {
    shadow = std::make_unique<ShardShadow>(kFeedSide, kFeedSide, kFeedShards,
                                           preload_seed, kFeedPreload, &pool);
    logs.emplace_back(kSpanReserve);
    logs.emplace_back(kSpanReserve);
    traced = std::make_unique<FeedPhaseResult>(FeedPhase(
        *engine, shadow.get(), options.seconds, options.seed, 0, &logs));
    out->attempted += traced->writer.attempted + traced->reader.attempted;
    out->failed += traced->writer.failed + traced->reader.failed;
  }

  FlatModel model(kFeedSide, kFeedSide);
  AddPreload(&model, preload_seed, kFeedPreload);
  AddFeedBatches(&model, options.seed, 0, phase.writer);
  if (traced) AddFeedBatches(&model, options.seed, 0, traced->writer);
  CheckAgainstModel(*engine, model, SeedFor(options.seed, 9, 0), 128, out);
  const double recover_s = TimedRecover(model, kFeedShards, &pool, out);
  AddEndToEnd(name, out, setup_s, phase.reader.queries,
              phase.reader.queries.SliceRate(), phase.writer.ops, recover_s,
              phase.rss_mb);
  Report(name, "ingest_rec_per_s", phase.writer.ops.SliceRate(), "rec/s",
         "op_per_s");
  Report(name, "insert_p50_us", PercentileUs(phase.writer.ops, 0.5, "insert"),
         "us", "op_p50_us");
  Report(name, "insert_p99_us", PercentileUs(phase.writer.ops, 0.99, "insert"),
         "us", "op_p99_us, report only");
  if (!options.trace) return;

  logs.emplace_back(kSpanReserve);
  logs.emplace_back(kSpanReserve);
  logs.emplace_back(kSpanReserve);
  SpanLog* probe = &logs[2];
  rps::Rng panel_rng(SeedFor(options.seed, 8, 2));
  for (int64_t i = 0; i < 64; ++i) {
    ScopedSpan root(probe, SpanName::kReqProbe, -1, i);
    shadow->ShadowPanel(probe, root.index(), i, shadow->PanelTiles(panel_rng));
  }
  LayerFigures figures;
  figures.cloned_bytes_per_record =
      ClonedBytesPerRecord(traced->cloned_cells, traced->AckedRecords());
  figures.records_per_group =
      RunAppendProbe(options.work_dir, SeedFor(options.seed, 8, 1), &logs[3]);
  figures.replay_records_per_s =
      RunBarrierProbe(options.work_dir, figures.records_per_group, probe);
  figures.obs_query_overhead_ns =
      ObsQueryOverheadNs(*engine, kFeedSide, kFeedSide, options.seed);

  const int64_t clock_ns = ClockOverheadNs();
  const std::vector<const SpanLog*> pointers = Pointers(logs);
  WriteSpans(options.trace_dir + "/spans-feed.jsonl", pointers, clock_ns);
  const LayerSamples samples = CollectLayers(pointers, clock_ns);
  AddCommonLayerMetrics(name, samples, *shadow, figures, options.seed, out);
  AddTraceOverhead(name, out, phase.reader.queries, phase.writer.ops,
                   traced->reader.queries, traced->writer.ops);
  Report(name, "olap.insert_self_us", samples.CenterOf("olap.insert_self_us"),
         "us", "InsertBatch minus clone and adds");
  Report(name, "obs.insert_overhead_us",
         ObsInsertOverheadUs(*engine, SeedFor(options.seed, 8, 3)), "us",
         "InsertBatch, gate on minus off");
  // Where an InsertBatch spends its time.
  const double insert_us = samples.CenterOf("olap.insert_us");
  Report(name, "breakdown.insert_us", insert_us, "us",
         "traced InsertBatch");
  const double add_us =
      samples.CenterOf("core.add_ns_per_record") * kFeedBatch * 1e-3;
  for (const auto& [part, v] :
       std::vector<std::pair<std::string, double>>{
           {"core.clone_us", samples.CenterOf("core.clone_us")},
           {"core.adds_us", add_us},
           {"olap.insert_self_us", samples.CenterOf("olap.insert_self_us")}}) {
    Report(name, "breakdown." + part, v, "us",
           std::to_string(insert_us > 0 ? 100 * v / insert_us : 0) +
               "% of InsertBatch");
  }
}

}  // namespace perfbench
