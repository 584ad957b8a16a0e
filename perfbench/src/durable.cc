// durable: two closed-loop single-record writers on the durable engine
// in group-commit mode, a checkpoint every 16,384 acknowledged records,
// then a fixed WAL tail, close, and recovery by Open.

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "layers.h"
#include "olap/durable_engine.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kSide = 256;
constexpr int kShards = 16;  // a per-insert shard clone is ~64 KB
constexpr int64_t kPreload = 65536;
/// Set-up repetitions per round: about one second of set-ups.
constexpr int kSetupRepeats = 24;
constexpr int kWriters = 2;
constexpr int64_t kCheckpointEvery = 16384;
constexpr int64_t kTailBatches = 32;
constexpr int64_t kTailBatch = 256;
constexpr int64_t kTraceEvery = 64;
constexpr size_t kSpanReserve = 1 << 18;

rps::DurableOptions GroupCommit() {
  // Defaults otherwise: one flush to the OS per commit group, no fsync
  // (the mode `rps_tool serve --durable group` runs).
  rps::DurableOptions options;
  options.group_commit = true;
  return options;
}

struct Writer {
  explicit Writer(const Window& window) : inserts(window) {}
  OpRecorder inserts;
  int64_t attempted = 0;
  std::vector<int64_t> failed;  // indices of records not acknowledged
  std::vector<Interval> intervals;  // traced phase: every insert
};

struct Analyst {
  explicit Analyst(const Window& window) : queries(window) {}
  OpRecorder queries;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t checkpoints = 0;
  int64_t checkpoint_ns_in_window = 0;
  std::vector<Interval> checkpoint_intervals;
};

struct Phase {
  explicit Phase(const Window& w) : window(w), analyst(w) {
    for (int i = 0; i < kWriters; ++i) writers.emplace_back(w);
  }
  Window window;
  std::vector<Writer> writers;
  Analyst analyst;
  int64_t acked = 0;
  WalCounters wal_before;
  WalCounters wal_after;
  /// Cells the engine cloned during the phase (the program's counter).
  int64_t cloned_cells = 0;
  double rss_mb = 0;

  /// Ad-hoc Sums per second of analyst time outside Checkpoint calls.
  double QueryQps() const {
    const double seconds =
        static_cast<double>(window.end_ns - window.start_ns -
                            analyst.checkpoint_ns_in_window) *
        1e-9;
    return static_cast<double>(analyst.queries.units()) / seconds;
  }
  OpRecorder MergedInserts() const {
    OpRecorder all(window);
    for (const Writer& w : writers) all.Merge(w.inserts);
    return all;
  }
};

rps::OlapRecord ToRecord(const CellRecord& c) {
  return RecordOf(c.row, c.col, c.measure);
}

/// Runs the closed-loop phase. With `logs` (kWriters + 1 of them),
/// every kTraceEvery-th request is traced and carries shadow calls.
std::unique_ptr<Phase> RunPhase(rps::DurableOlapEngine& engine,
                                const ShardShadow* shadow,
                                ShadowLog* shadow_log, double seconds,
                                uint64_t seed, std::vector<SpanLog>* logs) {
  auto phase =
      std::make_unique<Phase>(Window::Start(seconds, kWarmupSeconds));
  const Window& window = phase->window;
  RssSampler rss(window);
  std::atomic<int64_t> acked{0};
  phase->wal_before = WalCounters::Read();
  const int64_t cloned_before = ClonedCells(kShards);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Writer& writer = phase->writers[static_cast<size_t>(w)];
      SpanLog* log = logs ? &(*logs)[static_cast<size_t>(w)] : nullptr;
      rps::Rng rng(SeedFor(seed, 0, w));
      for (int64_t i = 0;; ++i) {
        const CellRecord cell = NextRecord(rng, 0, kSide - 1, kSide);
        const rps::OlapRecord record = ToRecord(cell);
        const int64_t request = int64_t{w} << 40 | i;
        SpanLog* traced = log != nullptr && i % kTraceEvery == 0 ? log : nullptr;
        ScopedSpan root(traced, SpanName::kReqInsert, -1, request);
        int64_t start = 0;
        int64_t end = 0;
        rps::Status status;
        {
          ScopedSpan call(traced, SpanName::kOlapDurableInsert, root.index(),
                          request);
          start = NowNs();
          status = engine.Insert(record);
          end = NowNs();
        }
        writer.inserts.Record(start, end, 1);
        if (log != nullptr) writer.intervals.push_back(Interval{start, end});
        if (traced != nullptr) {
          shadow_log->Append(traced, root.index(), request, cell.row, cell.col,
                             cell.measure);
          shadow->ShadowWrite(traced, root.index(), request, {cell});
        }
        ++writer.attempted;
        if (status.ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        } else {
          writer.failed.push_back(i);
        }
        if (end >= window.end_ns) break;
      }
    });
  }
  // The third thread: a checkpoint every kCheckpointEvery acknowledged
  // records, ad-hoc Sums in between.
  threads.emplace_back([&] {
    Analyst& analyst = phase->analyst;
    SpanLog* log = logs ? &(*logs)[kWriters] : nullptr;
    rps::Rng rng(SeedFor(seed, 0, kWriters));
    int64_t next_checkpoint = kCheckpointEvery;
    for (int64_t i = 0;; ++i) {
      int64_t end = 0;
      if (acked.load(std::memory_order_relaxed) >= next_checkpoint) {
        next_checkpoint += kCheckpointEvery;
        ScopedSpan root(log, SpanName::kReqCheckpoint, -1, i);
        int64_t start = 0;
        rps::Status status;
        {
          ScopedSpan call(log, SpanName::kStorageCheckpoint, root.index(), i);
          start = NowNs();
          status = engine.Checkpoint();
          end = NowNs();
        }
        ++analyst.attempted;
        ++analyst.checkpoints;
        if (!status.ok()) ++analyst.failed;
        analyst.checkpoint_intervals.push_back(Interval{start, end});
        analyst.checkpoint_ns_in_window +=
            std::max<int64_t>(0, std::min(end, window.end_ns) -
                                     std::max(start, window.start_ns));
      } else {
        const bool ok = TimedSum(
            engine, shadow, rng, kSide, kSide,
            log != nullptr && i % kTraceEvery == 0 ? log : nullptr, i,
            &analyst.queries, &end);
        ++analyst.attempted;
        if (!ok) ++analyst.failed;
      }
      if (end >= window.end_ns) break;
    }
  });
  for (std::thread& thread : threads) thread.join();
  phase->acked = acked.load();
  phase->wal_after = WalCounters::Read();
  phase->cloned_cells = ClonedCells(kShards) - cloned_before;
  phase->rss_mb = rss.StopMb();
  return phase;
}

/// Adds the phase's acknowledged records to the model.
void AddAcked(FlatModel* model, uint64_t seed, const Phase& phase) {
  for (int w = 0; w < kWriters; ++w) {
    const Writer& writer = phase.writers[static_cast<size_t>(w)];
    rps::Rng rng(SeedFor(seed, 0, w));
    size_t next_failed = 0;
    for (int64_t i = 0; i < writer.attempted; ++i) {
      const CellRecord c = NextRecord(rng, 0, kSide - 1, kSide);
      if (next_failed < writer.failed.size() && writer.failed[next_failed] == i) {
        ++next_failed;
        continue;
      }
      model->Add(c.row, c.col, c.measure);
    }
  }
}

void Count(RunOutput* out, const Phase& phase) {
  for (const Writer& w : phase.writers) {
    out->attempted += w.attempted;
    out->failed += static_cast<int64_t>(w.failed.size());
  }
  out->attempted += phase.analyst.attempted;
  out->failed += phase.analyst.failed;
}

/// p99 of inserts overlapping a checkpoint minus p99 of the rest (us).
double CheckpointStallUs(const Phase& phase, const std::string& name) {
  std::vector<double> overlapping;
  std::vector<double> rest;
  const auto& checkpoints = phase.analyst.checkpoint_intervals;
  for (const Writer& w : phase.writers) {
    for (const Interval& insert : w.intervals) {
      bool overlaps = false;
      for (const Interval& c : checkpoints) {
        overlaps = overlaps || (insert.start < c.end && c.start < insert.end);
      }
      (overlaps ? overlapping : rest)
          .push_back(static_cast<double>(insert.end - insert.start) * 1e-3);
    }
  }
  const auto n = static_cast<int64_t>(overlapping.size());
  if (!PercentileSupported(0.99, n)) {
    Report(name, "note.checkpoint_stall_samples", static_cast<double>(n),
           "count", "p99 of overlapping inserts has < 10 samples beyond it");
  }
  return Percentile(overlapping, 0.99) - Percentile(rest, 0.99);
}

}  // namespace

void RunDurable(const Options& options, RunOutput* out) {
  const std::string name = "durable";
  namespace fs = std::filesystem;
  // 2 writers + the group-commit thread + the checkpoint/analyst
  // thread = 4 threads, so the engine's pool gets no workers.
  rps::ThreadPool pool(0);
  const std::string root = options.work_dir + "/durable";
  const uint64_t preload_seed = SeedFor(options.seed, 0, 100);
  const rps::DurableOptions durable = GroupCommit();
  const rps::EngineMethod method = rps::EngineMethod::kRelativePrefixSum;

  // One round of kSetupRepeats timed set-ups (Create + Load of the
  // seeded preload, which checkpoints), each in a fresh directory that
  // replaces the previous one; the last engine stays in *into, in
  // *directory.
  const auto setup_round = [&](const std::string& round,
                               std::unique_ptr<rps::DurableOlapEngine>* into,
                               std::string* directory) {
    rps::Rng rng(preload_seed);
    const std::vector<rps::OlapRecord> records =
        MakeRecords(rng, kPreload, 0, kSide - 1, kSide);
    return TimeRepeats(
        kSetupRepeats,
        [&](int i) {
          into->reset();
          if (!directory->empty()) fs::remove_all(*directory);
          *directory = root + "/setup-" + round + std::to_string(i);
          fs::create_directories(*directory);
        },
        [&](int) {
          auto created = rps::DurableOlapEngine::Create(
              MakeSchema(kSide, kSide), method, kShards, *directory, durable,
              &pool);
          RPS_CHECK_MSG(created.ok(), "durable Create failed");
          *into = std::move(created).value();
          const rps::IngestReport report = (*into)->Load(records);
          // Load checkpoints; a committed checkpoint moves generation 1 -> 2.
          out->Check(report.accepted == kPreload && (*into)->generation() == 2,
                     "durable preload checkpoint");
        });
  };
  std::unique_ptr<rps::DurableOlapEngine> engine;
  std::string directory;
  const std::vector<double> setup_first = setup_round("a", &engine, &directory);
  ReturnFreedMemory();

  const std::unique_ptr<Phase> phase =
      RunPhase(*engine, nullptr, nullptr, options.seconds, options.seed,
               nullptr);
  Count(out, *phase);
  double setup_s = 0;
  {
    std::unique_ptr<rps::DurableOlapEngine> spare;
    std::string spare_directory;
    setup_s = SetupSeconds(setup_first,
                           setup_round("b", &spare, &spare_directory));
  }

  std::unique_ptr<ShardShadow> shadow;
  std::unique_ptr<ShadowLog> shadow_log;
  std::vector<SpanLog> logs;
  std::unique_ptr<Phase> traced;
  if (options.trace) {
    shadow = std::make_unique<ShardShadow>(kSide, kSide, kShards, preload_seed,
                                           kPreload, &pool);
    shadow_log =
        std::make_unique<ShadowLog>(options.work_dir + "/shadow-append.log");
    for (int i = 0; i <= kWriters; ++i) logs.emplace_back(kSpanReserve);
    traced = RunPhase(*engine, shadow.get(), shadow_log.get(), options.seconds,
                      options.seed, &logs);
    Count(out, *traced);
    shadow_log.reset();
  }

  // Final checkpoint, then a fixed WAL tail that recovery must replay.
  out->Check(engine->Checkpoint().ok(), "final checkpoint");
  rps::Rng tail_rng(SeedFor(options.seed, 7, 0));
  FlatModel model(kSide, kSide);
  for (int64_t b = 0; b < kTailBatches; ++b) {
    std::vector<rps::OlapRecord> batch;
    for (int64_t i = 0; i < kTailBatch; ++i) {
      const CellRecord c = NextRecord(tail_rng, 0, kSide - 1, kSide);
      batch.push_back(ToRecord(c));
      model.Add(c.row, c.col, c.measure);
    }
    out->Check(engine->InsertBatch(batch).ok(), "tail InsertBatch");
  }
  engine.reset();  // close

  int64_t replayed = 0;
  const double recover_s = Median(TimeRepeats(
      kRepeats, [&](int) { engine.reset(); },
      [&](int) {
        auto opened = rps::DurableOlapEngine::Open(
            MakeSchema(kSide, kSide), method, kShards, directory, durable,
            &pool, &replayed);
        out->Check(opened.ok(), "Open");
        if (opened.ok()) engine = std::move(opened).value();
      }));
  if (!engine) return;
  out->Check(replayed == kTailBatches * kTailBatch, "replayed WAL tail");

  // Recovered state == preload + every acknowledged record + the tail.
  {
    rps::Rng rng(preload_seed);
    for (int64_t i = 0; i < kPreload; ++i) {
      const CellRecord c = NextRecord(rng, 0, kSide - 1, kSide);
      model.Add(c.row, c.col, c.measure);
    }
  }
  AddAcked(&model, options.seed, *phase);
  if (traced) AddAcked(&model, options.seed, *traced);
  CheckAgainstModel(*engine, model, SeedFor(options.seed, 9, 0), 64, out);

  const OpRecorder inserts = phase->MergedInserts();
  AddEndToEnd(name, out, setup_s, phase->analyst.queries, phase->QueryQps(),
              inserts, recover_s, phase->rss_mb);
  Report(name, "ingest_rec_per_s", inserts.SliceRate(), "rec/s", "op_per_s");
  Report(name, "insert_p50_us", PercentileUs(inserts, 0.5, "insert"), "us",
         "op_p50_us");
  Report(name, "insert_p99_us", PercentileUs(inserts, 0.99, "insert"), "us",
         "op_p99_us, report only");
  const int64_t groups = phase->wal_after.groups - phase->wal_before.groups -
                         phase->analyst.checkpoints;
  const double records_per_group =
      groups > 0 ? static_cast<double>(phase->acked) / static_cast<double>(groups)
                 : 0;
  Report(name, "checkpoints", static_cast<double>(phase->analyst.checkpoints),
         "count");
  if (!options.trace) {
    fs::remove_all(root);
    return;
  }

  logs.emplace_back(kSpanReserve);
  SpanLog* probe = &logs.back();
  rps::Rng panel_rng(SeedFor(options.seed, 8, 2));
  for (int64_t i = 0; i < 64; ++i) {
    ScopedSpan span(probe, SpanName::kReqProbe, -1, i);
    shadow->ShadowPanel(probe, span.index(), i, shadow->PanelTiles(panel_rng));
  }
  LayerFigures figures;
  figures.cloned_bytes_per_record =
      ClonedBytesPerRecord(traced->cloned_cells, traced->acked);
  figures.records_per_group = records_per_group;
  figures.replay_records_per_s =
      RunBarrierProbe(options.work_dir, records_per_group, probe);
  figures.obs_query_overhead_ns =
      ObsQueryOverheadNs(*engine, kSide, kSide, options.seed);

  const int64_t clock_ns = ClockOverheadNs();
  std::vector<const SpanLog*> pointers;
  for (const SpanLog& log : logs) pointers.push_back(&log);
  WriteSpans(options.trace_dir + "/spans-durable.jsonl", pointers, clock_ns);
  const LayerSamples samples = CollectLayers(pointers, clock_ns);
  AddCommonLayerMetrics(name, samples, *shadow, figures, options.seed, out);
  AddTraceOverhead(name, out, phase->analyst.queries, inserts,
                   traced->analyst.queries, traced->MergedInserts());
  Report(name, "olap.durable_apply_us",
         samples.CenterOf("olap.durable_apply_us"), "us",
         "durable Insert minus the shadow group append");
  Report(name, "storage.checkpoint_ms",
         samples.CenterOf("storage.checkpoint_ms"), "ms",
         "n=" + std::to_string(samples.CountOf("storage.checkpoint_ms")));
  Report(name, "storage.checkpoint_stall_us", CheckpointStallUs(*traced, name),
         "us", "p99 overlapping a checkpoint minus p99 of the rest");
  Report(name, "storage.bytes_written_per_record",
         phase->acked > 0
             ? static_cast<double>(phase->wal_after.bytes -
                                   phase->wal_before.bytes) /
                   static_cast<double>(phase->acked)
             : 0,
         "B", "WAL groups and checkpoint bases, untraced phase");
  const int64_t barriers =
      phase->wal_after.barriers - phase->wal_before.barriers;
  Report(name, "storage.program_barrier_us",
         barriers > 0 ? (phase->wal_after.barrier_seconds -
                         phase->wal_before.barrier_seconds) *
                            1e6 / static_cast<double>(barriers)
                      : 0,
         "us",
         "mean of the program's rps_wal_fsync_seconds, n=" +
             std::to_string(barriers) + ", untraced phase");
  Report(name, "storage.open_records_per_s",
         static_cast<double>(replayed) / recover_s, "1/s",
         "WAL tail records replayed by Open per second of Open");
  fs::remove_all(root);
}

}  // namespace perfbench
