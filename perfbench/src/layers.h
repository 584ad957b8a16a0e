// Outside-in per-layer measurement for the traced run.
//
// Nothing here reaches inside the program. A sampled request carries
// shadow calls: the same input replayed into a lower layer's public
// entry point (RangeQuery::Resolve, EpochDomain::Guard, a standalone
// RelativePrefixSum of the shard's shape, the row kernels, a
// standalone WAL), each timed as a child span of the request. Layers a
// workload's own traffic does not reach are timed by probe requests
// after the timed phase, with the same span machinery and inputs drawn
// from the workload's own generators.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/relative_prefix_sum.h"
#include "olap/engine.h"
#include "storage/group_commit.h"
#include "trace.h"

namespace perfbench {

/// Standalone SUM and COUNT structures with one shard's shape, built
/// from the part of the workload's preload that falls in shard 0.
class ShardShadow {
 public:
  /// `preload_seed`/`preload_records` regenerate the workload's
  /// preload stream (uniform over rows x cols).
  ShardShadow(int64_t rows, int64_t cols, int shards, uint64_t preload_seed,
              int64_t preload_records, rps::ThreadPool* pool);

  int64_t shard_rows() const { return shard_rows_; }

  /// Resolve, epoch pin and core RangeSum on every touched shard.
  void ShadowRead(SpanLog* log, int32_t root, int64_t request,
                  const rps::RangeQuery& query, const rps::Schema& schema,
                  const Box2& box) const;
  /// Clone of SUM and COUNT, Add of every record to both clones, and
  /// the row kernel on a row of the shard's width.
  void ShadowWrite(SpanLog* log, int32_t root, int64_t request,
                   const std::vector<CellRecord>& records) const;
  /// The 64 tiles of an 8x8 grid over a seeded quarter of the shard.
  std::vector<rps::Box> PanelTiles(rps::Rng& rng) const;
  /// RangeSumBatch over `tiles`.
  void ShadowPanel(SpanLog* log, int32_t root, int64_t request,
                   const std::vector<rps::Box>& tiles) const;

  /// Cells read per core RangeSum (the structure's own lookup
  /// counters), over `queries` seeded boxes; exact and deterministic.
  double CellsReadPerQuery(uint64_t seed, int queries) const;
  /// RpsWorstCaseUpdateCells of the shard geometry.
  int64_t WorstCaseUpdateCells() const;

 private:
  int64_t rows_;
  int64_t cols_;
  int64_t shard_rows_;
  std::unique_ptr<rps::RelativePrefixSum<double>> sums_;
  std::unique_ptr<rps::RelativePrefixSum<int64_t>> counts_;
};

/// Standalone group-commit log for shadow appends, with the durable
/// engine's record geometry (2 coordinates + a 16-byte payload).
class ShadowLog {
 public:
  explicit ShadowLog(const std::string& path);

  void Append(SpanLog* log, int32_t root, int64_t request, int64_t row,
              int64_t col, double measure);

 private:
  std::unique_ptr<rps::GroupCommitWal> wal_;
};

/// Two threads append 2048 seeded records each to a standalone
/// group-commit log in `dir`, one probe request per append (spans into
/// logs[0] and logs[1]). Returns the records per commit group the
/// program's counters saw.
double RunAppendProbe(const std::string& dir, uint64_t seed, SpanLog* logs);

/// 256 WriteAheadLog::AppendBatch calls of `group_size` records (one
/// flush barrier each) on a standalone log in `dir`, spans into `log`;
/// then replays that log. Returns replayed records per second (median
/// of five replays).
double RunBarrierProbe(const std::string& dir, double group_size,
                       SpanLog* log);

/// Group-commit counters of the program, read only: the group size
/// histograms and the durability-barrier histogram.
struct WalCounters {
  int64_t groups = 0;
  int64_t records = 0;
  int64_t bytes = 0;
  int64_t barriers = 0;
  double barrier_seconds = 0;
  static WalCounters Read();
};

/// Cells the program's RPS sharded engines with `shards` shards have
/// cloned so far (rps_shard_cloned_cells_total), read only.
int64_t ClonedCells(int shards);

/// Bytes cloned per record: cloned cells x 8 (SUM cells are doubles,
/// COUNT cells int64) over the records those inserts carried.
double ClonedBytesPerRecord(int64_t cloned_cells, int64_t records);

/// obs overhead on Sum: two threads, alternating rounds with the obs
/// gate on and off; returns median(on) - median(off) in ns.
double ObsQueryOverheadNs(const rps::OlapServingEngine& engine,
                          int64_t rows, int64_t cols, uint64_t seed);

/// Median back-to-back steady_clock read cost; subtracted from every
/// span so short shadow calls are not inflated by the clock.
int64_t ClockOverheadNs();

/// Per-layer samples gathered from span trees.
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& name, double v) { values[name].push_back(v); }
  /// Interquartile mean of a sample (robust like a median, but not
  /// stuck on the integer nanoseconds spans are made of), or 0 when
  /// there is none.
  double CenterOf(const std::string& name) const;
  size_t CountOf(const std::string& name) const;
};

/// Walks every request tree in `logs` and derives the per-layer
/// samples (durations corrected by `clock_ns`).
LayerSamples CollectLayers(const std::vector<const SpanLog*>& logs,
                           int64_t clock_ns);

/// Writes every span as one JSON line (with self time) to `path`.
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs, int64_t clock_ns);

/// Per-layer figures a workload measures outside the span samples.
struct LayerFigures {
  double cloned_bytes_per_record = 0;
  double records_per_group = 0;
  double replay_records_per_s = 0;
  double obs_query_overhead_ns = 0;
};

/// The per-layer metrics every workload reports under --trace 1, in
/// BENCHMARK.json order, from the samples plus `figures`.
void AddCommonLayerMetrics(const std::string& workload,
                           const LayerSamples& samples,
                           const ShardShadow& shadow,
                           const LayerFigures& figures, uint64_t seed,
                           RunOutput* out);

/// Adds one per-layer metric and prints it.
void AddLayer(const std::string& workload, RunOutput* out,
              const std::string& name, double value,
              const std::string& unit, const std::string& note = "");

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
