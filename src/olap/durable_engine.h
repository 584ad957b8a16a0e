// Durable ingest for the serving engine.
//
// Wraps a ShardedOlapEngine with a write-ahead log so that accepted
// records survive a process death. The on-disk layout reuses the
// storage layer's generation discipline (storage/durable_rps.h):
//   CURRENT      -- manifest naming the live generation N
//   base-N.log   -- dense cube contents at checkpoint N, one WAL
//                   record per nonzero cell ({sum, count} payload)
//   wal-N.log    -- per-record {measure, +1} deltas since base N
// The base file reuses the WAL record format (crc | coords | payload)
// rather than a separate snapshot codec: recovery is a single replay
// loop either way, and cells -- not schema field values -- are the
// natural replay unit (field values cannot be recovered from cells,
// which is why OlapServingEngine::LoadCells exists).
//
// Two durability modes (DurableOptions, shared with DurableRps):
// per-record pays one barrier per accepted record under a lock --
// the baseline -- while group commit funnels concurrent writers
// through a GroupCommitWal: one barrier per batch of concurrent
// writers, and writers block until their record is durable.
// `perfbench/run.py --workload durable` and `bench/bench_durable`
// measure the difference.
//
// Checkpoints are pipelined exactly like DurableRps's: writers are
// quiesced only while the log rotates to the next generation and the
// dense mirrors are copied; the base write, fsync and manifest commit
// run with ingest flowing into the rotated log. Crash recovery folds
// orphan logs above the live generation forward into a fresh
// checkpoint.
//
// Bulk Load() replaces cube contents in memory immediately and then
// checkpoints; the loaded records are durable once that checkpoint
// commits (single inserts are durable before Insert returns).

#ifndef RPS_OLAP_DURABLE_ENGINE_H_
#define RPS_OLAP_DURABLE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cube/nd_array.h"
#include "olap/sharded_engine.h"
#include "storage/durable_rps.h"
#include "storage/group_commit.h"
#include "storage/wal.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/retry.h"

namespace rps {

class DurableOlapEngine final : public OlapServingEngine {
 public:
  /// One logged cell update: the measure delta and record-count
  /// delta. Also the base-file payload, where the fields hold the
  /// cell's absolute contents instead.
  struct CellDelta {
    double sum = 0;
    int64_t count = 0;
  };
  static_assert(sizeof(CellDelta) == 16);

  /// Creates a fresh durable engine over an empty cube in `directory`
  /// (which must exist): commits generation 1 (empty base + empty
  /// log). `shards` sizes the inner engine as in MakeServingEngine.
  static Result<std::unique_ptr<DurableOlapEngine>> Create(
      Schema schema, EngineMethod method, int shards,
      const std::string& directory, const DurableOptions& options = {},
      ThreadPool* pool = &ThreadPool::Global());

  /// Restores from `directory`. The schema/method/shards configuration
  /// is not persisted -- the caller must pass the same schema the
  /// directory was written under (record geometry is validated).
  /// `replayed_records` (optional out) reports how many log records
  /// were folded in on top of the base.
  static Result<std::unique_ptr<DurableOlapEngine>> Open(
      Schema schema, EngineMethod method, int shards,
      const std::string& directory, const DurableOptions& options = {},
      ThreadPool* pool = &ThreadPool::Global(),
      int64_t* replayed_records = nullptr);

  ~DurableOlapEngine() override;

  const Schema& schema() const override { return schema_; }
  /// The wrapped serving engine (queries go straight to it, and every
  /// read operator runs on it).
  const ShardedOlapEngine& inner() const { return inner_; }

  IngestReport Load(const std::vector<OlapRecord>& records) override;
  Status LoadCells(const NdArray<double>& sums,
                   const NdArray<int64_t>& counts) override;
  Status Insert(const OlapRecord& record) override;
  Status InsertBatch(std::span<const OlapRecord> records) override;

  Result<double> Sum(const RangeQuery& query) const override {
    return inner_.Sum(query);
  }
  Result<std::vector<double>> QueryBatch(
      std::span<const RangeQuery> queries) const override {
    return inner_.QueryBatch(queries);
  }
  Result<int64_t> Count(const RangeQuery& query) const override {
    return inner_.Count(query);
  }
  Result<double> Average(const RangeQuery& query) const override {
    return inner_.Average(query);
  }
  Result<std::vector<double>> RollingSum(const RangeQuery& query,
                                         const std::string& dimension,
                                         int64_t window) const override {
    return inner_.RollingSum(query, dimension, window);
  }

  /// Persists the current cube as the next generation (pipelined;
  /// see the header comment). Safe to call from a background thread
  /// while writers ingest.
  Status Checkpoint();

  /// Durability + inner-engine health in one payload:
  /// {"durable": {...}, "engine": <inner HealthJson>}.
  std::string HealthJson() const override;

  int64_t generation() const {
    MutexLock lock(&state_mu_);
    return generation_;
  }
  int64_t wal_generation() const {
    MutexLock lock(&state_mu_);
    return wal_generation_;
  }
  bool checkpoint_in_flight() const {
    MutexLock lock(&state_mu_);
    return checkpoint_in_flight_;
  }
  bool group_commit() const { return group_wal_ != nullptr; }
  int64_t wal_records() const;

  void set_retry_policy(const RetryPolicy& policy);
  /// Test hook: runs between a checkpoint's rotation (writers live
  /// again) and its base write (see DurableRps's equivalent).
  void set_checkpoint_write_hook(std::function<void()> hook) {
    checkpoint_write_hook_ = std::move(hook);
  }

 private:
  DurableOlapEngine(Schema schema, EngineMethod method, int shards,
                    std::string directory, const DurableOptions& options,
                    ThreadPool* pool);

  static std::string BasePathFor(const std::string& directory,
                                 int64_t generation);
  static std::string WalPathFor(const std::string& directory,
                                int64_t generation);

  /// Logs `count` parallel cells/deltas with the mode's front end
  /// (one group barrier, or per-record barriers under the log lock).
  Status AppendLogged(const CellIndex* cells, const CellDelta* deltas,
                      int64_t count);
  /// Writes `directory/base-<generation>.log` from dense contents:
  /// every nonzero cell as one record, one durable batch.
  Status WriteBase(const NdArray<double>& sums,
                   const NdArray<int64_t>& counts, int64_t generation);

  void BeginApply();
  void EndApply();
  /// Writer-quiesced rotation to generation `next`; on success the
  /// active log is wal-(next). Called with gate_mu_ held, writers
  /// drained.
  Status RotateTo(int64_t next) REQUIRES(gate_mu_);
  void RemoveStaleGenerations();

  const Schema schema_;
  const DurableOptions options_;
  const std::string directory_;
  ShardedOlapEngine inner_;

  /// Apply gate (see DurableRps::SyncState): Adds hold it across
  /// log-append -> memory-apply; rotation drains it.
  Mutex gate_mu_{"DurableOlapEngine.gate"};
  CondVar gate_cv_;
  int64_t active_appends_ GUARDED_BY(gate_mu_) = 0;
  bool rotating_ GUARDED_BY(gate_mu_) = false;

  /// Serializes whole Checkpoint() calls.
  Mutex checkpoint_mu_{"DurableOlapEngine.checkpoint"};  // check_guards: standalone

  mutable Mutex state_mu_{"DurableOlapEngine.state"};
  int64_t generation_ GUARDED_BY(state_mu_) = 1;
  int64_t wal_generation_ GUARDED_BY(state_mu_) = 1;
  bool checkpoint_in_flight_ GUARDED_BY(state_mu_) = false;

  /// Dense absolute cube contents, mirrored on every accepted write;
  /// what checkpoints persist. (The inner engine cannot be read back
  /// cell-by-cell without range queries, so the mirror is the
  /// authoritative checkpoint source.)
  mutable Mutex mirror_mu_{"DurableOlapEngine.mirror"};
  NdArray<double> mirror_sums_ GUARDED_BY(mirror_mu_);
  NdArray<int64_t> mirror_counts_ GUARDED_BY(mirror_mu_);

  /// Exactly one of these is live, per options_.group_commit.
  mutable Mutex wal_mu_{"DurableOlapEngine.wal"};
  std::optional<WriteAheadLog> wal_ GUARDED_BY(wal_mu_);
  std::unique_ptr<GroupCommitWal> group_wal_;

  RetryPolicy retry_policy_;
  std::function<void()> checkpoint_write_hook_;
};

}  // namespace rps

#endif  // RPS_OLAP_DURABLE_ENGINE_H_
