// Durable ingest for the serving engine.
//
// Wraps a ShardedOlapEngine with a GenerationStore
// (storage/generation_store.h) so that accepted records survive a
// process death. The store's files, shared with DurableRps:
//   CURRENT          -- live generation N and the schema fingerprint
//   snapshot-N.bin   -- the image: every nonzero cell of one published
//                       version, one WAL record per cell ({sum, count})
//   wal-N.log        -- per-record {measure, +1} deltas since image N
// The image reuses the WAL record format (crc | coords | payload)
// rather than a snapshot codec: recovery is one replay loop either
// way, and cells -- not schema field values -- are the natural replay
// unit (field values cannot be recovered from cells, which is why
// OlapServingEngine::LoadCells exists).
//
// Per-record mode pays one barrier per accepted record -- the
// baseline -- while group commit coalesces concurrent writers into one
// barrier per group; writers block until their record is durable
// either way. `perfbench/run.py --workload durable` and
// `bench/bench_durable` measure the difference.
//
// A checkpoint quiesces writers only while the log rotates and the
// engine's published version is frozen (S shard references, no cell
// copy); the cells are read back with QueryMethod::ValueAt and written
// with ingest flowing into the rotated log. There is no dense mirror
// of the cube. The manifest records a fingerprint of the schema's
// geometry, and Open refuses a schema that does not match it.
//
// Bulk Load() replaces cube contents in memory immediately and then
// checkpoints; the loaded records are durable once that checkpoint
// commits (single inserts are durable before Insert returns).

#ifndef RPS_OLAP_DURABLE_ENGINE_H_
#define RPS_OLAP_DURABLE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "olap/sharded_engine.h"
#include "storage/generation_store.h"

namespace rps {

class DurableOlapEngine final : public OlapServingEngine {
 public:
  /// One logged cell update: the measure delta and record-count
  /// delta. Also the image payload, where the fields hold the cell's
  /// absolute contents instead.
  struct CellDelta {
    double sum = 0;
    int64_t count = 0;
  };
  static_assert(sizeof(CellDelta) == 16);

  /// Creates a fresh durable engine over an empty cube in `directory`
  /// (which must exist): commits generation 1 (empty image + empty
  /// log). `shards` sizes the inner engine as in MakeServingEngine.
  static Result<std::unique_ptr<DurableOlapEngine>> Create(
      Schema schema, EngineMethod method, int shards,
      const std::string& directory, const DurableOptions& options = {},
      ThreadPool* pool = &ThreadPool::Global());

  /// Restores from `directory`. The schema must describe the same
  /// geometry the directory was written under (InvalidArgument
  /// otherwise); method and shard count are free, since the image
  /// holds cells. `replayed_records` (optional out) reports how many
  /// log records were folded in on top of the image.
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

  int64_t generation() const { return store_->generation(); }
  int64_t wal_generation() const { return store_->wal_generation(); }
  bool checkpoint_in_flight() const { return store_->checkpoint_in_flight(); }
  bool group_commit() const { return store_->group_commit(); }
  int64_t wal_records() const { return store_->wal_records(); }

  void set_retry_policy(const RetryPolicy& policy) {
    store_->set_retry_policy(policy);
  }
  /// Test hook: runs between a checkpoint's rotation (writers live
  /// again) and its image write.
  void set_checkpoint_write_hook(std::function<void()> hook) {
    store_->set_checkpoint_write_hook(std::move(hook));
  }

 private:
  DurableOlapEngine(Schema schema, EngineMethod method, int shards,
                    ThreadPool* pool);

  /// Freezes the published version into the writer of its image.
  GenerationStore::ImageWriter FreezeImage() const;

  const Schema schema_;
  ShardedOlapEngine inner_;
  std::unique_ptr<GenerationStore> store_;
};

}  // namespace rps

#endif  // RPS_OLAP_DURABLE_ENGINE_H_
