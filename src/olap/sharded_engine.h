// The serving engine: sharded, epoch-versioned, with wait-free readers.
//
// One engine serves the paper's setting -- analysts querying a cube
// while new records keep arriving -- without coupling readers to the
// writer:
//
//   * The cube is partitioned along dimension 0 -- the highest-stride
//     dimension under row-major linearization -- into S contiguous
//     slices ("shards"), each backed by its own SUM and COUNT
//     structures over the slice's sub-shape. S = 1 is the plain case.
//   * All shard state is immutable once published. A single atomic
//     pointer holds the current EngineVersion: a generation counter
//     plus one reference per shard. Readers pin an epoch
//     (util/epoch.h), load the pointer once, and answer any number of
//     range sums against a frozen, cross-shard-consistent snapshot --
//     no locks, no reference-count traffic, wait-free.
//   * Writers serialize among themselves on a plain mutex, clone only
//     the shards a batch touches (QueryMethod::Clone -- copy-on-
//     write), apply the batch to the clones, publish a new version
//     with one atomic pointer swap, and retire the old version into
//     the epoch domain. Readers never observe a torn batch: a query
//     sees the shard set of exactly one version.
//
// Every read operator is written once against a ReadView: one pin,
// one version, one request (wide event plus latency observation).
// Composed operators -- rolling windows, GROUP BY, cross-tabs and the
// window series in olap/group_by.h and olap/window.h -- are therefore
// snapshot-consistent under concurrent writers. Multi-box operators
// hand each shard's sub-boxes to one QueryMethod::RangeSumBatch call
// (HierarchicalRps shares corners across it). Updates cost one
// clone of the touched shards per batch, which is why writers batch:
// the clone is amortized across the batch, and untouched shards are
// shared structurally between versions. An RPS clone shares every
// box-row chunk, so a batch copies only the box rows it writes.

#ifndef RPS_OLAP_SHARDED_ENGINE_H_
#define RPS_OLAP_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/method.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "olap/engine.h"
#include "util/annotations.h"
#include "util/epoch.h"
#include "util/mutex.h"

namespace rps {

class ShardedOlapEngine final : public OlapServingEngine {
 private:
  struct EngineVersion;
  struct ShardState;

 public:
  /// A pinned read of one published version, opened by each read
  /// operator exactly once. It is also the operator's request: it
  /// opens an `op` wide event (obs/event_log.h RequestScope) with an
  /// `op` span as the root of any slow-query span tree, and on
  /// destruction records the request latency into
  /// rps_sharded_engine_query_seconds from the same clock reads.
  /// Stack-only; the engine must outlive it.
  class ReadView {
   public:
    /// `op` must be a string literal (the wide event stores the
    /// pointer).
    ReadView(const ShardedOlapEngine& engine, const char* op);
    ReadView(const ReadView&) = delete;
    ReadView& operator=(const ReadView&) = delete;
    ~ReadView();

    const Schema& schema() const { return engine_.schema_; }

    /// Resolves `query` to a cell box inside the cube and adds its
    /// volume to the request's wide event.
    Result<Box> Resolve(const RangeQuery& query) const;

    /// SUM / COUNT over an explicit cell box; OutOfRange if the box
    /// leaves the cube.
    Result<double> SumOverCells(const Box& range) const;
    Result<int64_t> CountOverCells(const Box& range) const;

    /// SUMs / COUNTs of many boxes, in order. Each shard answers its
    /// sub-boxes with one QueryMethod::RangeSumBatch call; fails
    /// (answering nothing) if any box leaves the cube.
    Result<std::vector<double>> SumBatch(std::span<const Box> ranges) const;
    Result<std::vector<int64_t>> CountBatch(
        std::span<const Box> ranges) const;

   private:
    // The engine's operators pass the boxes Resolve built straight to
    // Total and Batch: a resolved box lies inside the cube, so it is
    // not checked again.
    friend class ShardedOlapEngine;

    /// SUM / COUNT over `range`, which lies inside the cube.
    template <typename T>
    T Total(const Box& range) const;
    /// The same for many boxes inside the cube, in order.
    template <typename T>
    std::vector<T> Batch(std::span<const Box> ranges) const;

    const ShardedOlapEngine& engine_;
    mutable obs::RequestScope request_;
    obs::CollectorSpan span_;
    EpochDomain::Guard guard_;
    const EngineVersion* const version_;
  };

  /// The cells of one published version, read back outside every
  /// lock (a durable checkpoint's image). Holds references to the
  /// version's immutable shards, not an epoch pin, so it may outlive
  /// later publications. A default FrozenCells holds no cells.
  class FrozenCells {
   public:
    /// Calls `visit(cell, sum, count)` for every cell of the cube in
    /// row-major order, decoding each with QueryMethod::ValueAt.
    void ForEach(const std::function<void(const CellIndex& cell, double sum,
                                          int64_t count)>& visit) const;

   private:
    friend class ShardedOlapEngine;
    std::vector<std::shared_ptr<const ShardState>> shards_;
    std::vector<int64_t> starts_;
  };

  /// An empty engine over `schema` using `method`, split into
  /// `shards` slices (clamped to [1, extent of dimension 0];
  /// < 1 means the thread-pool default). The method must be
  /// clonable (every built-in EngineMethod is); this is checked once
  /// here. `domain` defaults to the process-wide epoch domain; tests
  /// may pass an isolated one.
  ShardedOlapEngine(Schema schema, EngineMethod method, int shards = 1,
                    ThreadPool* pool = &ThreadPool::Global(),
                    EpochDomain* domain = &EpochDomain::Global());

  /// Unpublishes and retires the last version. Callers must ensure no
  /// reader is still inside a query (as with any engine teardown).
  ~ShardedOlapEngine() override;

  const Schema& schema() const override { return schema_; }
  EngineMethod method() const { return method_; }
  int shards() const { return static_cast<int>(starts_.size()) - 1; }

  /// Generation of the currently published version (monotonic; starts
  /// at 1 for the empty engine and advances once per publication).
  uint64_t generation() const;

  /// Cells the inserts have touched across the SUM and COUNT
  /// structures (the paper's update cost unit), since construction.
  int64_t cumulative_update_cells() const {
    return update_cells_.load(std::memory_order_relaxed);
  }

  IngestReport Load(const std::vector<OlapRecord>& records) override;
  Status LoadCells(const NdArray<double>& sums,
                   const NdArray<int64_t>& counts) override;
  Status Insert(const OlapRecord& record) override;
  Status InsertBatch(std::span<const OlapRecord> records) override;

  Result<double> Sum(const RangeQuery& query) const override;
  /// SUMs for a batch of queries from one version. Fails (answering
  /// nothing) if any query does not resolve.
  Result<std::vector<double>> QueryBatch(
      std::span<const RangeQuery> queries) const override;
  Result<int64_t> Count(const RangeQuery& query) const override;
  /// AVERAGE = SUM / COUNT; FailedPrecondition when the range holds
  /// no records.
  Result<double> Average(const RangeQuery& query) const override;
  /// Rolling sums along `dimension`: for every slot p of that
  /// dimension in the query range, the SUM over the range restricted
  /// to slots [p - window + 1, p] (clamped to the range). This is the
  /// paper's ROLLING SUM operator.
  Result<std::vector<double>> RollingSum(const RangeQuery& query,
                                         const std::string& dimension,
                                         int64_t window) const override;
  /// Rolling AVERAGE over the same windows (0 where no records).
  Result<std::vector<double>> RollingAverage(const RangeQuery& query,
                                             const std::string& dimension,
                                             int64_t window) const;

  /// Freezes the published version for reading back: copies its shard
  /// references under the writer lock. O(S); copies no cells.
  FrozenCells FreezeCells() const;

  std::string HealthJson() const override;

  /// One JSON object per shard (row range, cells, generation) plus
  /// the engine totals -- the /varz shard table.
  std::string VarzJson() const;

 private:
  /// One slice of the cube: immutable once published.
  struct ShardState {
    std::unique_ptr<QueryMethod<double>> sums;
    std::unique_ptr<QueryMethod<int64_t>> counts;
    /// Generation that last rewrote this shard (<= the version's).
    uint64_t generation = 0;
  };

  /// A consistent whole-engine snapshot. Unaffected shards are shared
  /// (by shared_ptr) with the previous version; readers never touch
  /// the reference counts -- only writers clone/share, under the
  /// writer mutex, and the epoch domain frees retired versions.
  struct EngineVersion {
    uint64_t generation = 0;
    std::vector<std::shared_ptr<const ShardState>> shards;
  };

  /// Dense per-shard contents awaiting a build (Load, LoadCells).
  struct DenseShards {
    std::vector<NdArray<double>> sums;
    std::vector<NdArray<int64_t>> counts;
  };

  /// Shard index owning cube row `row0` (dimension-0 coordinate).
  int ShardOf(int64_t row0) const;
  /// Sub-shape of shard `s` (dimension 0 trimmed to the slice).
  Shape ShardShape(int s) const;
  /// `range` clipped to shard `s`'s rows, in the shard's coordinates:
  /// `range` itself when it already is (a box inside shard 0), else a
  /// copy with its rows clipped and shifted, made in `local`.
  const Box& LocalBox(const Box& range, int s, Box& local) const;
  /// All-zero dense arrays, one pair per shard.
  DenseShards EmptyShards() const;
  /// Builds every shard from `dense` and publishes them as one
  /// version: the shared tail of Load and LoadCells.
  void BuildAndPublish(const DenseShards& dense);
  /// Resolves, clones, applies and publishes `records` as one
  /// version (Insert and InsertBatch; `op` names the wide event).
  Status Apply(std::span<const OlapRecord> records, const char* op);
  /// Swaps in `next` and retires the previous version. Requires
  /// writer_mu_.
  void Publish(EngineVersion* next) REQUIRES(writer_mu_);

  const Schema schema_;
  const EngineMethod method_;
  ThreadPool* const pool_;
  EpochDomain* const domain_;
  /// Slice boundaries on dimension 0: shard s covers rows
  /// [starts_[s], starts_[s+1]); size() == shards() + 1.
  std::vector<int64_t> starts_;

  /// The published version. Written only under writer_mu_ (a seq_cst
  /// swap); read by pinned readers with an acquire load. Never null.
  std::atomic<const EngineVersion*> version_{nullptr};

  mutable Mutex writer_mu_{"ShardedOlapEngine.writer_mu"};
  /// Monotonic publication counter (matches the published version's
  /// generation while writer_mu_ is held).
  uint64_t next_generation_ GUARDED_BY(writer_mu_) = 1;
  /// Written by writers only; relaxed so health reads never lock.
  std::atomic<int64_t> update_cells_{0};

  // Registry-owned observability (labels: method=..., shards=...).
  obs::Histogram* query_seconds_;
  obs::Histogram* insert_seconds_;
  obs::Histogram* publish_seconds_;
  obs::Counter* publishes_total_;
  obs::Counter* cloned_cells_total_;
  obs::Gauge* shard_count_;
  obs::Gauge* generation_gauge_;
};

}  // namespace rps

#endif  // RPS_OLAP_SHARDED_ENGINE_H_
