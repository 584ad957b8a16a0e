// The OLAP serving surface: records in, near-current range aggregates
// out.
//
// A Schema describes the cube; records are binned into SUM and COUNT
// cubes; a pluggable QueryMethod (naive / prefix sum / relative prefix
// sum / Fenwick / hierarchical) answers range aggregates; inserts are
// point updates, the workload the paper motivates ("companies ...
// tracking current sales data, for which new information may arrive
// on a daily basis"). AVERAGE = SUM/COUNT and rolling windows follow
// Ho et al.'s reduction to range sums (Section 2).
//
// This header holds what every engine shares: the method factories,
// the record types and the OlapServingEngine interface. The one
// in-memory engine is ShardedOlapEngine (olap/sharded_engine.h; one
// shard is the plain case); DurableOlapEngine (olap/durable_engine.h)
// logs its writes.

#ifndef RPS_OLAP_ENGINE_H_
#define RPS_OLAP_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fenwick_method.h"
#include "core/naive_method.h"
#include "core/prefix_sum_method.h"
#include "core/relative_prefix_sum.h"
#include "cube/nd_array.h"
#include "olap/query.h"
#include "olap/schema.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rps {

/// Which range-sum structure backs the engine.
enum class EngineMethod {
  kNaive,
  kPrefixSum,
  kRelativePrefixSum,
  kFenwick,
  kHierarchicalRps,
};

const char* EngineMethodName(EngineMethod method);

/// Factories for the underlying structures, shared by the engines.
/// The returned structure is built once, from `source`. `pool`
/// (borrowed, must outlive the structure; may be null for strictly
/// serial execution) drives parallel builds and large query batches in
/// the pool-aware methods; the others ignore it.
std::unique_ptr<QueryMethod<double>> MakeDoubleMethod(
    EngineMethod method, const NdArray<double>& source,
    ThreadPool* pool = &ThreadPool::Global());
std::unique_ptr<QueryMethod<int64_t>> MakeCountMethod(
    EngineMethod method, const NdArray<int64_t>& source,
    ThreadPool* pool = &ThreadPool::Global());

/// One input record: raw dimension values (schema order) + measure.
struct OlapRecord {
  std::vector<FieldValue> values;
  double measure = 0;
};

/// Outcome of a bulk ingest.
struct IngestReport {
  int64_t accepted = 0;
  int64_t rejected = 0;  // out-of-domain records (skipped)
};

/// Read/write surface of the serving engines: ShardedOlapEngine and
/// its durable wrapper. Drivers, tools and benchmarks hold engines
/// through this interface (MakeServingEngine builds one).
///
/// All methods are safe to call from any thread; readers never block.
class OlapServingEngine {
 public:
  virtual ~OlapServingEngine() = default;

  virtual const Schema& schema() const = 0;

  /// Bulk loads `records`, replacing current contents atomically with
  /// respect to queries.
  virtual IngestReport Load(const std::vector<OlapRecord>& records) = 0;

  /// Bulk loads dense cube contents directly (cell space rather than
  /// record space), replacing current contents atomically. This is
  /// the recovery path for durable wrappers: WAL replay yields cells,
  /// and cells cannot be inverted back to schema field values. Both
  /// arrays must have shape schema().CubeShape().
  virtual Status LoadCells(const NdArray<double>& sums,
                           const NdArray<int64_t>& counts) = 0;

  /// Inserts one record. Fails on out-of-domain values.
  virtual Status Insert(const OlapRecord& record) = 0;

  /// Inserts many records as one atomic transition: queries observe
  /// either none or all of the batch. Fails (applying nothing) if any
  /// record is out of domain. Batching is how writers amortize their
  /// per-publication overhead.
  virtual Status InsertBatch(std::span<const OlapRecord> records) = 0;

  virtual Result<double> Sum(const RangeQuery& query) const = 0;
  virtual Result<std::vector<double>> QueryBatch(
      std::span<const RangeQuery> queries) const = 0;
  virtual Result<int64_t> Count(const RangeQuery& query) const = 0;
  virtual Result<double> Average(const RangeQuery& query) const = 0;
  virtual Result<std::vector<double>> RollingSum(const RangeQuery& query,
                                                 const std::string& dimension,
                                                 int64_t window) const = 0;

  /// Health-source payload for the exposition server.
  virtual std::string HealthJson() const = 0;
};

/// The serving engine over `schema`: a ShardedOlapEngine with
/// `shards` slices (< 1 means the thread-pool default). Defined in
/// sharded_engine.cc.
std::unique_ptr<OlapServingEngine> MakeServingEngine(
    Schema schema, EngineMethod method, int shards,
    ThreadPool* pool = &ThreadPool::Global());

}  // namespace rps

#endif  // RPS_OLAP_ENGINE_H_
