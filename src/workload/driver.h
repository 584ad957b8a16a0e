// Workload driver: runs mixed query/update streams against a
// QueryMethod and reports timing and touched-cell statistics. Shared
// by the table benchmarks (DESIGN.md experiments E4-E6) so every
// method is measured identically.

#ifndef RPS_WORKLOAD_DRIVER_H_
#define RPS_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/method.h"
#include "cube/box.h"
#include "util/thread_pool.h"
#include "workload/query_gen.h"

namespace rps {

/// Aggregate outcome of one driver run.
struct WorkloadReport {
  std::string method;
  int64_t queries = 0;
  int64_t updates = 0;
  double query_seconds = 0;   // total wall time in RangeSum
  double update_seconds = 0;  // total wall time in Add
  int64_t update_cells = 0;   // exact touched cells across updates
  // Checksum over query results: guards against the compiler
  // eliding work and against silent divergence between methods.
  int64_t query_checksum = 0;

  double avg_query_micros() const {
    return queries == 0 ? 0 : query_seconds * 1e6 / static_cast<double>(queries);
  }
  double avg_update_micros() const {
    return updates == 0 ? 0
                        : update_seconds * 1e6 / static_cast<double>(updates);
  }
  double avg_update_cells() const {
    return updates == 0
               ? 0
               : static_cast<double>(update_cells) / static_cast<double>(updates);
  }
};

/// Mix of operations to run.
struct WorkloadSpec {
  int64_t num_queries = 0;
  int64_t num_updates = 0;
  /// Interleave (query, update, query, ...) instead of all queries
  /// then all updates.
  bool interleave = true;
};

/// Runs `spec` against `method` using the given generators.
/// Generators are consumed (advanced) by the run.
WorkloadReport RunWorkload(QueryMethod<int64_t>& method,
                           UniformQueryGen& queries, UniformUpdateGen& updates,
                           const WorkloadSpec& spec);

/// Variant with fixed-selectivity queries and hotspot updates.
WorkloadReport RunWorkload(QueryMethod<int64_t>& method,
                           SelectivityQueryGen& queries,
                           HotspotUpdateGen& updates,
                           const WorkloadSpec& spec);

/// Issues `ranges` as read-only RangeSum queries through `pool`
/// (many analysts querying at once; serial when `pool` is null).
/// Queries are side-effect-free on every method, so chunks of the
/// batch run concurrently; the checksum is order-independent (a sum),
/// so the report matches a serial run of the same ranges.
/// query_seconds is the wall time of the whole batch, not the summed
/// per-op time.
WorkloadReport RunParallelQueryWorkload(const QueryMethod<int64_t>& method,
                                        const std::vector<Box>& ranges,
                                        ThreadPool* pool);

}  // namespace rps

#endif  // RPS_WORKLOAD_DRIVER_H_
