#include "workload/driver.h"

#include <algorithm>
#include <span>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/stopwatch.h"

namespace rps {
namespace {

template <typename QueryGen, typename UpdateGen>
WorkloadReport RunWorkloadImpl(QueryMethod<int64_t>& method, QueryGen& queries,
                               UpdateGen& updates, const WorkloadSpec& spec) {
  WorkloadReport report;
  report.method = method.name();

  // Per-op latency distributions; the Observe calls happen outside the
  // timed sections so they never inflate the report's totals.
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const obs::Labels labels = {{"method", std::string(method.name())}};
  obs::Histogram& query_hist =
      registry.GetHistogram("rps_workload_query_seconds", labels);
  obs::Histogram& update_hist =
      registry.GetHistogram("rps_workload_update_seconds", labels);

  const int64_t rounds = std::max(spec.num_queries, spec.num_updates);
  int64_t issued_queries = 0;
  int64_t issued_updates = 0;

  auto do_query = [&] {
    const Box range = queries.Next();
    obs::RequestScope request(obs::WideEventKind::kQuery, "workload.query",
                              method.name());
    request.set_box_volume(range.NumCells());
    Stopwatch watch;
    const int64_t sum = method.RangeSum(range);
    const int64_t nanos = watch.ElapsedNanos();
    report.query_seconds += static_cast<double>(nanos) * 1e-9;
    report.query_checksum += sum;
    ++report.queries;
    query_hist.ObserveNanos(nanos);
  };
  auto do_update = [&] {
    const UpdateOp op = updates.Next();
    obs::RequestScope request(obs::WideEventKind::kUpdate, "workload.update",
                              method.name());
    Stopwatch watch;
    const UpdateStats stats = method.Add(op.cell, op.delta);
    const int64_t nanos = watch.ElapsedNanos();
    report.update_seconds += static_cast<double>(nanos) * 1e-9;
    report.update_cells += stats.total();
    ++report.updates;
    request.set_cells(stats.primary_cells, stats.aux_cells);
    update_hist.ObserveNanos(nanos);
  };

  if (spec.interleave) {
    for (int64_t round = 0; round < rounds; ++round) {
      if (issued_queries < spec.num_queries) {
        do_query();
        ++issued_queries;
      }
      if (issued_updates < spec.num_updates) {
        do_update();
        ++issued_updates;
      }
    }
  } else {
    for (; issued_queries < spec.num_queries; ++issued_queries) do_query();
    for (; issued_updates < spec.num_updates; ++issued_updates) do_update();
  }
  return report;
}

}  // namespace

WorkloadReport RunWorkload(QueryMethod<int64_t>& method,
                           UniformQueryGen& queries, UniformUpdateGen& updates,
                           const WorkloadSpec& spec) {
  return RunWorkloadImpl(method, queries, updates, spec);
}

WorkloadReport RunWorkload(QueryMethod<int64_t>& method,
                           SelectivityQueryGen& queries,
                           HotspotUpdateGen& updates,
                           const WorkloadSpec& spec) {
  return RunWorkloadImpl(method, queries, updates, spec);
}

WorkloadReport RunParallelQueryWorkload(const QueryMethod<int64_t>& method,
                                        const std::vector<Box>& ranges,
                                        ThreadPool* pool) {
  WorkloadReport report;
  report.method = method.name();
  obs::Histogram& query_hist = obs::MetricRegistry::Global().GetHistogram(
      "rps_workload_query_seconds", {{"method", std::string(method.name())}});

  // Workers fold per-chunk sums into one guarded accumulator; the
  // annotations make the sharing discipline checkable (GUARDED_BY
  // attaches to members, so the accumulator lives in a local struct).
  struct Shared {
    Mutex mu{"RunParallelQueryWorkload.mu"};
    int64_t checksum GUARDED_BY(mu) = 0;
  } shared;
  const int64_t total = static_cast<int64_t>(ranges.size());
  auto run_range = [&](int64_t lo, int64_t hi) {
    // Each chunk is answered as one batch (HierarchicalRps shares
    // corners between its queries); a nested ParallelFor
    // inside RangeSumBatch runs inline on this worker. The histogram
    // gets the batch-average per-query latency.
    std::vector<int64_t> sums(static_cast<size_t>(hi - lo));
    const Stopwatch chunk_watch;
    method.RangeSumBatch(
        std::span<const Box>(ranges).subspan(static_cast<size_t>(lo),
                                             static_cast<size_t>(hi - lo)),
        sums);
    const int64_t nanos = chunk_watch.ElapsedNanos();
    int64_t local = 0;
    for (const int64_t sum : sums) local += sum;
    query_hist.ObserveNanosBatch(nanos / std::max<int64_t>(1, hi - lo),
                                 hi - lo);
    MutexLock lock(&shared.mu);
    shared.checksum += local;
  };

  const Stopwatch watch;
  if (pool != nullptr && total > 1) {
    // Fixed grain: chunk boundaries (and the summed checksum) never
    // depend on worker count.
    pool->ParallelFor(0, total, /*grain=*/64, run_range);
  } else if (total > 0) {
    run_range(0, total);
  }
  report.query_seconds = static_cast<double>(watch.ElapsedNanos()) * 1e-9;
  report.queries = total;
  {
    MutexLock lock(&shared.mu);
    report.query_checksum = shared.checksum;
  }
  return report;
}

}  // namespace rps
