// In-memory spans for the traced run.
//
// The benchmark records a span around every public call it makes on
// a sampled request: the real engine call plus the shadow calls that
// replay the same input into a lower layer's public entry point. Each
// thread appends to its own SpanLog (no locks, no sharing); the logs
// are merged and written out after the run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names: a request root, the real engine call, or a shadow call
/// into one layer's public function.
enum class SpanName : int32_t {
  kReqSum,            // one ad-hoc Sum request (root)
  kReqPanel,          // one panel refresh (root)
  kReqInsert,         // one InsertBatch / Insert request (root)
  kReqCheckpoint,     // one Checkpoint call (root)
  kReqProbe,          // a layer probe outside the workload's traffic
  kOlapSum,           // OlapServingEngine::Sum
  kOlapPanel,         // QueryBatch + RollingSum + Average + Count
  kOlapInsertBatch,   // OlapServingEngine::InsertBatch
  kOlapDurableInsert, // DurableOlapEngine::Insert
  kOlapResolve,       // RangeQuery::Resolve
  kEpochGuard,        // EpochDomain::Guard construct + destruct
  kCoreRangeSum,      // RelativePrefixSum::RangeSum, per touched shard
  kCoreRangeSumBatch, // RelativePrefixSum::RangeSumBatch on the tiles
  kCoreClone,         // Clone of one shard's SUM and COUNT structures
  kCoreAdd,           // RelativePrefixSum::Add of a batch's records
  kCubeAddToRow,      // kernels::Active<double>().add_to_row
  kStorageAppend,     // GroupCommitWal::Append on a standalone log
  kStorageAppendBatch, // WriteAheadLog::AppendBatch (one barrier)
  kStorageCheckpoint, // DurableOlapEngine::Checkpoint
  kCount,
};

inline const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[] = {
      "req.sum",          "req.panel",          "req.insert",
      "req.checkpoint",   "req.probe",          "olap.Sum",
      "olap.Panel",       "olap.InsertBatch",   "olap.DurableInsert",
      "olap.Resolve",     "util.EpochGuard",    "core.RangeSum",
      "core.RangeSumBatch", "core.Clone",       "core.Add",
      "cube.AddToRow",    "storage.Append",     "storage.AppendBatch",
      "storage.Checkpoint",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<int32_t>(name)];
}

struct Span {
  SpanName name;
  int32_t parent;    // index in the same log, -1 for a root
  int64_t request;   // request id, shared by a root and its children
  int64_t start_ns;
  int64_t end_ns;
  int64_t work;      // units of work inside the span (calls, records)
  int64_t cells;     // cells the work read, wrote or copied
};

/// One thread's spans, in begin order.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }

  int32_t Begin(SpanName name, int32_t parent, int64_t request) {
    spans_.push_back(Span{name, parent, request, NowNs(), 0, 0, 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index, int64_t work, int64_t cells) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    span.work = work;
    span.cells = cells;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, int32_t parent, int64_t request)
      : log_(log), index_(log ? log->Begin(name, parent, request) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_, work_, cells_);
  }
  int32_t index() const { return index_; }
  void set_work(int64_t work) { work_ = work; }
  void set_cells(int64_t cells) { cells_ = cells; }

 private:
  SpanLog* log_;
  int32_t index_;
  int64_t work_ = 1;
  int64_t cells_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
