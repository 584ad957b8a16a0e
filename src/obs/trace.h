// Span trees for slow-request capture.
//
// While a SpanCollector is installed on a thread (the slow-query log
// in obs/event_log.h does this for requests it may need to explain),
// every CollectorSpan that opens on that thread records into the
// collector, with parent indices reconstructing the nesting. With no
// collector active a CollectorSpan costs one thread-local load, so hot
// paths like the core range-sum can expose themselves to slow-query
// capture without any shared write per operation.

#ifndef RPS_OBS_TRACE_H_
#define RPS_OBS_TRACE_H_

#include <cstdint>
#include <vector>

namespace rps::obs {

/// Nanoseconds since the process trace epoch (first use).
int64_t TraceNowNanos();

/// One span inside a collected tree. `parent` indexes into the same
/// vector; -1 marks the root.
struct CollectedSpan {
  const char* op = "";
  int32_t parent = -1;
  int64_t start_nanos = 0;
  int64_t duration_nanos = 0;
  int64_t primary_cells = 0;
  int64_t aux_cells = 0;
};

/// Gathers the spans of one request into a tree. Install-by-
/// construction: the constructor makes this the calling thread's
/// current collector (nesting saves the previous one), the destructor
/// restores it. Single-threaded by design -- spans running on pool
/// workers belong to the worker's collector (normally none), which
/// keeps capture race-free without any locking.
class SpanCollector {
 public:
  SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;
  ~SpanCollector();

  /// The calling thread's innermost active collector, or null.
  static SpanCollector* Current();

  /// Opens a span; returns its index. The innermost open span becomes
  /// the parent.
  int OnSpanStart(const char* op, int64_t start_nanos);

  /// Closes the span `index` (spans close innermost-first).
  void OnSpanEnd(int index, int64_t duration_nanos, int64_t primary_cells,
                 int64_t aux_cells);

  const std::vector<CollectedSpan>& spans() const { return spans_; }
  std::vector<CollectedSpan> TakeSpans() { return std::move(spans_); }

 private:
  std::vector<CollectedSpan> spans_;
  int32_t open_ = -1;  // innermost open span, -1 at the root
  SpanCollector* previous_ = nullptr;
};

/// RAII span: records a tree node when (and only when) a
/// SpanCollector is active on this thread; otherwise costs one
/// thread-local load. Create one per operation on the stack.
class CollectorSpan {
 public:
  explicit CollectorSpan(const char* op)
      : collector_(SpanCollector::Current()) {
    if (collector_ != nullptr) {
      start_nanos_ = TraceNowNanos();
      index_ = collector_->OnSpanStart(op, start_nanos_);
    }
  }
  CollectorSpan(const CollectorSpan&) = delete;
  CollectorSpan& operator=(const CollectorSpan&) = delete;

  void SetCells(int64_t primary, int64_t aux) {
    primary_cells_ = primary;
    aux_cells_ = aux;
  }

  ~CollectorSpan() {
    if (collector_ != nullptr) {
      collector_->OnSpanEnd(index_, TraceNowNanos() - start_nanos_,
                            primary_cells_, aux_cells_);
    }
  }

 private:
  SpanCollector* const collector_;
  int index_ = -1;
  int64_t start_nanos_ = 0;
  int64_t primary_cells_ = 0;
  int64_t aux_cells_ = 0;
};

}  // namespace rps::obs

#endif  // RPS_OBS_TRACE_H_
