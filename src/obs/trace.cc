#include "obs/trace.h"

#include <chrono>

#include "util/check.h"

namespace rps::obs {
namespace {

SpanCollector*& CurrentCollectorSlot() {
  thread_local SpanCollector* current = nullptr;
  return current;
}

}  // namespace

int64_t TraceNowNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

SpanCollector::SpanCollector() : previous_(CurrentCollectorSlot()) {
  CurrentCollectorSlot() = this;
}

SpanCollector::~SpanCollector() { CurrentCollectorSlot() = previous_; }

SpanCollector* SpanCollector::Current() { return CurrentCollectorSlot(); }

int SpanCollector::OnSpanStart(const char* op, int64_t start_nanos) {
  const int index = static_cast<int>(spans_.size());
  CollectedSpan span;
  span.op = op;
  span.parent = open_;
  span.start_nanos = start_nanos;
  spans_.push_back(span);
  open_ = static_cast<int32_t>(index);
  return index;
}

void SpanCollector::OnSpanEnd(int index, int64_t duration_nanos,
                              int64_t primary_cells, int64_t aux_cells) {
  RPS_DCHECK(index >= 0 && index < static_cast<int>(spans_.size()));
  CollectedSpan& span = spans_[static_cast<size_t>(index)];
  span.duration_nanos = duration_nanos;
  span.primary_cells = primary_cells;
  span.aux_cells = aux_cells;
  // Spans close innermost-first, so the parent of the closing span is
  // the new innermost open one.
  if (open_ == index) open_ = span.parent;
}

}  // namespace rps::obs
