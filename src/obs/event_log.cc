#include "obs/event_log.h"

#include <bit>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"

namespace rps::obs {
namespace {

/// Drainer idle nap. Long enough that an idle log costs nothing
/// measurable, short enough that `tail -f` on the sink feels live.
constexpr std::chrono::milliseconds kDrainIdleSleep{1};

void AppendField(std::string& out, const char* key, int64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

const char* WideEventKindName(WideEventKind kind) {
  switch (kind) {
    case WideEventKind::kQuery:
      return "query";
    case WideEventKind::kUpdate:
      return "update";
    case WideEventKind::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

void WideEvent::set_method(std::string_view name) {
  const size_t n = name.size() < kMethodCapacity - 1 ? name.size()
                                                     : kMethodCapacity - 1;
  std::memcpy(method, name.data(), n);
  method[n] = '\0';
}

std::string RenderWideEventJson(const WideEvent& event) {
  std::string out;
  out.reserve(256);
  out += "{\"kind\":\"";
  out += WideEventKindName(event.kind);
  out += "\",\"op\":\"";
  out += event.op;
  out += "\",\"method\":\"";
  out += event.method;
  out += "\",\"trace_id\":";
  out += std::to_string(event.trace_id);
  AppendField(out, "start_nanos", event.start_nanos);
  AppendField(out, "duration_nanos", event.duration_nanos);
  AppendField(out, "box_volume", event.box_volume);
  AppendField(out, "primary_cells", event.primary_cells);
  AppendField(out, "aux_cells", event.aux_cells);
  AppendField(out, "pool_hits", event.pool_hits);
  AppendField(out, "pool_misses", event.pool_misses);
  AppendField(out, "wal_bytes", event.wal_bytes);
  out += ",\"ok\":";
  out += event.ok ? "true" : "false";
  out += '}';
  return out;
}

EventRing::EventRing(int64_t capacity)
    : mask_(std::bit_ceil(static_cast<uint64_t>(capacity < 2 ? 2 : capacity)) -
            1),
      slots_(new Slot[mask_ + 1]) {
  for (uint64_t i = 0; i <= mask_; ++i) {
    slots_[i].sequence.store(i, std::memory_order_relaxed);
  }
}

bool EventRing::TryPush(const WideEvent& event) {
  uint64_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[pos & mask_];
    const uint64_t sequence = slot.sequence.load(std::memory_order_acquire);
    const int64_t diff =
        static_cast<int64_t>(sequence) - static_cast<int64_t>(pos);
    if (diff == 0) {
      // Slot is free for this position; claim it against other
      // producers.
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        slot.event = event;
        slot.sequence.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS refreshed `pos`; retry with the new position.
    } else if (diff < 0) {
      return false;  // the consumer has not freed this slot: full
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
}

bool EventRing::TryPop(WideEvent* out) {
  const uint64_t pos = tail_.load(std::memory_order_relaxed);
  Slot& slot = slots_[pos & mask_];
  const uint64_t sequence = slot.sequence.load(std::memory_order_acquire);
  const int64_t diff =
      static_cast<int64_t>(sequence) - static_cast<int64_t>(pos + 1);
  if (diff < 0) return false;  // producer has not published: empty
  *out = slot.event;
  // Free the slot for the producer one lap ahead. Single consumer, so
  // a plain advance of tail_ suffices.
  slot.sequence.store(pos + mask_ + 1, std::memory_order_release);
  tail_.store(pos + 1, std::memory_order_relaxed);
  return true;
}

EventLog::EventLog(int64_t ring_capacity) : ring_capacity_(ring_capacity) {
  MetricRegistry& registry = MetricRegistry::Global();
  emitted_total_ = &registry.GetCounter("rps_event_log_emitted_total");
  dropped_total_ = &registry.GetCounter("rps_event_log_dropped_total");
  written_total_ = &registry.GetCounter("rps_event_log_written_total");
  bytes_total_ = &registry.GetCounter("rps_event_log_bytes_total");
}

EventLog::~EventLog() { Close(); }

EventLog& EventLog::Global() {
  static EventLog* const log = new EventLog();
  return *log;
}

Status EventLog::Open(const std::string& path) {
  MutexLock lock(&mutex_);
  if (file_ != nullptr) {
    return Status::FailedPrecondition("event log already open");
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open event log " + path);
  }
  file_ = file;
  if (ring_ == nullptr) ring_ = std::make_unique<EventRing>(ring_capacity_);
  stop_.store(false, std::memory_order_relaxed);
  drainer_ = std::thread([this, file] { DrainLoop(file); });
  active_.store(true, std::memory_order_release);
  return Status::Ok();
}

void EventLog::Close() {
  MutexLock lock(&mutex_);
  if (file_ == nullptr) return;
  active_.store(false, std::memory_order_relaxed);
  stop_.store(true, std::memory_order_relaxed);
  if (drainer_.joinable()) drainer_.join();
  std::fclose(file_);
  file_ = nullptr;
}

void EventLog::Emit(const WideEvent& event) {
  if (!active_.load(std::memory_order_acquire)) return;
  if (ring_->TryPush(event)) {
    emitted_.fetch_add(1, std::memory_order_relaxed);
    emitted_total_->Increment();
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_total_->Increment();
  }
}

void EventLog::DrainLoop(std::FILE* file) {
  WideEvent event;
  std::string line;
  bool dirty = false;
  // Drain until stopped, then once more: events emitted before Close
  // flipped `stop_` are still in the ring and must reach the file.
  for (bool last_pass = false;;) {
    bool wrote = false;
    while (ring_->TryPop(&event)) {
      line = RenderWideEventJson(event);
      line += '\n';
      if (std::fwrite(line.data(), 1, line.size(), file) == line.size()) {
        written_.fetch_add(1, std::memory_order_relaxed);
        written_total_->Increment();
        bytes_total_->Increment(static_cast<int64_t>(line.size()));
      }
      wrote = true;
      dirty = true;
    }
    if (dirty && !wrote) {
      std::fflush(file);  // flush on the idle edge, not per record
      dirty = false;
    }
    if (last_pass) break;
    if (stop_.load(std::memory_order_relaxed)) {
      last_pass = true;
      continue;
    }
    if (!wrote) std::this_thread::sleep_for(kDrainIdleSleep);
  }
  std::fflush(file);
}

SlowQueryLog::SlowQueryLog(int64_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity),
      slow_queries_total_(
          &MetricRegistry::Global().GetCounter("rps_slow_queries_total")) {}

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* const log = new SlowQueryLog();
  return *log;
}

void SlowQueryLog::Record(SlowQueryRecord record) {
  slow_queries_total_->Increment();
  MutexLock lock(&mutex_);
  records_.push_back(std::move(record));
  if (static_cast<int64_t>(records_.size()) > capacity_) {
    records_.pop_front();
  }
  ++total_;
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  MutexLock lock(&mutex_);
  return {records_.begin(), records_.end()};
}

std::string SlowQueryLog::RenderJson() const {
  const std::vector<SlowQueryRecord> records = Snapshot();
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const SlowQueryRecord& record = records[i];
    if (i > 0) out += ',';
    out += "{\"trace_id\":";
    out += std::to_string(record.trace_id);
    out += ",\"op\":\"";
    out += record.op;
    out += "\",\"method\":\"";
    out += record.method;
    out += '"';
    AppendField(out, "start_nanos", record.start_nanos);
    AppendField(out, "duration_nanos", record.duration_nanos);
    AppendField(out, "threshold_nanos", record.threshold_nanos);
    AppendField(out, "box_volume", record.box_volume);
    out += ",\"spans\":[";
    for (size_t s = 0; s < record.spans.size(); ++s) {
      const CollectedSpan& span = record.spans[s];
      if (s > 0) out += ',';
      out += "{\"op\":\"";
      out += span.op;
      out += "\",\"parent\":";
      out += std::to_string(span.parent);
      AppendField(out, "start_nanos", span.start_nanos);
      AppendField(out, "duration_nanos", span.duration_nanos);
      AppendField(out, "primary_cells", span.primary_cells);
      AppendField(out, "aux_cells", span.aux_cells);
      out += '}';
    }
    out += "]}";
  }
  out += ']';
  return out;
}

int64_t SlowQueryLog::total_recorded() const {
  MutexLock lock(&mutex_);
  return total_;
}

void SlowQueryLog::Clear() {
  MutexLock lock(&mutex_);
  records_.clear();
  total_ = 0;
}

RequestScope::RequestScope(WideEventKind kind, const char* op,
                           std::string_view method) {
  if (!Enabled()) return;
  emit_ = EventLog::Global().active();
  collect_ = SlowQueryLog::Global().threshold_nanos() > 0;
  if (!emit_ && !collect_) return;
  event_.kind = kind;
  event_.op = op;
  event_.set_method(method);
  event_.trace_id = NextTraceId();
  event_.start_nanos = TraceNowNanos();
  if (collect_) collector_.emplace();
}

RequestScope::~RequestScope() {
  if (!emit_ && !collect_) return;
  event_.duration_nanos =
      duration_nanos_ >= 0 ? duration_nanos_ : watch_.ElapsedNanos();
  if (collect_) {
    const int64_t threshold = SlowQueryLog::Global().threshold_nanos();
    if (threshold > 0 && event_.duration_nanos >= threshold) {
      SlowQueryRecord record;
      record.trace_id = event_.trace_id;
      record.op = event_.op;
      record.method = event_.method;
      record.start_nanos = event_.start_nanos;
      record.duration_nanos = event_.duration_nanos;
      record.threshold_nanos = threshold;
      record.box_volume = event_.box_volume;
      record.spans = collector_->TakeSpans();
      SlowQueryLog::Global().Record(std::move(record));
    }
  }
  if (emit_) EventLog::Global().Emit(event_);
}

}  // namespace rps::obs
