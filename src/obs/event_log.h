// Wide-event query log and slow-query log: the serving-observability
// record of what one request actually did.
//
// Aggregate metrics (obs/metrics.h) answer "how is the engine doing";
// they cannot answer "why was THIS range-sum slow". The wide-event
// log can: every query, update and checkpoint emits one structured
// record -- trace id, box volume, cells touched, pool hits/misses,
// WAL bytes, latency -- that a drainer thread streams to a JSONL file
// for offline slicing. The emission fast path is allocation-free and
// lock-free: the producer fills a fixed-size WideEvent on the stack
// and pushes it into a bounded MPSC ring (a Vyukov-style sequenced
// ring); when the ring is full the event is dropped and counted
// (`rps_event_log_dropped_total`), never blocking the serving thread.
//
// The slow-query log is the second half of the story: for requests
// over a configurable latency threshold it keeps the full span tree
// (obs/trace.h SpanCollector), so a slow range-sum can be
// attributed to a specific overlay/anchor access pattern rather than
// a number. Recent slow queries are served on the exposition server's
// /debug/slow endpoint (obs/expo_server.h).
//
// RequestScope is the one RAII that instrumented entry points (the
// serving engine's operators, DurableRps, the workload driver) create
// per request; it decides -- once, up front -- whether this request
// needs an event, a span tree, both, or (observability off, no sink,
// no threshold) nothing at all.

#ifndef RPS_OBS_EVENT_LOG_H_
#define RPS_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/gate.h"
#include "obs/trace.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace rps::obs {

class Counter;

/// Process-unique request id, shared by a request's wide event and
/// its slow-query record.
uint64_t NextTraceId();

enum class WideEventKind : uint8_t { kQuery, kUpdate, kCheckpoint };

const char* WideEventKindName(WideEventKind kind);

/// One request's structured record. Fixed-size and trivially
/// copyable so the emission path never allocates; `op` must be a
/// string literal, `method` is copied into an inline buffer.
struct WideEvent {
  static constexpr size_t kMethodCapacity = 32;

  WideEventKind kind = WideEventKind::kQuery;
  bool ok = true;
  const char* op = "";
  char method[kMethodCapacity] = {};
  uint64_t trace_id = 0;
  int64_t start_nanos = 0;  // process trace epoch (obs/trace.h)
  int64_t duration_nanos = 0;
  int64_t box_volume = 0;  // cells in the query range, if a query
  int64_t primary_cells = 0;
  int64_t aux_cells = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t wal_bytes = 0;

  void set_method(std::string_view name);
};
static_assert(std::is_trivially_copyable_v<WideEvent>);

/// One JSONL line (no trailing newline) for `event`. The field set
/// and order are a stability contract pinned by a golden test and
/// documented in docs/OBSERVABILITY.md.
std::string RenderWideEventJson(const WideEvent& event);

/// Bounded lock-free ring of WideEvents: many producers, one
/// consumer (the EventLog drainer). Capacity rounds up to a power of
/// two. TryPush never blocks and never allocates; it fails (drop)
/// when the ring is full.
class EventRing {
 public:
  explicit EventRing(int64_t capacity);
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  bool TryPush(const WideEvent& event);

  /// Single-consumer pop; false when empty.
  bool TryPop(WideEvent* out);

  int64_t capacity() const { return static_cast<int64_t>(mask_) + 1; }

 private:
  struct Slot {
    std::atomic<uint64_t> sequence{0};
    WideEvent event;
  };

  const uint64_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<uint64_t> head_{0};  // producers claim here
  alignas(64) std::atomic<uint64_t> tail_{0};  // consumer position
};

/// The wide-event pipeline: producers Emit into the ring, a
/// background drainer renders JSONL and appends to the sink file.
/// Inactive (no sink) the log costs one relaxed load per request and
/// holds no ring.
class EventLog {
 public:
  static constexpr int64_t kDefaultRingCapacity = 8192;

  explicit EventLog(int64_t ring_capacity = kDefaultRingCapacity);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  ~EventLog();

  /// The process-wide log RequestScope emits into.
  static EventLog& Global();

  /// Opens `path` for appending and starts the drainer thread.
  Status Open(const std::string& path) EXCLUDES(mutex_);

  /// Stops the drainer, drains remaining events, flushes and closes
  /// the sink. Idempotent.
  void Close() EXCLUDES(mutex_);

  /// Whether a sink is open (Emit is a no-op otherwise).
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Fast path: enqueue one event. Lock-free, allocation-free; drops
  /// (and counts) when the ring is full or the log is inactive.
  void Emit(const WideEvent& event);

  int64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  int64_t written() const { return written_.load(std::memory_order_relaxed); }

 private:
  void DrainLoop(std::FILE* file);

  const int64_t ring_capacity_;
  /// Allocated by the first Open(), so a process that never opens a
  /// sink never pays for the ring's memory, and kept until
  /// destruction. Producers reach it only after an acquire load of
  /// active_ that pairs with Open's release store.
  std::unique_ptr<EventRing> ring_;
  std::atomic<bool> active_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> emitted_{0};
  std::atomic<int64_t> dropped_{0};
  std::atomic<int64_t> written_{0};
  // Registry counters mirroring the atomics (names in
  // docs/OBSERVABILITY.md); pointers are process-lifetime stable.
  Counter* emitted_total_;
  Counter* dropped_total_;
  Counter* written_total_;
  Counter* bytes_total_;
  Mutex mutex_{"EventLog.mutex"};
  std::FILE* file_ GUARDED_BY(mutex_) = nullptr;
  std::thread drainer_ GUARDED_BY(mutex_);
};

/// One captured slow request: the wide-event summary plus the full
/// span tree.
struct SlowQueryRecord {
  uint64_t trace_id = 0;
  const char* op = "";
  std::string method;
  int64_t start_nanos = 0;
  int64_t duration_nanos = 0;
  int64_t threshold_nanos = 0;
  int64_t box_volume = 0;
  std::vector<CollectedSpan> spans;  // parent-indexed tree, root first
};

/// Bounded log of the most recent slow queries. Capturing is armed by
/// a nonzero threshold; RequestScope records into it when a request's
/// latency reaches the threshold.
class SlowQueryLog {
 public:
  static constexpr int64_t kDefaultCapacity = 64;

  explicit SlowQueryLog(int64_t capacity = kDefaultCapacity);
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// The process-wide log RequestScope records into.
  static SlowQueryLog& Global();

  /// 0 disables capture (the default).
  void set_threshold_nanos(int64_t nanos) {
    threshold_nanos_.store(nanos < 0 ? 0 : nanos,
                           std::memory_order_relaxed);
  }
  int64_t threshold_nanos() const {
    return threshold_nanos_.load(std::memory_order_relaxed);
  }

  void Record(SlowQueryRecord record) EXCLUDES(mutex_);

  /// Retained records, oldest first.
  std::vector<SlowQueryRecord> Snapshot() const EXCLUDES(mutex_);

  /// JSON array of the retained records (the /debug/slow payload).
  std::string RenderJson() const;

  int64_t total_recorded() const EXCLUDES(mutex_);
  void Clear() EXCLUDES(mutex_);

 private:
  const int64_t capacity_;
  std::atomic<int64_t> threshold_nanos_{0};
  Counter* slow_queries_total_;
  mutable Mutex mutex_{"SlowQueryLog.mutex"};
  std::deque<SlowQueryRecord> records_ GUARDED_BY(mutex_);
  int64_t total_ GUARDED_BY(mutex_) = 0;
};

/// Per-request RAII bracket created by instrumented entry points. On
/// construction it decides what this request needs: a wide event
/// (event log active), a span tree (slow-query threshold armed), or
/// nothing (both off, or RPS_OBS_OFF) -- the nothing case is two
/// relaxed loads and no further work. Fill in request facts through
/// the setters as they become known; emission happens on destruction.
class RequestScope {
 public:
  RequestScope(WideEventKind kind, const char* op, std::string_view method);
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
  ~RequestScope();

  void set_box_volume(int64_t cells) { event_.box_volume = cells; }
  void add_box_volume(int64_t cells) { event_.box_volume += cells; }
  void set_cells(int64_t primary, int64_t aux) {
    event_.primary_cells = primary;
    event_.aux_cells = aux;
  }
  void add_pool(int64_t hits, int64_t misses) {
    event_.pool_hits += hits;
    event_.pool_misses += misses;
  }
  void add_wal_bytes(int64_t bytes) { event_.wal_bytes += bytes; }
  void set_ok(bool ok) { event_.ok = ok; }

  /// Stops the request clock and returns the latency so far. The
  /// destructor reuses the last stop, so a caller that also feeds a
  /// latency histogram from it reads the clock twice per request.
  int64_t Stop() {
    duration_nanos_ = watch_.ElapsedNanos();
    return duration_nanos_;
  }

  /// 0 when the request is not being recorded.
  uint64_t trace_id() const { return event_.trace_id; }

 private:
  WideEvent event_;
  Stopwatch watch_;
  int64_t duration_nanos_ = -1;  // set by Stop()
  bool emit_ = false;     // wide event wanted
  bool collect_ = false;  // span tree wanted
  std::optional<SpanCollector> collector_;
};

}  // namespace rps::obs

#endif  // RPS_OBS_EVENT_LOG_H_
