// Process-wide metrics: per-thread counters, gauges and log-bucketed
// latency histograms behind a MetricRegistry with Prometheus-style
// text and JSON exposition.
//
// The paper's claims are cost trade-offs (O(1) queries vs O(n^(d/2))
// updates), so the repo needs one uniform way to observe them. Every
// subsystem registers metrics by name (convention:
// `rps_<subsystem>_<name>`). Counters and histograms keep one
// cache-line cell per writing thread (PerThreadCells): a thread adds
// to its own cell with a relaxed load and store, so concurrent
// writers share no cache line and issue no locked instruction. Reads
// sum the cells; a read is exact when no thread is writing, and a
// snapshot otherwise -- the usual trade of exactness for a
// zero-coordination hot path.
//
// Usage:
//   static obs::Counter& hits =
//       obs::MetricRegistry::Global().GetCounter("rps_bufferpool_hits");
//   hits.Increment();
//
// Registration takes a mutex once; the returned reference is stable
// for the registry's lifetime, so instrumented code caches it in a
// function-local static (or a member) and pays one store to its own
// cell per event thereafter.

#ifndef RPS_OBS_METRICS_H_
#define RPS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace rps::obs {

namespace cells_internal {

/// Cells per PerThreadCells object, not counting the shared overflow
/// cell. A thread claims one on its first write and keeps it until it
/// exits; threads beyond this many live writers share the overflow.
inline constexpr int kCells = 32;

/// The calling thread's cell index: -1 before its first write, then
/// its claimed cell, or kCells (the overflow cell) when every cell was
/// taken or the thread is exiting.
inline constinit thread_local int t_cell = -1;

/// Claims a free cell for the calling thread (kCells when none is
/// free), records it in t_cell, and arranges its release at thread
/// exit. The first write of each thread takes this path.
int ClaimCell();

}  // namespace cells_internal

/// kCounts int64 counts kept per thread. Each writing thread owns one
/// cache-line-aligned cell and adds to it with a relaxed load and
/// store, so writers never contend and run no locked instruction; a
/// thread that found every cell taken adds to the shared overflow
/// cell with fetch_add. Cells are claimed on a thread's first write,
/// the same way EpochDomain slots are, and released at thread exit; a
/// released cell keeps its counts, which its next owner adds to.
/// Sum() folds every cell, so it is exact whenever no thread is
/// writing. Copies carry the totals (folded into the copy's overflow
/// cell), which is what per-instance accounting inside copyable
/// structures needs.
template <int kCounts>
class PerThreadCells {
 public:
  PerThreadCells() = default;
  PerThreadCells(const PerThreadCells& other) { CarryFrom(other); }
  PerThreadCells& operator=(const PerThreadCells& other) {
    if (this != &other) {
      Reset();
      CarryFrom(other);
    }
    return *this;
  }

  /// Adds `n` to count `k` in the calling thread's cell. Always
  /// inlined: it is a few instructions on every instrumented path.
  [[gnu::always_inline]] void Add(int k, int64_t n) {
    int cell = cells_internal::t_cell;
    if (cell < 0) cell = cells_internal::ClaimCell();
    std::atomic<uint64_t>& count = cells_[cell].counts[k];
    if (cell == kOverflow) {
      count.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    } else {
      count.store(count.load(std::memory_order_relaxed) +
                      static_cast<uint64_t>(n),
                  std::memory_order_relaxed);
    }
  }

  /// Count `k` summed over every cell.
  int64_t Sum(int k) const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.counts[k].load(std::memory_order_relaxed);
    }
    return static_cast<int64_t>(total);
  }

  /// Every count summed over every cell, in one pass.
  void SumAll(int64_t (&totals)[kCounts]) const {
    uint64_t sums[kCounts] = {};
    for (const Cell& cell : cells_) {
      for (int k = 0; k < kCounts; ++k) {
        sums[k] += cell.counts[k].load(std::memory_order_relaxed);
      }
    }
    for (int k = 0; k < kCounts; ++k) {
      totals[k] = static_cast<int64_t>(sums[k]);
    }
  }

  /// Zeroes every cell. Exact only when no thread is writing: a
  /// concurrent owner's store may land a pre-reset value.
  void Reset() {
    for (Cell& cell : cells_) {
      for (std::atomic<uint64_t>& count : cell.counts) {
        count.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  static constexpr int kOverflow = cells_internal::kCells;

  // Counts wrap modulo 2^64, as an atomic fetch_add does; unsigned
  // arithmetic keeps the wrap defined when cells are added up.
  struct alignas(64) Cell {
    std::atomic<uint64_t> counts[kCounts] = {};
  };

  void CarryFrom(const PerThreadCells& other) {
    int64_t totals[kCounts];
    other.SumAll(totals);
    for (int k = 0; k < kCounts; ++k) {
      cells_[kOverflow].counts[k].store(static_cast<uint64_t>(totals[k]),
                                        std::memory_order_relaxed);
    }
  }

  Cell cells_[cells_internal::kCells + 1];
};

/// Monotonic counter. Registry-owned; obtain via
/// MetricRegistry::GetCounter.
class Counter {
 public:
  void Increment(int64_t n = 1) { value_.Add(0, n); }
  int64_t Value() const { return value_.Sum(0); }
  void Reset() { value_.Reset(); }

 private:
  PerThreadCells<1> value_;
};

/// Last-write-wins double gauge (Add via CAS for concurrent
/// adjusters).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency histogram over power-of-two nanosecond buckets: bucket i
/// holds observations in (2^(i-1), 2^i] ns for i in
/// [0, kNumFiniteBuckets), plus one overflow bucket. 2^34 ns is
/// ~17 s, beyond any per-operation latency this repo measures.
/// An observation adds to its bucket and to the running sum in the
/// calling thread's cell (PerThreadCells), so concurrent Observe calls
/// never coordinate. The count is the sum of the buckets, so a read
/// always agrees with its own buckets; reads are exact in quiescence.
class Histogram {
 public:
  static constexpr int kNumFiniteBuckets = 35;
  static constexpr int kNumBuckets = kNumFiniteBuckets + 1;

  /// Upper bound of finite bucket `i`, in nanoseconds (2^i).
  static int64_t BucketBoundNanos(int i) { return int64_t{1} << i; }

  /// Index of the bucket recording `nanos` (negative values clamp to
  /// the first bucket).
  static int BucketIndex(int64_t nanos);

  void ObserveNanos(int64_t nanos);
  void Observe(double seconds) {
    ObserveNanos(static_cast<int64_t>(seconds * 1e9));
  }
  /// Records `count` observations of `nanos` each with two adds total
  /// -- for batch-processing callers that amortized one measurement
  /// over many operations.
  void ObserveNanosBatch(int64_t nanos, int64_t count);

  int64_t Count() const;
  double SumSeconds() const {
    return static_cast<double>(cells_.Sum(kSumNanos)) * 1e-9;
  }
  int64_t BucketCount(int i) const { return cells_.Sum(i); }

  /// Quantile estimate for `q` in [0, 1], in seconds: finds the
  /// bucket holding the rank-ceil(q*count) observation and
  /// interpolates linearly inside it. 0 when empty; observations in
  /// the overflow bucket report its lower bound.
  double Percentile(double q) const;

  void Reset() { cells_.Reset(); }

 private:
  // Counts [0, kNumBuckets) are the buckets; the last is the sum of
  // the observed nanoseconds (saturating enough: ~292 years).
  static constexpr int kSumNanos = kNumBuckets;

  PerThreadCells<kNumBuckets + 1> cells_;
};

/// Metric labels in Prometheus's key/value form. Order is preserved
/// verbatim in keys and output, so callers must pass a consistent
/// order for the same metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Owns every metric. Get* registers on first use (under a mutex) and
/// returns a reference that stays valid for the registry's lifetime;
/// repeated calls with the same name+labels return the same object.
/// A name must keep one kind: requesting an existing metric as a
/// different kind aborts.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry all built-in instrumentation uses.
  static MetricRegistry& Global();

  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  Histogram& GetHistogram(const std::string& name, const Labels& labels = {});

  /// Attaches Prometheus help text to a metric family. RenderText
  /// emits it as a `# HELP` line before the family's `# TYPE`; call
  /// it where the family is registered, once, to document semantics
  /// that drifted from what the name alone implies (e.g.
  /// rps_wal_fsync_seconds measuring one barrier per *group* under
  /// group commit). Families without help render exactly as before.
  void SetHelp(const std::string& name, const std::string& help);

  /// Prometheus text exposition: `# TYPE` per family, one line per
  /// sample, families and label sets in lexicographic key order
  /// (deterministic for golden tests).
  std::string RenderText() const;

  /// JSON exposition: {"counters": [...], "gauges": [...],
  /// "histograms": [...]}, each entry carrying name, labels and
  /// values; histograms include count, sum_seconds, p50/p95/p99 and
  /// the non-empty buckets. Same deterministic ordering as
  /// RenderText.
  std::string RenderJson() const;

  /// Zeroes every metric's value (registrations stay). For tests and
  /// tools that scope a measurement to one run.
  void ResetAll();

  int64_t num_metrics() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& GetEntry(Kind kind, const std::string& name, const Labels& labels);

  mutable Mutex mutex_{"MetricRegistry.mutex"};
  // Keyed by `name{labels}` so families sort together for rendering.
  std::map<std::string, Entry> entries_ GUARDED_BY(mutex_);
  // Family name -> help text (families without an entry have none).
  std::map<std::string, std::string> help_ GUARDED_BY(mutex_);
};

}  // namespace rps::obs

#endif  // RPS_OBS_METRICS_H_
