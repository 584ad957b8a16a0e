// Reusable worker pool with a blocking ParallelFor primitive.
//
// The core structures are CPU-bound array transforms (box-local
// prefix scans, overlay box fills, face-cube aggregation) whose work
// items are embarrassingly independent, so one process-wide pool is
// shared by every builder instead of spawning threads per call. Key
// properties:
//
//   * ParallelFor partitions [begin, end) into grain-sized chunks
//     that helpers claim dynamically; the calling thread always
//     participates, so progress never depends on a worker being
//     free (a pool of zero workers degrades to a serial loop).
//   * Nested ParallelFor calls from inside a pool task run inline on
//     the calling worker. Workers therefore never block on the pool,
//     which makes composed parallel builds (e.g. HierarchicalRps
//     faces, each building an inner RelativePrefixSum) deadlock-free
//     by construction.
//   * Chunks are disjoint and every output cell is written by exactly
//     one chunk, so parallel results are bit-identical to serial ones
//     for any value type.
//
// Pool sizing: ThreadPool::Global() reads the RPS_THREADS environment
// variable once (0/unset = hardware concurrency, 1 = no workers,
// everything inline). Observability: submissions, queue depth and
// per-task busy time are exported through obs::MetricRegistry as
// rps_pool_tasks_total, rps_pool_queue_depth, rps_pool_task_seconds
// and rps_pool_threads. The gauge counts usable threads (workers plus
// the caller, which claims ParallelFor chunks itself), and ParallelFor
// meters its serial fast path and the caller's chunk share as tasks,
// so the metrics stay meaningful even with zero workers.

#ifndef RPS_UTIL_THREAD_POOL_H_
#define RPS_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace rps {

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

class ThreadPool {
 public:
  /// A pool with `num_threads` workers (>= 0; 0 means every task and
  /// ParallelFor chunk runs inline on the calling thread).
  explicit ThreadPool(int num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one fire-and-forget task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Calls `body(lo, hi)` over disjoint chunks covering [begin, end),
  /// each at most `grain` long, and returns when all chunks ran. The
  /// calling thread participates; helpers are enlisted only when the
  /// range spans more than one chunk. Chunk boundaries depend only on
  /// (begin, end, grain), never on thread count, so any writes the
  /// body makes to chunk-owned data are deterministic.
  ///
  /// Reentrancy: when called from inside a pool task (or a nested
  /// ParallelFor), runs body(begin, end) inline.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

  /// The process-wide pool, sized by RPS_THREADS at first use.
  static ThreadPool& Global();

  /// Worker count Global() uses: RPS_THREADS when set and valid
  /// (clamped to [1, 256]; N threads means N-1 pool workers since the
  /// caller participates), else std::thread::hardware_concurrency().
  static int DefaultThreads();

 private:
  void WorkerLoop();
  /// Pops and runs one queued task if any; returns false when the
  /// queue was empty.
  bool RunOnePendingTask();

  Mutex mutex_{"ThreadPool.mutex"};
  CondVar work_available_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool shutting_down_ GUARDED_BY(mutex_) = false;
  // Written only by the constructor, joined by the destructor; never
  // mutated while workers run, so it needs no guard.
  std::vector<std::thread> workers_;

  // Registry-owned metrics (stable pointers for the pool's lifetime).
  obs::Counter* tasks_total_;
  obs::Gauge* queue_depth_;
  obs::Histogram* task_seconds_;
};

}  // namespace rps

#endif  // RPS_UTIL_THREAD_POOL_H_
