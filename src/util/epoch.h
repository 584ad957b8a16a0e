// Epoch-based reclamation with wait-free reader pinning.
//
// The sharded OLAP engine publishes immutable versions behind a single
// atomic pointer; readers must be able to use a version without ever
// blocking a writer (or each other), and writers must know when a
// superseded version can be freed. This header provides the classic
// RCU/epoch scheme (Fraser's epochs; crossbeam's formulation):
//
//   * A global epoch counter G advances one step at a time.
//   * Each reader thread owns one cache-line-sized slot. Pinning
//     writes the observed epoch into the slot and issues one seq_cst
//     fence -- a constant-time, wait-free operation (no CAS, no loop).
//   * Writers retire objects (after unpublishing them with an atomic
//     pointer swap) onto a mutex-guarded list stamped with the epoch
//     at retirement, and periodically try to advance G. Advancing
//     requires every pinned slot to have observed the current epoch.
//   * A retired object is freed once G >= retire_epoch + 2. A reader
//     pinned at epoch e keeps G <= e + 1, so any object eligible for
//     freeing was retired at epoch <= e - 1 -- its unpublishing
//     pointer swap is ordered before the advance to e that the reader
//     observed, hence the reader cannot have loaded it.
//
// Memory-order contract with users: publish new versions with a
// seq_cst exchange (or release store) and load them with acquire
// AFTER pinning. Unpinning is a release store that the advancing
// writer's acquire scan synchronizes with, so every reader access
// happens-before the free -- the scheme is TSan-clean without any
// TSan-specific annotations.
//
// Like src/util/mutex.h, this header is a designated owner of raw
// synchronization primitives (here: std::atomic_thread_fence), which
// scripts/check_guards.py allowlists; everything else must not issue
// raw fences.

#ifndef RPS_UTIL_EPOCH_H_
#define RPS_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/check.h"
#include "util/mutex.h"

namespace rps {

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

namespace epoch_internal {
struct ThreadSlots;
}  // namespace epoch_internal

/// One reclamation domain: a global epoch, a fixed array of reader
/// slots, and a retire list. Use EpochDomain::Global() unless a test
/// needs an isolated domain.
class EpochDomain {
 public:
  /// Upper bound on threads that may pin concurrently. Slots are
  /// claimed on a thread's first pin and released at thread exit.
  static constexpr int kMaxSlots = 256;

  EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;
  /// Frees everything still on the retire list (callers must ensure
  /// no thread is pinned). The global domain is leaked and never runs
  /// this.
  ~EpochDomain();

  /// The process-wide domain (leaked, like the metric registry, so
  /// static destructors may still retire into it).
  static EpochDomain& Global();

  /// RAII pin: while alive, no object retired at or after the pinned
  /// epoch is freed. Nests freely (inner guards are no-ops). Pinning
  /// is wait-free: one relaxed load, one relaxed store, one seq_cst
  /// fence (the one locked instruction of a pin).
  class Guard {
   public:
    explicit Guard(EpochDomain& domain) : domain_(domain) {
      domain_.Pin();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { domain_.Unpin(); }

   private:
    EpochDomain& domain_;
  };

  /// Hands `object` to the domain for deferred destruction. The
  /// caller must already have unpublished it (no new readers can
  /// reach it); it is deleted once every reader that might still hold
  /// it has unpinned. Writer-side only.
  template <typename T>
  void Retire(T* object) {
    RetireRaw(object, [](void* p) { delete static_cast<T*>(p); });
  }
  void RetireRaw(void* object, void (*deleter)(void*));

  /// One reclamation step: attempt to advance the epoch, then free
  /// every retired object whose epoch has been left two steps behind.
  /// Returns the number of objects freed. Cheap when there is nothing
  /// to do; writers call this after publishing.
  int64_t Reclaim();

  /// Runs Reclaim until the retire list is empty or no progress is
  /// possible (a reader is pinned). Destructors and tests use this.
  void Drain();

  /// Current epoch (diagnostics).
  uint64_t CurrentEpoch() const {
    return global_epoch_.load(std::memory_order_relaxed);
  }
  /// Objects awaiting reclamation (diagnostics).
  int64_t RetiredCount() const;
  /// True when the calling thread currently holds a pin.
  bool PinnedByThisThread() const;

  /// One JSON object for /varz: epoch, slots in use, retire backlog.
  std::string VarzJson() const;

 private:
  friend struct epoch_internal::ThreadSlots;

  // Slot encoding: 0 = not pinned, else (epoch << 1) | 1. One cache
  // line per slot so reader pins never false-share.
  struct alignas(64) Slot {
    std::atomic<uint64_t> state{0};
    std::atomic<bool> claimed{false};
  };

  struct Retired {
    void* object;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  void Pin();
  void Unpin();
  /// Claims a free slot for the calling thread's first pin.
  Slot* ClaimSlot();
  /// Returns a slot to the free pool (thread-exit cleanup).
  static void ReleaseSlot(void* opaque_slot);
  /// Advances the global epoch if every pinned slot has observed it.
  bool TryAdvance();

  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kMaxSlots];

  mutable Mutex retire_mu_{"EpochDomain.retire_mu"};
  std::vector<Retired> retired_ GUARDED_BY(retire_mu_);

  // Registry-owned observability (stable pointers; the global domain
  // lives for the process).
  obs::Counter* retired_total_;
  obs::Counter* reclaimed_total_;
  obs::Counter* advance_total_;
  obs::Counter* advance_blocked_total_;
  obs::Gauge* retired_objects_;
  obs::Gauge* epoch_gauge_;
  // Distribution of how many epochs a retired object waited before it
  // was freed (the "epoch lag"): values are epoch counts, not nanos,
  // despite the histogram's nano-named observe method.
  obs::Histogram* reclaim_lag_epochs_;
};

}  // namespace rps

#endif  // RPS_UTIL_EPOCH_H_
