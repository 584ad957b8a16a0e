#include "util/epoch.h"

#include <unordered_set>
#include <utility>

#include "obs/metrics.h"

namespace rps {

namespace {

/// Live-domain registry: thread-exit cleanup must not touch a domain
/// that was already destroyed (a test-local domain on the stack), so
/// destruction and cleanup rendezvous here. Leaked like the metric
/// registry so late-exiting threads can still consult it.
struct DomainRegistry {
  Mutex mu{"EpochDomain.registry_mu"};
  std::unordered_set<const EpochDomain*> live GUARDED_BY(mu);
};

DomainRegistry& Registry() {
  static DomainRegistry* const registry = new DomainRegistry();
  return *registry;
}

}  // namespace

namespace epoch_internal {

/// Per-thread slot table: one (domain, slot, pin-depth) entry per
/// domain this thread has pinned. Destroyed at thread exit, releasing
/// the claimed slots of every still-live domain.
struct ThreadSlots {
  struct Entry {
    EpochDomain* domain;
    void* slot;
    int depth;
  };
  std::vector<Entry> entries;

  ~ThreadSlots() {
    DomainRegistry& registry = Registry();
    MutexLock lock(&registry.mu);
    for (const Entry& entry : entries) {
      if (registry.live.count(entry.domain) != 0) {
        EpochDomain::ReleaseSlot(entry.slot);
      }
    }
  }

  Entry& EntryFor(EpochDomain* domain) {
    for (Entry& entry : entries) {
      if (entry.domain == domain) return entry;
    }
    entries.push_back(Entry{domain, nullptr, 0});
    return entries.back();
  }
};

ThreadSlots& CurrentThreadSlots() {
  thread_local ThreadSlots slots;
  return slots;
}

}  // namespace epoch_internal

EpochDomain::EpochDomain() {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  retired_total_ = &registry.GetCounter("rps_epoch_retired_total");
  reclaimed_total_ = &registry.GetCounter("rps_epoch_reclaimed_total");
  advance_total_ = &registry.GetCounter("rps_epoch_advances_total");
  advance_blocked_total_ =
      &registry.GetCounter("rps_epoch_advance_blocked_total");
  retired_objects_ = &registry.GetGauge("rps_epoch_retired_objects");
  epoch_gauge_ = &registry.GetGauge("rps_epoch_current");
  reclaim_lag_epochs_ =
      &registry.GetHistogram("rps_epoch_reclaim_lag_epochs");
  DomainRegistry& domains = Registry();
  MutexLock lock(&domains.mu);
  domains.live.insert(this);
}

EpochDomain::~EpochDomain() {
  {
    DomainRegistry& domains = Registry();
    MutexLock lock(&domains.mu);
    domains.live.erase(this);
  }
  // No reader can be pinned any more (callers own that invariant), so
  // everything still retired is free game.
  std::vector<Retired> leftovers;
  {
    MutexLock lock(&retire_mu_);
    leftovers.swap(retired_);
  }
  for (const Retired& entry : leftovers) entry.deleter(entry.object);
  retired_objects_->Add(-static_cast<double>(leftovers.size()));
}

EpochDomain& EpochDomain::Global() {
  static EpochDomain* const domain = new EpochDomain();
  return *domain;
}

EpochDomain::Slot* EpochDomain::ClaimSlot() {
  for (Slot& slot : slots_) {
    bool expected = false;
    if (slot.claimed.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
      return &slot;
    }
  }
  RPS_CHECK_MSG(false, "EpochDomain: more than kMaxSlots threads pinning");
  return nullptr;
}

void EpochDomain::ReleaseSlot(void* opaque_slot) {
  Slot* slot = static_cast<Slot*>(opaque_slot);
  slot->state.store(0, std::memory_order_release);
  slot->claimed.store(false, std::memory_order_release);
}

void EpochDomain::Pin() {
  epoch_internal::ThreadSlots::Entry& entry =
      epoch_internal::CurrentThreadSlots().EntryFor(this);
  if (entry.depth++ > 0) return;  // nested pin: outer one holds
  if (entry.slot == nullptr) entry.slot = ClaimSlot();
  Slot* slot = static_cast<Slot*>(entry.slot);
  const uint64_t epoch = global_epoch_.load(std::memory_order_relaxed);
  // The store may be relaxed: the fence orders it before any
  // version-pointer load the pinned section performs. It pairs with
  // the fence in TryAdvance: if this fence comes first, the advancing
  // scan sees the slot; otherwise this section's loads see the
  // writer's unpublishing swap.
  slot->state.store((epoch << 1) | 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void EpochDomain::Unpin() {
  epoch_internal::ThreadSlots::Entry& entry =
      epoch_internal::CurrentThreadSlots().EntryFor(this);
  RPS_DCHECK(entry.depth > 0);
  if (--entry.depth > 0) return;
  // Release store: the advancing writer's acquire scan synchronizes
  // with this, ordering every read in the pinned section before any
  // later free.
  static_cast<Slot*>(entry.slot)->state.store(0, std::memory_order_release);
}

bool EpochDomain::PinnedByThisThread() const {
  for (const epoch_internal::ThreadSlots::Entry& entry :
       epoch_internal::CurrentThreadSlots().entries) {
    if (entry.domain == this) return entry.depth > 0;
  }
  return false;
}

bool EpochDomain::TryAdvance() {
  const uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
  // Order the scan after the caller's unpublishing pointer swap and
  // after any in-flight pin's slot store; pairs with the fence in Pin.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (const Slot& slot : slots_) {
    const uint64_t state = slot.state.load(std::memory_order_acquire);
    if ((state & 1) != 0 && (state >> 1) != epoch) {
      advance_blocked_total_->Increment();
      return false;  // a reader has not observed the current epoch yet
    }
  }
  uint64_t expected = epoch;
  if (global_epoch_.compare_exchange_strong(expected, epoch + 1,
                                            std::memory_order_seq_cst)) {
    advance_total_->Increment();
    epoch_gauge_->Set(static_cast<double>(epoch + 1));
    return true;
  }
  return false;  // another writer advanced first; that still counts
}

void EpochDomain::RetireRaw(void* object, void (*deleter)(void*)) {
  const uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
  {
    MutexLock lock(&retire_mu_);
    retired_.push_back(Retired{object, deleter, epoch});
  }
  retired_total_->Increment();
  retired_objects_->Add(1);
}

int64_t EpochDomain::Reclaim() {
  TryAdvance();
  const uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
  std::vector<Retired> to_free;
  {
    MutexLock lock(&retire_mu_);
    size_t kept = 0;
    for (Retired& entry : retired_) {
      if (entry.epoch + 2 <= epoch) {
        to_free.push_back(entry);
      } else {
        retired_[kept++] = entry;
      }
    }
    retired_.resize(kept);
  }
  // Destructors run outside the lock: they may be arbitrarily heavy
  // (a retired version drops whole cube structures).
  for (const Retired& entry : to_free) {
    reclaim_lag_epochs_->ObserveNanos(
        static_cast<int64_t>(epoch - entry.epoch));
    entry.deleter(entry.object);
  }
  const int64_t freed = static_cast<int64_t>(to_free.size());
  if (freed > 0) {
    reclaimed_total_->Increment(freed);
    retired_objects_->Add(-static_cast<double>(freed));
  }
  return freed;
}

void EpochDomain::Drain() {
  // Two advances make any retired entry eligible; keep stepping while
  // progress is possible so a drain after the last unpin frees
  // everything.
  for (int attempt = 0; attempt < 4; ++attempt) {
    Reclaim();
    if (RetiredCount() == 0) return;
  }
}

int64_t EpochDomain::RetiredCount() const {
  MutexLock lock(&retire_mu_);
  return static_cast<int64_t>(retired_.size());
}

std::string EpochDomain::VarzJson() const {
  int claimed = 0;
  int pinned = 0;
  for (const Slot& slot : slots_) {
    if (slot.claimed.load(std::memory_order_acquire)) ++claimed;
    if ((slot.state.load(std::memory_order_acquire) & 1) != 0) ++pinned;
  }
  std::string out = "{\"epoch\":";
  out += std::to_string(CurrentEpoch());
  out += ",\"slots_claimed\":";
  out += std::to_string(claimed);
  out += ",\"slots_pinned\":";
  out += std::to_string(pinned);
  out += ",\"retired_objects\":";
  out += std::to_string(RetiredCount());
  out += '}';
  return out;
}

}  // namespace rps
