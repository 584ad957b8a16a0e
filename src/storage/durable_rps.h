// Durable relative prefix sums: a RelativePrefixSum<T> in memory, kept
// durable by a GenerationStore (storage/generation_store.h).
//
// The store's image is the structure's snapshot (core/snapshot.h):
//   CURRENT          -- live generation N and the snapshot geometry
//   snapshot-N.bin   -- CRC-checked structure snapshot
//   wal-N.log        -- {cell, delta} records logged since snapshot N
// Every Add is durable in the log before it mutates memory, so a crash
// loses at most a torn tail; Open restores snapshot N and replays its
// log(s). Checkpoint writes the next generation beside the live one
// and commits it atomically. This is the durability story for the
// paper's "near-current" cubes: cheap updates AND cheap recovery.
//
// The handle is safe for concurrent Add and queries in both modes
// (DurableOptions): per-record pays one barrier per Add, group commit
// one per batch of concurrent writers. A checkpoint quiesces writers
// only while the log rotates and the structure is cloned; the snapshot
// write runs with Adds flowing into the rotated log.

#ifndef RPS_STORAGE_DURABLE_RPS_H_
#define RPS_STORAGE_DURABLE_RPS_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/snapshot.h"
#include "obs/event_log.h"
#include "storage/generation_store.h"
#include "util/crc32.h"
#include "util/mutex.h"

namespace rps {

template <typename T>
class DurableRps {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  DurableRps(DurableRps&&) noexcept = default;
  DurableRps& operator=(DurableRps&&) noexcept = default;
  DurableRps(const DurableRps&) = delete;
  DurableRps& operator=(const DurableRps&) = delete;

  /// Creates a fresh durable structure in `directory` (which must
  /// exist): builds from `source` and commits it as generation 1.
  static Result<DurableRps> Create(const NdArray<T>& source,
                                   const CellIndex& box_size,
                                   const std::string& directory,
                                   const DurableOptions& options = {}) {
    DurableRps durable;
    durable.rps_ = std::make_unique<RelativePrefixSum<T>>(source, box_size);
    RPS_ASSIGN_OR_RETURN(
        durable.store_,
        GenerationStore::Create(
            directory, LogGeometry{source.shape().dims(), sizeof(T)},
            Fingerprint(*durable.rps_),
            [&](const std::string& path) {
              return SaveSnapshot(*durable.rps_, path, {.durable = true});
            },
            options));
    return durable;
  }

  /// Restores from `directory`: the live snapshot plus every log the
  /// store replays (see storage/generation_store.h). `replayed`
  /// (optional out) reports the records applied across all logs and
  /// whether a torn tail was discarded.
  static Result<DurableRps> Open(const std::string& directory,
                                 WalReplay* replayed = nullptr,
                                 const DurableOptions& options = {}) {
    DurableRps durable;
    GenerationStore::Recovery recovery;
    recovery.load_image = [&](const std::string& path,
                              uint32_t fingerprint) -> Status {
      RPS_ASSIGN_OR_RETURN(RelativePrefixSum<T> rps, LoadSnapshot<T>(path));
      if (Fingerprint(rps) != fingerprint) {
        return Status::IoError("snapshot geometry " +
                               std::to_string(Fingerprint(rps)) +
                               " does not match the manifest's " +
                               std::to_string(fingerprint) + ": " + path);
      }
      durable.rps_ = std::make_unique<RelativePrefixSum<T>>(std::move(rps));
      return Status::Ok();
    };
    recovery.apply_record = [&](const WalRecord& record) -> Status {
      if (!durable.rps_->shape().Contains(record.cell)) {
        return Status::IoError("WAL record outside cube");
      }
      T delta;
      std::memcpy(&delta, record.payload.data(), sizeof(T));
      durable.rps_->Add(record.cell, delta);
      return Status::Ok();
    };
    recovery.freeze_image = [&] { return durable.FreezeImage(); };
    RPS_ASSIGN_OR_RETURN(
        durable.store_,
        GenerationStore::Open(directory, recovery, options, replayed));
    return durable;
  }

  const Shape& shape() const { return rps_->shape(); }
  const RelativePrefixSum<T>& structure() const { return *rps_; }

  /// Logged point update: durable in the log first (retrying transient
  /// failures), then applied to the in-memory structure. Safe from any
  /// thread.
  Result<UpdateStats> Add(const CellIndex& cell, T delta) {
    obs::RequestScope request(obs::WideEventKind::kUpdate, "durable.add",
                              "relative_prefix_sum");
    UpdateStats stats;
    const WalAppend record{&cell, &delta};
    const Status appended = store_->Append(&record, 1, [&] {
      WriterLock lock(&sync_->structure_mu);
      stats = rps_->Add(cell, delta);
    });
    if (!appended.ok()) {
      request.set_ok(false);
      return appended;
    }
    request.add_wal_bytes(store_->record_size());
    request.set_cells(stats.primary_cells, stats.aux_cells);
    return stats;
  }

  T RangeSum(const Box& range) const {
    ReaderLock lock(&sync_->structure_mu);
    return rps_->RangeSum(range);
  }
  T PrefixSum(const CellIndex& target) const {
    ReaderLock lock(&sync_->structure_mu);
    return rps_->PrefixSum(target);
  }
  T ValueAt(const CellIndex& cell) const {
    ReaderLock lock(&sync_->structure_mu);
    return rps_->ValueAt(cell);
  }

  /// Records logged since the last rotation.
  int64_t wal_records() const { return store_->wal_records(); }
  /// Live (manifest-committed) generation number.
  int64_t generation() const { return store_->generation(); }
  /// Generation of the log currently receiving appends. Runs ahead of
  /// generation() while a checkpoint is in flight.
  int64_t wal_generation() const { return store_->wal_generation(); }
  /// True while a checkpoint is writing its snapshot.
  bool checkpoint_in_flight() const { return store_->checkpoint_in_flight(); }
  bool group_commit() const { return store_->group_commit(); }

  /// On-disk paths of the live generation (tests peek at these).
  std::string snapshot_path() const {
    return store_->ImagePath(store_->generation());
  }
  std::string wal_path() const {
    return store_->WalPath(store_->wal_generation());
  }
  const std::string& directory() const { return store_->directory(); }

  /// Retry policy for transient WAL/checkpoint I/O failures.
  void set_retry_policy(const RetryPolicy& policy) {
    store_->set_retry_policy(policy);
  }

  /// Test hook: runs after a checkpoint rotated the log and cloned the
  /// structure (writers already released) and before the snapshot
  /// write, so tests can pin "Checkpoint does not block Add".
  void set_checkpoint_write_hook(std::function<void()> hook) {
    store_->set_checkpoint_write_hook(std::move(hook));
  }

  /// Persists the current state as the next generation and commits it
  /// atomically; the previous generation's files are then removed.
  /// Writers stall only for the rotation and the clone. If this fails,
  /// the live generation is unchanged and the handle remains usable
  /// (when the failure was not a crash).
  Status Checkpoint() {
    obs::RequestScope request(obs::WideEventKind::kCheckpoint,
                              "durable.checkpoint", "relative_prefix_sum");
    request.add_wal_bytes(store_->wal_bytes());
    const Status status = store_->Checkpoint([this] { return FreezeImage(); });
    request.set_ok(status.ok());
    return status;
  }

  /// Health-source payload for the exposition server: the store's
  /// durable health block.
  std::string HealthJson() const { return store_->HealthJson(); }

 private:
  /// Heap-allocated so the handle stays movable.
  struct SyncState {
    /// Writers exclusive for the in-place mutation of *rps_, readers
    /// shared for queries and the checkpoint clone.
    mutable SharedMutex structure_mu{"DurableRps.structure"};  // check_guards: standalone
  };

  DurableRps() : sync_(std::make_unique<SyncState>()) {}

  /// CRC-32 of the snapshot geometry: value size, extents, box size.
  static uint32_t Fingerprint(const RelativePrefixSum<T>& rps) {
    Crc32 crc;
    const uint32_t value_size = sizeof(T);
    crc.Update(&value_size, sizeof(value_size));
    for (int j = 0; j < rps.shape().dims(); ++j) {
      const int64_t extent = rps.shape().extent(j);
      const int64_t box = rps.geometry().box_size()[j];
      crc.Update(&extent, sizeof(extent));
      crc.Update(&box, sizeof(box));
    }
    return crc.value();
  }

  /// Clones the structure (writers are quiesced) into the writer of
  /// its snapshot.
  GenerationStore::ImageWriter FreezeImage() const {
    std::shared_ptr<const RelativePrefixSum<T>> frozen;
    {
      ReaderLock lock(&sync_->structure_mu);
      frozen = std::make_shared<const RelativePrefixSum<T>>(*rps_);
    }
    return [frozen](const std::string& path) {
      return SaveSnapshot(*frozen, path, {.durable = true});
    };
  }

  std::unique_ptr<SyncState> sync_;
  std::unique_ptr<RelativePrefixSum<T>> rps_;
  std::unique_ptr<GenerationStore> store_;
};

}  // namespace rps

#endif  // RPS_STORAGE_DURABLE_RPS_H_
