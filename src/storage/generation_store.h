// One durability pipeline for a structure that lives in memory.
//
// A store owns a directory of numbered generations committed through
// a manifest:
//   CURRENT          -- the live generation N, the client's geometry
//                       fingerprint and the log's record geometry
//   snapshot-N.bin   -- the client's image of its state at checkpoint N
//   wal-N.log        -- records logged since image N
// A crash at any instant leaves CURRENT naming a generation whose
// image and logs are intact and mutually consistent.
//
// Everything that makes that true lives here, once, for every client:
//
//   * One append path, a GroupCommitWal. Group commit coalesces
//     concurrent writers into one barrier per group; per-record mode
//     is the same path with groups of one record, so one barrier per
//     record. Append blocks until its records are durable, then runs
//     the client's memory update.
//   * The apply gate. An append holds it from enqueue to the end of the
//     memory update, and rotation drains it, so "durable in the
//     pre-rotation log" implies "in the frozen image".
//   * The pipelined checkpoint. Writers wait only while the log rotates
//     to generation N+1 and the client freezes its image; the image
//     write, fsync and manifest commit (tmp + fsync + rename + directory
//     fsync) run with appends flowing into the rotated log.
//   * Fold-forward recovery. Rotation makes acked records land in
//     wal-(N+1) while CURRENT still names N, so a crash before the
//     commit leaves orphan logs above the live generation. Open loads
//     image N and replays wal-N plus every consecutive orphan log
//     (deltas commute, so replay order across logs is irrelevant). If
//     an orphan held records, Open checkpoints the folded state at once
//     through the same pipelined path; CURRENT names N until that
//     commit lands, so recovery is idempotent under repeated crashes.
//   * Retry of transient failures (util/retry.h), collection of stale
//     generations, and the durable health block.
//
// The store calls back into its client only to load an image, to apply
// a replayed record, to freeze an image while writers are quiesced,
// and to write a frozen image. Clients: DurableRps<T> (the
// core/snapshot.h codec) and DurableOlapEngine (nonzero cells, framed
// as WAL records).

#ifndef RPS_STORAGE_GENERATION_STORE_H_
#define RPS_STORAGE_GENERATION_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "storage/group_commit.h"
#include "storage/wal.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/retry.h"

namespace rps {

/// Durability mode of a store, fixed at Create/Open.
struct DurableOptions {
  /// Coalesce concurrent appends into one barrier per group. Off,
  /// every group holds one record: one barrier per record.
  bool group_commit = false;
  /// Group caps, barrier strength and queue depth. Per-record mode
  /// uses all of it except the record cap.
  GroupCommitOptions group;
};

/// Record geometry of a store's logs.
struct LogGeometry {
  int dims = 0;
  int64_t payload_size = 0;
};

class GenerationStore {
 public:
  /// Writes an image to `path`, fsynced before it returns.
  using ImageWriter = std::function<Status(const std::string& path)>;
  /// Freezes the client's state and returns the writer of that frozen
  /// image. Runs with writers quiesced, so it must do no I/O.
  using ImageFreezer = std::function<ImageWriter()>;

  /// The client's side of Open.
  struct Recovery {
    /// Loads image N from `path`. `fingerprint` is the value the
    /// manifest recorded; a client rejects a mismatch before reading.
    std::function<Status(const std::string& path, uint32_t fingerprint)>
        load_image;
    /// Applies one replayed log record on top of the image.
    std::function<Status(const WalRecord& record)> apply_record;
    /// Freezes the recovered state for a fold-forward checkpoint.
    ImageFreezer freeze_image;
  };

  /// Commits generation 1 in `directory` (which must exist): the image
  /// from `write_image`, an empty log, and a manifest recording
  /// `fingerprint` and `log`. First removes every snapshot-N.bin,
  /// wal-N.log and CURRENT.tmp an earlier store left there.
  static Result<std::unique_ptr<GenerationStore>> Create(
      const std::string& directory, const LogGeometry& log,
      uint32_t fingerprint, const ImageWriter& write_image,
      const DurableOptions& options);

  /// Recovers `directory` into the client (see the header comment).
  /// `replayed` (optional out) gets every replayed record and whether
  /// a torn tail was discarded.
  static Result<std::unique_ptr<GenerationStore>> Open(
      const std::string& directory, const Recovery& recovery,
      const DurableOptions& options, WalReplay* replayed = nullptr);

  ~GenerationStore();
  GenerationStore(const GenerationStore&) = delete;
  GenerationStore& operator=(const GenerationStore&) = delete;

  /// Logs `count` records with one call to the commit thread and, once
  /// they are durable, runs `apply` (the client's memory update) before
  /// a rotation can start. On failure `apply` does not run. Safe from
  /// any thread.
  template <typename Apply>
  Status Append(const WalAppend* records, int64_t count, Apply&& apply) {
    BeginApply();
    const Status appended =
        count == 1 ? wal_->Append(*records[0].cell, records[0].payload)
                   : wal_->AppendMany(records, count);
    if (appended.ok()) apply();
    EndApply();
    return appended;
  }

  /// Persists the client's state as the next generation (pipelined;
  /// see the header comment) and collects the previous one. On failure
  /// the live generation is unchanged, and the store stays usable when
  /// the failure was not a crash. Safe while writers append.
  Status Checkpoint(const ImageFreezer& freeze_image);

  /// Live (manifest-committed) generation.
  int64_t generation() const;
  /// Generation of the log receiving appends; runs ahead of
  /// generation() while a checkpoint is in flight.
  int64_t wal_generation() const;
  /// True while a checkpoint is writing its image.
  bool checkpoint_in_flight() const;

  bool group_commit() const { return options_.group_commit; }
  /// Records and bytes in the active log (since the last rotation).
  int64_t wal_records() const { return wal_->appended(); }
  int64_t wal_bytes() const { return wal_->committed_size(); }
  /// On-disk bytes of one log record.
  int64_t record_size() const { return record_size_; }

  const std::string& directory() const { return directory_; }
  std::string ImagePath(int64_t generation) const;
  std::string WalPath(int64_t generation) const;

  /// Retry policy for transient append and checkpoint failures
  /// (initially `options.group.retry`).
  void set_retry_policy(const RetryPolicy& policy);

  /// Test hook: runs after a checkpoint rotated the log and froze the
  /// image (writers already released) and before the image write.
  void set_checkpoint_write_hook(std::function<void()> hook) {
    checkpoint_write_hook_ = std::move(hook);
  }

  /// The durable health block: generation, log accumulation, mode and
  /// the pipelined-checkpoint state.
  std::string HealthJson() const;

 private:
  GenerationStore(std::string directory, int64_t generation,
                  uint32_t fingerprint, const LogGeometry& log,
                  const DurableOptions& options);

  /// Wraps the opened active log in the commit thread.
  void Adopt(WriteAheadLog wal);
  void BeginApply();
  void EndApply();
  /// Opens wal-(next) and swaps it in. Requires drained writers.
  Status RotateTo(int64_t next) REQUIRES(gate_mu_);
  /// Points CURRENT at `generation`: the checkpoint commit point.
  Status CommitManifest(int64_t generation) const;
  /// Best-effort removal of files a crashed or folded checkpoint can
  /// leave behind: every generation below the live one, the next one
  /// when no rotation is outstanding, and a stranded manifest temp.
  void RemoveStaleGenerations();
  RetryPolicy retry_policy() const;

  const std::string directory_;
  const uint32_t fingerprint_;
  const LogGeometry log_;
  const DurableOptions options_;
  int64_t record_size_ = 0;
  /// Set before the store is returned; Rotate swaps the log inside.
  std::unique_ptr<GroupCommitWal> wal_;

  Mutex gate_mu_{"GenerationStore.gate"};
  CondVar gate_cv_;
  int64_t active_appends_ GUARDED_BY(gate_mu_) = 0;
  bool rotating_ GUARDED_BY(gate_mu_) = false;

  /// Serializes whole Checkpoint() calls.
  Mutex checkpoint_mu_{"GenerationStore.checkpoint"};  // check_guards: standalone

  mutable Mutex state_mu_{"GenerationStore.state"};
  int64_t generation_ GUARDED_BY(state_mu_);
  int64_t wal_generation_ GUARDED_BY(state_mu_);
  bool checkpoint_in_flight_ GUARDED_BY(state_mu_) = false;
  RetryPolicy retry_ GUARDED_BY(state_mu_);

  std::function<void()> checkpoint_write_hook_;
};

}  // namespace rps

#endif  // RPS_STORAGE_GENERATION_STORE_H_
