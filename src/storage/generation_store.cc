#include "storage/generation_store.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <regex>
#include <utility>

#include "storage/fault_env.h"

namespace rps {
namespace {

struct Manifest {
  int64_t generation = 0;
  uint32_t fingerprint = 0;
  LogGeometry log;
};

/// Reads CURRENT: "<generation> <fingerprint> <dims> <payload size>".
Result<Manifest> ReadManifest(const std::string& directory) {
  const std::string path = directory + "/CURRENT";
  RPS_ASSIGN_OR_RETURN(fault_env::File file,
                       fault_env::File::Open(path, "rb", "current"));
  char buffer[96] = {};
  RPS_ASSIGN_OR_RETURN(const size_t got,
                       file.ReadUpTo(buffer, sizeof(buffer) - 1));
  RPS_RETURN_IF_ERROR(file.Close());
  long long fields[4] = {};
  const char* at = buffer;
  for (long long& field : fields) {
    char* end = nullptr;
    field = std::strtoll(at, &end, 10);
    if (got == 0 || end == at) {
      return Status::IoError("corrupt manifest: " + path);
    }
    at = end;
  }
  if (fields[0] < 1 || fields[1] < 0 || fields[1] > UINT32_MAX ||
      fields[2] < 1 || fields[2] > kMaxDims || fields[3] < 1) {
    return Status::IoError("corrupt manifest: " + path);
  }
  return Manifest{fields[0], static_cast<uint32_t>(fields[1]),
                  LogGeometry{static_cast<int>(fields[2]), fields[3]}};
}

}  // namespace

GenerationStore::GenerationStore(std::string directory, int64_t generation,
                                 uint32_t fingerprint, const LogGeometry& log,
                                 const DurableOptions& options)
    : directory_(std::move(directory)),
      fingerprint_(fingerprint),
      log_(log),
      options_(options) {
  MutexLock lock(&state_mu_);
  generation_ = generation;
  wal_generation_ = generation;
  retry_ = options.group.retry;
}

GenerationStore::~GenerationStore() = default;

std::string GenerationStore::ImagePath(int64_t generation) const {
  return directory_ + "/snapshot-" + std::to_string(generation) + ".bin";
}

std::string GenerationStore::WalPath(int64_t generation) const {
  return directory_ + "/wal-" + std::to_string(generation) + ".log";
}

Result<std::unique_ptr<GenerationStore>> GenerationStore::Create(
    const std::string& directory, const LogGeometry& log,
    uint32_t fingerprint, const ImageWriter& write_image,
    const DurableOptions& options) {
  // A new store owns its directory: Open would fold an earlier store's
  // logs above generation 1 in as orphans.
  const std::regex store_file(
      R"(snapshot-\d+\.bin|wal-\d+\.log|CURRENT\.tmp)");
  std::error_code error;
  for (std::filesystem::directory_iterator it(directory, error), end;
       !error && it != end; it.increment(error)) {
    if (std::regex_match(it->path().filename().string(), store_file)) {
      RPS_RETURN_IF_ERROR(fault_env::Remove(it->path().string()));
    }
  }
  if (error) {
    return Status::IoError("cannot list " + directory + ": " +
                           error.message());
  }
  std::unique_ptr<GenerationStore> store(
      new GenerationStore(directory, 1, fingerprint, log, options));
  RPS_RETURN_IF_ERROR(write_image(store->ImagePath(1)));
  RPS_ASSIGN_OR_RETURN(
      WriteAheadLog wal,
      WriteAheadLog::OpenForAppend(store->WalPath(1), log.dims,
                                   log.payload_size));
  RPS_RETURN_IF_ERROR(wal.Reset());  // a fresh Create discards stale logs
  RPS_RETURN_IF_ERROR(fault_env::SyncDir(directory, "current"));
  RPS_RETURN_IF_ERROR(store->CommitManifest(1));
  store->Adopt(std::move(wal));
  return store;
}

Result<std::unique_ptr<GenerationStore>> GenerationStore::Open(
    const std::string& directory, const Recovery& recovery,
    const DurableOptions& options, WalReplay* replayed) {
  RPS_ASSIGN_OR_RETURN(const Manifest manifest, ReadManifest(directory));
  const int64_t live = manifest.generation;
  std::unique_ptr<GenerationStore> store(new GenerationStore(
      directory, live, manifest.fingerprint, manifest.log, options));
  RPS_RETURN_IF_ERROR(
      recovery.load_image(store->ImagePath(live), manifest.fingerprint));

  // The live log, then every consecutive orphan log above it. Only
  // the last existing log can have a torn tail: rotation freezes each
  // log before the next opens.
  WalReplay total;
  int64_t top = live;
  bool orphan_records = false;
  for (int64_t g = live; g == live || std::filesystem::exists(store->WalPath(g));
       ++g) {
    RPS_ASSIGN_OR_RETURN(
        WalReplay log, WriteAheadLog::Replay(store->WalPath(g),
                                             manifest.log.dims,
                                             manifest.log.payload_size));
    for (const WalRecord& record : log.records) {
      RPS_RETURN_IF_ERROR(recovery.apply_record(record));
    }
    if (g == live) {
      total.valid_bytes = log.valid_bytes;
    } else {
      orphan_records = orphan_records || !log.records.empty();
    }
    total.tail_truncated = total.tail_truncated || log.tail_truncated;
    if (replayed != nullptr) {
      total.records.insert(total.records.end(),
                           std::make_move_iterator(log.records.begin()),
                           std::make_move_iterator(log.records.end()));
    }
    top = g;
  }

  // With orphan records, resume as if the crashed checkpoints'
  // rotations had just happened (the active log is wal-top) and fold
  // forward: the checkpoint commits the folded state as generation
  // top+1, collapsing the directory back to one image and one empty
  // log. Otherwise appends resume in the live log, whose torn tail
  // must go first: bytes written after a damaged record would be
  // invisible to every future replay.
  const int64_t active = orphan_records ? top : live;
  if (!orphan_records && total.tail_truncated) {
    RPS_RETURN_IF_ERROR(
        WriteAheadLog::TruncateTorn(store->WalPath(live), total.valid_bytes));
  }
  RPS_ASSIGN_OR_RETURN(
      WriteAheadLog wal,
      WriteAheadLog::OpenForAppend(store->WalPath(active), manifest.log.dims,
                                   manifest.log.payload_size));
  store->Adopt(std::move(wal));
  if (orphan_records) {
    {
      MutexLock lock(&store->state_mu_);
      store->wal_generation_ = active;
    }
    RPS_RETURN_IF_ERROR(store->Checkpoint(recovery.freeze_image));
    total.valid_bytes = 0;
  }
  if (replayed != nullptr) *replayed = std::move(total);
  store->RemoveStaleGenerations();
  return store;
}

void GenerationStore::Adopt(WriteAheadLog wal) {
  record_size_ = wal.record_size();
  GroupCommitOptions group = options_.group;
  if (!options_.group_commit) group.max_group_records = 1;
  wal_ = std::make_unique<GroupCommitWal>(std::move(wal), group);
}

int64_t GenerationStore::generation() const {
  MutexLock lock(&state_mu_);
  return generation_;
}

int64_t GenerationStore::wal_generation() const {
  MutexLock lock(&state_mu_);
  return wal_generation_;
}

bool GenerationStore::checkpoint_in_flight() const {
  MutexLock lock(&state_mu_);
  return checkpoint_in_flight_;
}

RetryPolicy GenerationStore::retry_policy() const {
  MutexLock lock(&state_mu_);
  return retry_;
}

void GenerationStore::set_retry_policy(const RetryPolicy& policy) {
  {
    MutexLock lock(&state_mu_);
    retry_ = policy;
  }
  wal_->set_retry_policy(policy);
}

void GenerationStore::BeginApply() {
  MutexLock lock(&gate_mu_);
  while (rotating_) gate_cv_.Wait(gate_mu_);
  ++active_appends_;
}

void GenerationStore::EndApply() {
  MutexLock lock(&gate_mu_);
  --active_appends_;
  gate_cv_.NotifyAll();
}

Status GenerationStore::RotateTo(int64_t next) {
  RPS_ASSIGN_OR_RETURN(
      WriteAheadLog log,
      WriteAheadLog::OpenForAppend(WalPath(next), log_.dims,
                                   log_.payload_size));
  RPS_RETURN_IF_ERROR(log.Reset());
  // Rotate swaps unconditionally: from here the active log is
  // wal-(next), even if closing the frozen one failed.
  const Status rotated = wal_->Rotate(std::move(log));
  MutexLock lock(&state_mu_);
  wal_generation_ = next;
  return rotated;
}

Status GenerationStore::CommitManifest(int64_t generation) const {
  const std::string path = directory_ + "/CURRENT";
  const std::string tmp = path + ".tmp";
  const std::string text =
      std::to_string(generation) + " " + std::to_string(fingerprint_) + " " +
      std::to_string(log_.dims) + " " + std::to_string(log_.payload_size) +
      "\n";
  {
    RPS_ASSIGN_OR_RETURN(fault_env::File file,
                         fault_env::File::Open(tmp, "wb", "current"));
    RPS_RETURN_IF_ERROR(file.Write(text.data(), text.size()));
    RPS_RETURN_IF_ERROR(file.Sync());
    RPS_RETURN_IF_ERROR(file.Close());
  }
  RPS_RETURN_IF_ERROR(fault_env::Rename(tmp, path, "current"));
  return fault_env::SyncDir(directory_, "current");
}

Status GenerationStore::Checkpoint(const ImageFreezer& freeze_image) {
  MutexLock checkpoint(&checkpoint_mu_);
  int64_t next = 0;
  ImageWriter write_image;
  {
    MutexLock gate(&gate_mu_);
    rotating_ = true;
    while (active_appends_ > 0) gate_cv_.Wait(gate_mu_);
    // Quiesced: the commit queue is empty and the active log holds
    // exactly the records applied to memory.
    next = wal_generation() + 1;
    const Status rotation = RotateTo(next);
    if (rotation.ok()) {
      {
        MutexLock lock(&state_mu_);
        checkpoint_in_flight_ = true;
      }
      write_image = freeze_image();
    }
    rotating_ = false;
    gate_cv_.NotifyAll();
    if (!rotation.ok()) return rotation;
  }

  // Writers are live again; everything below runs against the frozen
  // image and the filesystem only. On a failure CURRENT keeps naming
  // the old generation; acked records are in the rotated log(s), and
  // fold-forward recovery (or a retried Checkpoint, which targets a
  // generation past every rotated log) folds them in.
  if (checkpoint_write_hook_) checkpoint_write_hook_();
  Status status = RetryWithBackoff(
      retry_policy(), [&] { return write_image(ImagePath(next)); });
  if (status.ok()) status = fault_env::SyncDir(directory_, "current");
  if (status.ok()) status = CommitManifest(next);
  {
    MutexLock lock(&state_mu_);
    checkpoint_in_flight_ = false;
    if (status.ok()) generation_ = next;
  }
  if (status.ok()) RemoveStaleGenerations();
  return status;
}

void GenerationStore::RemoveStaleGenerations() {
  const int64_t live = generation();
  for (int64_t stale = live - 1; stale >= 1; --stale) {
    const bool had_image = std::filesystem::exists(ImagePath(stale));
    const bool had_wal = std::filesystem::exists(WalPath(stale));
    if (!had_image && !had_wal) break;
    (void)fault_env::Remove(ImagePath(stale));
    (void)fault_env::Remove(WalPath(stale));
  }
  if (wal_generation() == live) {
    // No rotation outstanding: anything above the live generation is
    // debris from a checkpoint that never committed (and, per Open's
    // fold-forward, never held records).
    (void)fault_env::Remove(ImagePath(live + 1));
    (void)fault_env::Remove(WalPath(live + 1));
  }
  (void)fault_env::Remove(directory_ + "/CURRENT.tmp");
}

std::string GenerationStore::HealthJson() const {
  int64_t live = 0;
  int64_t log_generation = 0;
  bool in_flight = false;
  {
    MutexLock lock(&state_mu_);
    live = generation_;
    log_generation = wal_generation_;
    in_flight = checkpoint_in_flight_;
  }
  std::string out = "{\"generation\":";
  out += std::to_string(live);
  out += ",\"wal_records\":";
  out += std::to_string(wal_records());
  out += ",\"wal_bytes\":";
  out += std::to_string(wal_bytes());
  out += ",\"mode\":\"";
  out += group_commit() ? "group_commit" : "per_record";
  out += "\",\"wal_generation\":";
  out += std::to_string(log_generation);
  out += ",\"checkpoint_in_flight\":";
  out += in_flight ? "true" : "false";
  out += ",\"commit_queue_depth\":";
  out += std::to_string(wal_->queue_depth());
  out += '}';
  return out;
}

}  // namespace rps
