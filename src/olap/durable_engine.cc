#include "olap/durable_engine.h"

#include <cstring>
#include <filesystem>
#include <utility>

#include "cube/box.h"
#include "storage/fault_env.h"

namespace rps {
namespace {

/// Decodes a replayed record's payload.
DurableOlapEngine::CellDelta DecodeDelta(const WalRecord& record) {
  DurableOlapEngine::CellDelta delta;
  std::memcpy(&delta, record.payload.data(), sizeof(delta));
  return delta;
}

}  // namespace

DurableOlapEngine::DurableOlapEngine(Schema schema, EngineMethod method,
                                     int shards, std::string directory,
                                     const DurableOptions& options,
                                     ThreadPool* pool)
    : schema_(std::move(schema)),
      options_(options),
      directory_(std::move(directory)),
      inner_(schema_, method, shards, pool),
      mirror_sums_(schema_.CubeShape(), 0.0),
      mirror_counts_(schema_.CubeShape(), int64_t{0}) {}

DurableOlapEngine::~DurableOlapEngine() = default;

std::string DurableOlapEngine::BasePathFor(const std::string& directory,
                                           int64_t generation) {
  return directory + "/base-" + std::to_string(generation) + ".log";
}

std::string DurableOlapEngine::WalPathFor(const std::string& directory,
                                          int64_t generation) {
  return directory + "/wal-" + std::to_string(generation) + ".log";
}

Result<std::unique_ptr<DurableOlapEngine>> DurableOlapEngine::Create(
    Schema schema, EngineMethod method, int shards,
    const std::string& directory, const DurableOptions& options,
    ThreadPool* pool) {
  std::unique_ptr<DurableOlapEngine> engine(
      new DurableOlapEngine(std::move(schema), method, shards, directory,
                            options, pool));
  const int dims = engine->schema_.CubeShape().dims();
  // Generation 1: an empty base (created so Open never guesses about
  // a missing file) and an empty log.
  {
    RPS_ASSIGN_OR_RETURN(
        WriteAheadLog base,
        WriteAheadLog::OpenForAppend(BasePathFor(directory, 1), dims,
                                     sizeof(CellDelta)));
    RPS_RETURN_IF_ERROR(base.Reset());
    RPS_RETURN_IF_ERROR(base.Close());
  }
  RPS_ASSIGN_OR_RETURN(
      WriteAheadLog wal,
      WriteAheadLog::OpenForAppend(WalPathFor(directory, 1), dims,
                                   sizeof(CellDelta)));
  RPS_RETURN_IF_ERROR(wal.Reset());
  RPS_RETURN_IF_ERROR(fault_env::SyncDir(directory, "current"));
  RPS_RETURN_IF_ERROR(durable_internal::CommitManifest(directory, 1));
  if (options.group_commit) {
    engine->group_wal_ =
        std::make_unique<GroupCommitWal>(std::move(wal), options.group);
  } else {
    MutexLock lock(&engine->wal_mu_);
    engine->wal_.emplace(std::move(wal));
  }
  return engine;
}

Result<std::unique_ptr<DurableOlapEngine>> DurableOlapEngine::Open(
    Schema schema, EngineMethod method, int shards,
    const std::string& directory, const DurableOptions& options,
    ThreadPool* pool, int64_t* replayed_records) {
  std::unique_ptr<DurableOlapEngine> engine(
      new DurableOlapEngine(std::move(schema), method, shards, directory,
                            options, pool));
  const Shape& shape = engine->schema_.CubeShape();
  const int dims = shape.dims();
  RPS_ASSIGN_OR_RETURN(
      const int64_t generation,
      durable_internal::ReadManifest(directory + "/CURRENT"));

  NdArray<double> sums(shape, 0.0);
  NdArray<int64_t> counts(shape, int64_t{0});
  // Base: absolute cell contents at checkpoint time. A committed
  // generation's base was fully durable before the manifest moved, so
  // damage here is real corruption, not a crash artifact.
  RPS_ASSIGN_OR_RETURN(
      const WalReplay base,
      WriteAheadLog::Replay(BasePathFor(directory, generation), dims,
                            sizeof(CellDelta)));
  if (base.tail_truncated) {
    return Status::IoError("corrupt base file for committed generation " +
                           std::to_string(generation));
  }
  for (const WalRecord& record : base.records) {
    if (!shape.Contains(record.cell)) {
      return Status::IoError("base record outside cube");
    }
    const CellDelta value = DecodeDelta(record);
    sums.at(record.cell) = value.sum;
    counts.at(record.cell) = value.count;
  }

  // Live log plus any orphan logs above it (crashed pipelined
  // checkpoints), replayed as deltas.
  int64_t replayed = 0;
  RPS_ASSIGN_OR_RETURN(
      WalReplay live,
      WriteAheadLog::Replay(WalPathFor(directory, generation), dims,
                            sizeof(CellDelta)));
  int64_t top = generation;
  bool orphan_records = false;
  bool torn = live.tail_truncated;
  std::vector<WalReplay> logs;
  logs.push_back(std::move(live));
  for (int64_t g = generation + 1;
       std::filesystem::exists(WalPathFor(directory, g)); ++g) {
    RPS_ASSIGN_OR_RETURN(
        WalReplay orphan,
        WriteAheadLog::Replay(WalPathFor(directory, g), dims,
                              sizeof(CellDelta)));
    orphan_records = orphan_records || !orphan.records.empty();
    torn = torn || orphan.tail_truncated;
    logs.push_back(std::move(orphan));
    top = g;
  }
  for (const WalReplay& log : logs) {
    for (const WalRecord& record : log.records) {
      if (!shape.Contains(record.cell)) {
        return Status::IoError("WAL record outside cube");
      }
      const CellDelta delta = DecodeDelta(record);
      sums.at(record.cell) += delta.sum;
      counts.at(record.cell) += delta.count;
      ++replayed;
    }
  }

  std::optional<WriteAheadLog> opened;
  if (orphan_records) {
    // Fold forward: collapse base + logs into a fresh generation.
    const int64_t next = top + 1;
    RPS_RETURN_IF_ERROR(RetryWithBackoff(engine->retry_policy_, [&] {
      return engine->WriteBase(sums, counts, next);
    }));
    RPS_ASSIGN_OR_RETURN(
        WriteAheadLog wal,
        WriteAheadLog::OpenForAppend(WalPathFor(directory, next), dims,
                                     sizeof(CellDelta)));
    RPS_RETURN_IF_ERROR(wal.Reset());
    RPS_RETURN_IF_ERROR(fault_env::SyncDir(directory, "current"));
    RPS_RETURN_IF_ERROR(durable_internal::CommitManifest(directory, next));
    {
      MutexLock lock(&engine->state_mu_);
      engine->generation_ = next;
      engine->wal_generation_ = next;
    }
    opened.emplace(std::move(wal));
  } else {
    if (torn) {
      RPS_RETURN_IF_ERROR(WriteAheadLog::TruncateTorn(
          WalPathFor(directory, generation), logs.front().valid_bytes));
    }
    RPS_ASSIGN_OR_RETURN(
        WriteAheadLog wal,
        WriteAheadLog::OpenForAppend(WalPathFor(directory, generation), dims,
                                     sizeof(CellDelta)));
    {
      MutexLock lock(&engine->state_mu_);
      engine->generation_ = generation;
      engine->wal_generation_ = generation;
    }
    opened.emplace(std::move(wal));
  }

  RPS_RETURN_IF_ERROR(engine->inner_.LoadCells(sums, counts));
  {
    MutexLock lock(&engine->mirror_mu_);
    engine->mirror_sums_ = std::move(sums);
    engine->mirror_counts_ = std::move(counts);
  }
  if (options.group_commit) {
    engine->group_wal_ = std::make_unique<GroupCommitWal>(
        std::move(*opened), options.group);
  } else {
    MutexLock lock(&engine->wal_mu_);
    engine->wal_.emplace(std::move(*opened));
  }
  engine->RemoveStaleGenerations();
  if (replayed_records != nullptr) *replayed_records = replayed;
  return engine;
}

int64_t DurableOlapEngine::wal_records() const {
  if (group_wal_ != nullptr) return group_wal_->appended();
  MutexLock lock(&wal_mu_);
  return wal_->appended();
}

void DurableOlapEngine::set_retry_policy(const RetryPolicy& policy) {
  retry_policy_ = policy;
  if (group_wal_ != nullptr) group_wal_->set_retry_policy(policy);
}

void DurableOlapEngine::BeginApply() {
  MutexLock lock(&gate_mu_);
  while (rotating_) gate_cv_.Wait(gate_mu_);
  ++active_appends_;
}

void DurableOlapEngine::EndApply() {
  MutexLock lock(&gate_mu_);
  --active_appends_;
  gate_cv_.NotifyAll();
}

Status DurableOlapEngine::AppendLogged(const CellIndex* cells,
                                       const CellDelta* deltas,
                                       int64_t count) {
  if (group_wal_ != nullptr) {
    if (count == 1) return group_wal_->Append(cells[0], &deltas[0]);
    std::vector<WalAppend> appends(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      appends[static_cast<size_t>(i)] = WalAppend{&cells[i], &deltas[i]};
    }
    return group_wal_->AppendMany(appends.data(), count);
  }
  // Per-record baseline: one barrier per record, writers serialized
  // on the log lock.
  MutexLock lock(&wal_mu_);
  const RetryPolicy policy = retry_policy_;
  WriteAheadLog* const wal = &*wal_;
  for (int64_t i = 0; i < count; ++i) {
    RPS_RETURN_IF_ERROR(RetryWithBackoff(policy, [&] {
      return wal->Append(cells[i], &deltas[i], options_.group.barrier);
    }));
  }
  return Status::Ok();
}

Status DurableOlapEngine::Insert(const OlapRecord& record) {
  RPS_ASSIGN_OR_RETURN(const CellIndex cell, schema_.CellOf(record.values));
  const CellDelta delta{record.measure, 1};
  BeginApply();
  const Status appended = AppendLogged(&cell, &delta, 1);
  if (!appended.ok()) {
    EndApply();
    return appended;
  }
  {
    MutexLock lock(&mirror_mu_);
    mirror_sums_.at(cell) += record.measure;
    mirror_counts_.at(cell) += 1;
  }
  const Status inserted = inner_.Insert(record);
  EndApply();
  return inserted;
}

Status DurableOlapEngine::InsertBatch(std::span<const OlapRecord> records) {
  if (records.empty()) return Status::Ok();
  // Resolve everything first so a bad record fails the batch before a
  // single byte is logged.
  std::vector<CellIndex> cells;
  std::vector<CellDelta> deltas;
  cells.reserve(records.size());
  deltas.reserve(records.size());
  for (const OlapRecord& record : records) {
    RPS_ASSIGN_OR_RETURN(CellIndex cell, schema_.CellOf(record.values));
    cells.push_back(std::move(cell));
    deltas.push_back(CellDelta{record.measure, 1});
  }
  BeginApply();
  const Status appended = AppendLogged(cells.data(), deltas.data(),
                                       static_cast<int64_t>(cells.size()));
  if (!appended.ok()) {
    EndApply();
    return appended;
  }
  {
    MutexLock lock(&mirror_mu_);
    for (size_t i = 0; i < cells.size(); ++i) {
      mirror_sums_.at(cells[i]) += deltas[i].sum;
      mirror_counts_.at(cells[i]) += deltas[i].count;
    }
  }
  const Status inserted = inner_.InsertBatch(records);
  EndApply();
  return inserted;
}

IngestReport DurableOlapEngine::Load(const std::vector<OlapRecord>& records) {
  const Shape& shape = schema_.CubeShape();
  IngestReport report;
  NdArray<double> sums(shape, 0.0);
  NdArray<int64_t> counts(shape, int64_t{0});
  for (const OlapRecord& record : records) {
    const Result<CellIndex> cell = schema_.CellOf(record.values);
    if (!cell.ok()) {
      ++report.rejected;
      continue;
    }
    sums.at(cell.value()) += record.measure;
    counts.at(cell.value()) += 1;
    ++report.accepted;
  }
  // Shapes are ours, so a failure here is checkpoint I/O trouble; the
  // in-memory load still happened (see LoadCells).
  (void)LoadCells(sums, counts);
  return report;
}

Status DurableOlapEngine::LoadCells(const NdArray<double>& sums,
                                    const NdArray<int64_t>& counts) {
  const Shape& shape = schema_.CubeShape();
  if (!(sums.shape() == shape) || !(counts.shape() == shape)) {
    return Status::InvalidArgument("LoadCells shape mismatch: want " +
                                   shape.ToString());
  }
  {
    MutexLock gate(&gate_mu_);
    rotating_ = true;
    while (active_appends_ > 0) gate_cv_.Wait(gate_mu_);
    {
      MutexLock lock(&mirror_mu_);
      mirror_sums_ = sums;
      mirror_counts_ = counts;
    }
    const Status loaded = inner_.LoadCells(sums, counts);
    rotating_ = false;
    gate_cv_.NotifyAll();
    RPS_RETURN_IF_ERROR(loaded);
  }
  // Memory is loaded either way; the replacement is durable once this
  // checkpoint commits (documented Load semantics).
  return Checkpoint();
}

Status DurableOlapEngine::RotateTo(int64_t next) {
  RPS_ASSIGN_OR_RETURN(
      WriteAheadLog log,
      WriteAheadLog::OpenForAppend(WalPathFor(directory_, next),
                                   schema_.CubeShape().dims(),
                                   sizeof(CellDelta)));
  RPS_RETURN_IF_ERROR(log.Reset());
  Status rotated;
  if (group_wal_ != nullptr) {
    rotated = group_wal_->Rotate(std::move(log));
  } else {
    MutexLock lock(&wal_mu_);
    rotated = wal_->Close();
    wal_ = std::move(log);
  }
  // The swap happened even if closing the frozen log failed; either
  // way the active log is wal-(next) now.
  {
    MutexLock lock(&state_mu_);
    wal_generation_ = next;
  }
  return rotated;
}

Status DurableOlapEngine::WriteBase(const NdArray<double>& sums,
                                    const NdArray<int64_t>& counts,
                                    int64_t generation) {
  const Shape shape = sums.shape();
  RPS_ASSIGN_OR_RETURN(
      WriteAheadLog base,
      WriteAheadLog::OpenForAppend(BasePathFor(directory_, generation),
                                   shape.dims(), sizeof(CellDelta)));
  RPS_RETURN_IF_ERROR(base.Reset());
  // Every nonzero cell as one record; their coordinates are the
  // replay key, so order is irrelevant.
  std::vector<CellIndex> cells;
  std::vector<CellDelta> values;
  const Box all = Box::All(shape);
  CellIndex index = all.lo();
  do {
    const double sum = sums.at(index);
    const int64_t count = counts.at(index);
    if (sum != 0.0 || count != 0) {
      cells.push_back(index);
      values.push_back(CellDelta{sum, count});
    }
  } while (NextIndexInBox(all, index));
  if (!cells.empty()) {
    std::vector<WalAppend> appends(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      appends[i] = WalAppend{&cells[i], &values[i]};
    }
    RPS_RETURN_IF_ERROR(base.AppendBatch(appends.data(),
                                         static_cast<int64_t>(appends.size()),
                                         WalBarrier::kSync));
  }
  return base.Close();
}

Status DurableOlapEngine::Checkpoint() {
  MutexLock checkpoint(&checkpoint_mu_);
  int64_t next = 0;
  NdArray<double> sums;
  NdArray<int64_t> counts;
  {
    MutexLock gate(&gate_mu_);
    rotating_ = true;
    while (active_appends_ > 0) gate_cv_.Wait(gate_mu_);
    {
      MutexLock lock(&state_mu_);
      next = wal_generation_ + 1;
    }
    const Status rotation = RotateTo(next);
    if (rotation.ok()) {
      MutexLock lock(&state_mu_);
      checkpoint_in_flight_ = true;
    }
    if (rotation.ok()) {
      MutexLock lock(&mirror_mu_);
      sums = mirror_sums_;
      counts = mirror_counts_;
    }
    rotating_ = false;
    gate_cv_.NotifyAll();
    if (!rotation.ok()) return rotation;
  }

  // Writers are live again; persist the frozen copy.
  if (checkpoint_write_hook_) checkpoint_write_hook_();
  Status status = RetryWithBackoff(
      retry_policy_, [&] { return WriteBase(sums, counts, next); });
  if (status.ok()) status = fault_env::SyncDir(directory_, "current");
  if (status.ok()) {
    status = durable_internal::CommitManifest(directory_, next);
  }
  {
    MutexLock lock(&state_mu_);
    checkpoint_in_flight_ = false;
    if (status.ok()) generation_ = next;
  }
  if (status.ok()) RemoveStaleGenerations();
  return status;
}

void DurableOlapEngine::RemoveStaleGenerations() {
  const int64_t live = generation();
  const int64_t active_log = wal_generation();
  for (int64_t stale = live - 1; stale >= 1; --stale) {
    const bool had_base =
        std::filesystem::exists(BasePathFor(directory_, stale));
    const bool had_wal =
        std::filesystem::exists(WalPathFor(directory_, stale));
    if (!had_base && !had_wal) break;
    (void)fault_env::Remove(BasePathFor(directory_, stale));
    (void)fault_env::Remove(WalPathFor(directory_, stale));
  }
  if (active_log == live) {
    (void)fault_env::Remove(BasePathFor(directory_, live + 1));
    (void)fault_env::Remove(WalPathFor(directory_, live + 1));
  }
  (void)fault_env::Remove(directory_ + "/CURRENT.tmp");
}

std::string DurableOlapEngine::HealthJson() const {
  int64_t committed_generation = 0;
  int64_t log_generation = 0;
  bool in_flight = false;
  {
    MutexLock lock(&state_mu_);
    committed_generation = generation_;
    log_generation = wal_generation_;
    in_flight = checkpoint_in_flight_;
  }
  std::string out = "{\"durable\":{\"generation\":";
  out += std::to_string(committed_generation);
  out += ",\"wal_records\":";
  out += std::to_string(wal_records());
  out += ",\"mode\":\"";
  out += group_wal_ != nullptr ? "group_commit" : "per_record";
  out += "\",\"wal_generation\":";
  out += std::to_string(log_generation);
  out += ",\"checkpoint_in_flight\":";
  out += in_flight ? "true" : "false";
  out += ",\"commit_queue_depth\":";
  out += std::to_string(group_wal_ != nullptr ? group_wal_->queue_depth()
                                              : 0);
  out += "},\"engine\":";
  out += inner_.HealthJson();
  out += '}';
  return out;
}

}  // namespace rps
