#include "olap/durable_engine.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "util/check.h"
#include "util/crc32.h"

namespace rps {
namespace {

using CellDelta = DurableOlapEngine::CellDelta;

/// Decodes a replayed record's payload.
CellDelta DecodeDelta(const WalRecord& record) {
  CellDelta delta;
  std::memcpy(&delta, record.payload.data(), sizeof(delta));
  return delta;
}

/// CRC-32 of the schema's geometry: every dimension's fingerprint, in
/// order. Method and shard count stay out: the image holds cells.
uint32_t GeometryFingerprint(const Schema& schema) {
  Crc32 crc;
  for (const Dimension& dimension : schema.dimensions()) {
    const uint32_t fingerprint = dimension.Fingerprint();
    crc.Update(&fingerprint, sizeof(fingerprint));
  }
  return crc.value();
}

std::string Hex(uint32_t value) {
  char text[11];
  std::snprintf(text, sizeof(text), "0x%08x", value);
  return text;
}

/// Writes every nonzero cell of `cells` to `path` as one batch of WAL
/// records with one fsync.
Status WriteImage(const std::string& path, int dims,
                  const ShardedOlapEngine::FrozenCells& cells) {
  RPS_ASSIGN_OR_RETURN(
      WriteAheadLog image,
      WriteAheadLog::OpenForAppend(path, dims, sizeof(CellDelta)));
  RPS_RETURN_IF_ERROR(image.Reset());
  // Their coordinates are the replay key, so order is irrelevant.
  std::vector<CellIndex> nonzero;
  std::vector<CellDelta> values;
  cells.ForEach([&](const CellIndex& cell, double sum, int64_t count) {
    if (sum != 0.0 || count != 0) {
      nonzero.push_back(cell);
      values.push_back(CellDelta{sum, count});
    }
  });
  if (!nonzero.empty()) {
    std::vector<WalAppend> appends(nonzero.size());
    for (size_t i = 0; i < nonzero.size(); ++i) {
      appends[i] = WalAppend{&nonzero[i], &values[i]};
    }
    RPS_RETURN_IF_ERROR(image.AppendBatch(
        appends.data(), static_cast<int64_t>(appends.size()),
        WalBarrier::kSync));
  }
  return image.Close();
}

}  // namespace

DurableOlapEngine::DurableOlapEngine(Schema schema, EngineMethod method,
                                     int shards, ThreadPool* pool)
    : schema_(std::move(schema)), inner_(schema_, method, shards, pool) {}

DurableOlapEngine::~DurableOlapEngine() = default;

Result<std::unique_ptr<DurableOlapEngine>> DurableOlapEngine::Create(
    Schema schema, EngineMethod method, int shards,
    const std::string& directory, const DurableOptions& options,
    ThreadPool* pool) {
  std::unique_ptr<DurableOlapEngine> engine(
      new DurableOlapEngine(std::move(schema), method, shards, pool));
  const int dims = engine->schema_.CubeShape().dims();
  RPS_ASSIGN_OR_RETURN(
      engine->store_,
      GenerationStore::Create(
          directory, LogGeometry{dims, sizeof(CellDelta)},
          GeometryFingerprint(engine->schema_),
          [dims](const std::string& path) {
            return WriteImage(path, dims, ShardedOlapEngine::FrozenCells());
          },
          options));
  return engine;
}

Result<std::unique_ptr<DurableOlapEngine>> DurableOlapEngine::Open(
    Schema schema, EngineMethod method, int shards,
    const std::string& directory, const DurableOptions& options,
    ThreadPool* pool, int64_t* replayed_records) {
  std::unique_ptr<DurableOlapEngine> engine(
      new DurableOlapEngine(std::move(schema), method, shards, pool));
  const Shape& shape = engine->schema_.CubeShape();
  const uint32_t expected = GeometryFingerprint(engine->schema_);

  // The image and the replayed deltas accumulate densely, then load as
  // one build -- before a fold-forward checkpoint reads them back, or
  // once the store is open.
  NdArray<double> sums(shape, 0.0);
  NdArray<int64_t> counts(shape, int64_t{0});
  bool loaded = false;
  const auto load = [&] {
    if (loaded) return;
    loaded = true;
    RPS_CHECK(engine->inner_.LoadCells(sums, counts).ok());
  };
  int64_t replayed = 0;
  GenerationStore::Recovery recovery;
  recovery.load_image = [&](const std::string& path,
                            uint32_t fingerprint) -> Status {
    if (fingerprint != expected) {
      return Status::InvalidArgument(
          "schema geometry " + Hex(expected) + " does not match " +
          Hex(fingerprint) + ", the geometry " + directory +
          " was written under");
    }
    // A committed generation's image was fully durable before the
    // manifest moved, so damage here is corruption, not a crash.
    RPS_ASSIGN_OR_RETURN(
        const WalReplay image,
        WriteAheadLog::Replay(path, shape.dims(), sizeof(CellDelta)));
    if (image.tail_truncated) return Status::IoError("corrupt image " + path);
    for (const WalRecord& record : image.records) {
      if (!shape.Contains(record.cell)) {
        return Status::IoError("image record outside cube");
      }
      const CellDelta value = DecodeDelta(record);
      sums.at(record.cell) = value.sum;
      counts.at(record.cell) = value.count;
    }
    return Status::Ok();
  };
  recovery.apply_record = [&](const WalRecord& record) -> Status {
    if (!shape.Contains(record.cell)) {
      return Status::IoError("WAL record outside cube");
    }
    const CellDelta delta = DecodeDelta(record);
    sums.at(record.cell) += delta.sum;
    counts.at(record.cell) += delta.count;
    ++replayed;
    return Status::Ok();
  };
  recovery.freeze_image = [&] {
    load();
    return engine->FreezeImage();
  };
  RPS_ASSIGN_OR_RETURN(engine->store_,
                       GenerationStore::Open(directory, recovery, options));
  load();
  if (replayed_records != nullptr) *replayed_records = replayed;
  return engine;
}

GenerationStore::ImageWriter DurableOlapEngine::FreezeImage() const {
  return [cells = inner_.FreezeCells(),
          dims = schema_.CubeShape().dims()](const std::string& path) {
    return WriteImage(path, dims, cells);
  };
}

Status DurableOlapEngine::Insert(const OlapRecord& record) {
  RPS_ASSIGN_OR_RETURN(const CellIndex cell, schema_.CellOf(record.values));
  const CellDelta delta{record.measure, 1};
  const WalAppend append{&cell, &delta};
  Status inserted;
  RPS_RETURN_IF_ERROR(
      store_->Append(&append, 1, [&] { inserted = inner_.Insert(record); }));
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
  std::vector<WalAppend> appends(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    appends[i] = WalAppend{&cells[i], &deltas[i]};
  }
  Status inserted;
  RPS_RETURN_IF_ERROR(
      store_->Append(appends.data(), static_cast<int64_t>(appends.size()),
                     [&] { inserted = inner_.InsertBatch(records); }));
  return inserted;
}

IngestReport DurableOlapEngine::Load(const std::vector<OlapRecord>& records) {
  const IngestReport report = inner_.Load(records);
  // A failure here is checkpoint I/O trouble; the in-memory load still
  // happened (see LoadCells).
  (void)Checkpoint();
  return report;
}

Status DurableOlapEngine::LoadCells(const NdArray<double>& sums,
                                    const NdArray<int64_t>& counts) {
  RPS_RETURN_IF_ERROR(inner_.LoadCells(sums, counts));
  // Memory is loaded either way; the replacement is durable once this
  // checkpoint commits (documented Load semantics).
  return Checkpoint();
}

Status DurableOlapEngine::Checkpoint() {
  return store_->Checkpoint([this] { return FreezeImage(); });
}

std::string DurableOlapEngine::HealthJson() const {
  std::string out = "{\"durable\":";
  out += store_->HealthJson();
  out += ",\"engine\":";
  out += inner_.HealthJson();
  out += '}';
  return out;
}

}  // namespace rps
