// Snapshot persistence for RelativePrefixSum structures.
//
// Saving stores the RP array and overlay values directly (no rebuild
// on load), with a CRC-32 trailer. Format (native-endian; snapshots
// are machine-local artifacts):
//   magic "RPSSNAP1" | u32 value_size | i32 dims |
//   i64 extents[dims] | i64 box_size[dims] |
//   i64 rp_count,  raw rp cells |
//   i64 ov_count,  raw overlay values | u32 crc32

#ifndef RPS_CORE_SNAPSHOT_H_
#define RPS_CORE_SNAPSHOT_H_

#include <cstring>
#include <string>
#include <vector>

#include "core/relative_prefix_sum.h"
#include "util/binary_io.h"

namespace rps {

inline constexpr char kSnapshotMagic[8] = {'R', 'P', 'S', 'S',
                                           'N', 'A', 'P', '1'};

/// How SaveSnapshot hits the disk.
struct SnapshotWriteOptions {
  /// fsync before close so the snapshot survives a crash after return.
  bool durable = false;
  /// fault_env failpoint site for injected I/O failures.
  std::string site = "snapshot";
};

/// Writes `rps` to `path`. T must be trivially copyable.
template <typename T>
Status SaveSnapshot(const RelativePrefixSum<T>& rps, const std::string& path,
                    const SnapshotWriteOptions& options = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  RPS_ASSIGN_OR_RETURN(BinaryWriter writer,
                       BinaryWriter::Create(path, options.site));
  RPS_RETURN_IF_ERROR(writer.WriteBytes(kSnapshotMagic, 8));
  RPS_RETURN_IF_ERROR(
      writer.WriteScalar<uint32_t>(static_cast<uint32_t>(sizeof(T))));
  const Shape& shape = rps.shape();
  const CellIndex& box_size = rps.geometry().box_size();
  RPS_RETURN_IF_ERROR(writer.WriteScalar<int32_t>(shape.dims()));
  for (int j = 0; j < shape.dims(); ++j) {
    RPS_RETURN_IF_ERROR(writer.WriteScalar<int64_t>(shape.extent(j)));
  }
  for (int j = 0; j < shape.dims(); ++j) {
    RPS_RETURN_IF_ERROR(writer.WriteScalar<int64_t>(box_size[j]));
  }
  // RP cells in linear order (written as WriteVector would).
  const NdArray<T> rp = rps.MaterializeRp();
  RPS_RETURN_IF_ERROR(writer.WriteScalar<int64_t>(rp.num_cells()));
  RPS_RETURN_IF_ERROR(writer.WriteBytes(
      rp.data(), static_cast<size_t>(rp.num_cells()) * sizeof(T)));
  // Overlay values in slot order.
  RPS_RETURN_IF_ERROR(writer.WriteVector(rps.MaterializeOverlay()));
  return writer.FinishWithChecksum(options.durable);
}

/// Reads a structure previously written by SaveSnapshot.
template <typename T>
Result<RelativePrefixSum<T>> LoadSnapshot(const std::string& path,
                                          const std::string& site =
                                              "snapshot") {
  static_assert(std::is_trivially_copyable_v<T>);
  RPS_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::Open(path, site));
  char magic[8];
  RPS_RETURN_IF_ERROR(reader.ReadBytes(magic, 8));
  if (std::memcmp(magic, kSnapshotMagic, 8) != 0) {
    return Status::IoError("not an RPS snapshot: " + path);
  }
  RPS_ASSIGN_OR_RETURN(const uint32_t value_size,
                       reader.ReadScalar<uint32_t>());
  if (value_size != sizeof(T)) {
    return Status::IoError("snapshot value size " +
                           std::to_string(value_size) + " != expected " +
                           std::to_string(sizeof(T)));
  }
  RPS_ASSIGN_OR_RETURN(const int32_t dims, reader.ReadScalar<int32_t>());
  if (dims < 1 || dims > kMaxDims) {
    return Status::IoError("corrupt snapshot dimensionality");
  }
  std::vector<int64_t> extents(static_cast<size_t>(dims));
  for (auto& extent : extents) {
    RPS_ASSIGN_OR_RETURN(extent, reader.ReadScalar<int64_t>());
    if (extent < 1) return Status::IoError("corrupt snapshot extent");
  }
  const Shape shape = Shape::FromExtents(extents);
  CellIndex box_size = CellIndex::Filled(dims, 1);
  for (int j = 0; j < dims; ++j) {
    RPS_ASSIGN_OR_RETURN(const int64_t k, reader.ReadScalar<int64_t>());
    if (k < 1 || k > shape.extent(j)) {
      return Status::IoError("corrupt snapshot box size");
    }
    box_size[j] = k;
  }
  RPS_ASSIGN_OR_RETURN(std::vector<T> rp_cells,
                       reader.ReadVector<T>(shape.num_cells()));
  if (static_cast<int64_t>(rp_cells.size()) != shape.num_cells()) {
    return Status::IoError("snapshot RP cell count mismatch");
  }
  const OverlayGeometry geometry(shape, box_size);
  RPS_ASSIGN_OR_RETURN(
      std::vector<T> overlay_values,
      reader.ReadVector<T>(geometry.total_stored_cells()));
  if (static_cast<int64_t>(overlay_values.size()) !=
      geometry.total_stored_cells()) {
    return Status::IoError("snapshot overlay value count mismatch");
  }
  RPS_RETURN_IF_ERROR(reader.VerifyChecksum());
  return RelativePrefixSum<T>::FromParts(shape, box_size,
                                         std::move(rp_cells),
                                         std::move(overlay_values));
}

}  // namespace rps

#endif  // RPS_CORE_SNAPSHOT_H_
