// Dimension metadata: how raw attribute values map onto cube indices.
//
// The paper's data cubes index dimensions by dense integers 0..n-1
// (e.g. CUSTOMER_AGE, DATE_OF_SALE). A Dimension describes one such
// functional attribute: its name, its extent, and the mapping from
// domain values to indices -- either direct integers, uniform numeric
// bins, or an explicit category list.

#ifndef RPS_CUBE_DIMENSION_H_
#define RPS_CUBE_DIMENSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace rps {

class Dimension {
 public:
  /// Indices are the attribute values themselves, offset by `origin`:
  /// value v maps to index v - origin, valid for v in
  /// [origin, origin + size).
  static Dimension Integer(std::string name, int64_t origin, int64_t size);

  /// Uniform bins over [lo, hi): value v maps to
  /// floor((v - lo) / width) with `bins` bins of width
  /// (hi - lo) / bins.
  static Dimension Binned(std::string name, double lo, double hi,
                          int64_t bins);

  /// Explicit category labels; value = label, index = position.
  /// Labels must be unique.
  static Dimension Categorical(std::string name,
                               std::vector<std::string> labels);

  const std::string& name() const { return name_; }
  int64_t size() const { return size_; }

  /// Maps a raw integer value to its index (Integer dimensions).
  Result<int64_t> IndexOfInt(int64_t value) const;

  /// Maps a raw numeric value to its bin (Binned dimensions).
  Result<int64_t> IndexOfDouble(double value) const;

  /// Maps a label to its index (Categorical dimensions).
  Result<int64_t> IndexOfLabel(const std::string& label) const;

  /// Human-readable description of the index'th slot, e.g. "37",
  /// "[10.0, 20.0)", or "West".
  std::string SlotLabel(int64_t index) const;

  /// CRC-32 of everything that maps values to indices: name, kind,
  /// size, origin, bin edges and labels.
  uint32_t Fingerprint() const;

  bool is_integer() const { return kind_ == Kind::kInteger; }
  bool is_binned() const { return kind_ == Kind::kBinned; }
  bool is_categorical() const { return kind_ == Kind::kCategorical; }

 private:
  enum class Kind { kInteger, kBinned, kCategorical };

  Dimension(Kind kind, std::string name, int64_t size)
      : kind_(kind), name_(std::move(name)), size_(size) {}

  Kind kind_;
  std::string name_;
  int64_t size_;

  // kInteger
  int64_t origin_ = 0;
  // kBinned
  double lo_ = 0;
  double width_ = 1;
  // kCategorical
  std::vector<std::string> labels_;
  std::unordered_map<std::string, int64_t> label_index_;
};

}  // namespace rps

#endif  // RPS_CUBE_DIMENSION_H_
