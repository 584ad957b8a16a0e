#include "cube/dimension.h"

#include <cmath>

#include "util/check.h"
#include "util/crc32.h"

namespace rps {

Dimension Dimension::Integer(std::string name, int64_t origin, int64_t size) {
  RPS_CHECK(size >= 1);
  Dimension dim(Kind::kInteger, std::move(name), size);
  dim.origin_ = origin;
  return dim;
}

Dimension Dimension::Binned(std::string name, double lo, double hi,
                            int64_t bins) {
  RPS_CHECK(bins >= 1);
  RPS_CHECK_MSG(hi > lo, "Binned dimension needs hi > lo");
  Dimension dim(Kind::kBinned, std::move(name), bins);
  dim.lo_ = lo;
  dim.width_ = (hi - lo) / static_cast<double>(bins);
  return dim;
}

Dimension Dimension::Categorical(std::string name,
                                 std::vector<std::string> labels) {
  RPS_CHECK(!labels.empty());
  Dimension dim(Kind::kCategorical, std::move(name),
                static_cast<int64_t>(labels.size()));
  dim.labels_ = std::move(labels);
  for (int64_t i = 0; i < static_cast<int64_t>(dim.labels_.size()); ++i) {
    auto [it, inserted] = dim.label_index_.emplace(dim.labels_[i], i);
    (void)it;
    RPS_CHECK_MSG(inserted, "Categorical labels must be unique");
  }
  return dim;
}

int64_t Dimension::TryIndexOfDouble(double value) const {
  if (kind_ != Kind::kBinned) return kNoIndex;
  const double offset = (value - lo_) / width_;
  // Written so that NaN, for which every comparison is false, fails.
  if (!(offset >= 0 && offset < static_cast<double>(size_))) return kNoIndex;
  return static_cast<int64_t>(std::floor(offset));
}

int64_t Dimension::TryIndexOfLabel(const std::string& label) const {
  if (kind_ != Kind::kCategorical) return kNoIndex;
  const auto it = label_index_.find(label);
  return it == label_index_.end() ? kNoIndex : it->second;
}

Result<int64_t> Dimension::IndexOfInt(int64_t value) const {
  const int64_t index = TryIndexOfInt(value);
  if (index != kNoIndex) return index;
  if (kind_ != Kind::kInteger) {
    return Status::FailedPrecondition("dimension '" + name_ +
                                      "' is not an integer dimension");
  }
  return Status::OutOfRange("value " + std::to_string(value) +
                            " outside dimension '" + name_ + "'");
}

Result<int64_t> Dimension::IndexOfDouble(double value) const {
  const int64_t index = TryIndexOfDouble(value);
  if (index != kNoIndex) return index;
  if (kind_ != Kind::kBinned) {
    return Status::FailedPrecondition("dimension '" + name_ +
                                      "' is not a binned dimension");
  }
  return Status::OutOfRange("value " + std::to_string(value) +
                            " outside dimension '" + name_ + "'");
}

Result<int64_t> Dimension::IndexOfLabel(const std::string& label) const {
  const int64_t index = TryIndexOfLabel(label);
  if (index != kNoIndex) return index;
  if (kind_ != Kind::kCategorical) {
    return Status::FailedPrecondition("dimension '" + name_ +
                                      "' is not a categorical dimension");
  }
  return Status::NotFound("label '" + label + "' not in dimension '" +
                          name_ + "'");
}

std::string Dimension::SlotLabel(int64_t index) const {
  RPS_CHECK(index >= 0 && index < size_);
  switch (kind_) {
    case Kind::kInteger:
      return std::to_string(origin_ + index);
    case Kind::kBinned: {
      const double lo = lo_ + width_ * static_cast<double>(index);
      return "[" + std::to_string(lo) + ", " + std::to_string(lo + width_) +
             ")";
    }
    case Kind::kCategorical:
      return labels_[static_cast<size_t>(index)];
  }
  return "?";
}

uint32_t Dimension::Fingerprint() const {
  Crc32 crc;
  const auto text = [&crc](const std::string& value) {
    const uint64_t length = value.size();
    crc.Update(&length, sizeof(length));
    crc.Update(value.data(), value.size());
  };
  text(name_);
  crc.Update(&kind_, sizeof(kind_));
  crc.Update(&size_, sizeof(size_));
  crc.Update(&origin_, sizeof(origin_));
  crc.Update(&lo_, sizeof(lo_));
  crc.Update(&width_, sizeof(width_));
  for (const std::string& label : labels_) text(label);
  return crc.value();
}

}  // namespace rps
