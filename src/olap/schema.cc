#include "olap/schema.h"

#include "util/check.h"

namespace rps {

Schema::Schema(std::string measure_name, std::vector<Dimension> dimensions)
    : measure_name_(std::move(measure_name)),
      dimensions_(std::move(dimensions)) {
  RPS_CHECK_MSG(!dimensions_.empty(), "schema needs at least one dimension");
  RPS_CHECK(static_cast<int>(dimensions_.size()) <= kMaxDims);
  std::vector<int64_t> extents;
  extents.reserve(dimensions_.size());
  for (const Dimension& dim : dimensions_) extents.push_back(dim.size());
  shape_ = Shape::FromExtents(extents);
}

Result<int> Schema::DimensionIndex(const std::string& name) const {
  const int j = TryDimensionIndex(name);
  if (j >= 0) return j;
  return Status::NotFound("no dimension named '" + name + "'");
}

Result<CellIndex> Schema::CellOf(const std::vector<FieldValue>& values) const {
  if (static_cast<int>(values.size()) != num_dimensions()) {
    return Status::InvalidArgument(
        "record has " + std::to_string(values.size()) + " values, schema has " +
        std::to_string(num_dimensions()) + " dimensions");
  }
  CellIndex cell = CellIndex::Filled(num_dimensions(), 0);
  for (int j = 0; j < num_dimensions(); ++j) {
    const Dimension& dim = dimensions_[static_cast<size_t>(j)];
    const FieldValue& value = values[static_cast<size_t>(j)];
    Result<int64_t> index = [&]() -> Result<int64_t> {
      if (const auto* i = std::get_if<int64_t>(&value)) {
        return dim.IndexOfInt(*i);
      }
      if (const auto* d = std::get_if<double>(&value)) {
        return dim.IndexOfDouble(*d);
      }
      return dim.IndexOfLabel(std::get<std::string>(value));
    }();
    if (!index.ok()) return index.status();
    cell[j] = index.value();
  }
  return cell;
}

}  // namespace rps
