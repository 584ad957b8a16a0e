// OLAP schema: one measure attribute aggregated over functional
// attributes (paper, Section 1: "Certain attributes are chosen to be
// measure attributes ... Other attributes are selected as dimensions").

#ifndef RPS_OLAP_SCHEMA_H_
#define RPS_OLAP_SCHEMA_H_

#include <string>
#include <variant>
#include <vector>

#include "cube/dimension.h"
#include "cube/index.h"
#include "util/status.h"

namespace rps {

/// A raw attribute value in a record: integer (Integer dimensions),
/// numeric (Binned dimensions) or label (Categorical dimensions).
using FieldValue = std::variant<int64_t, double, std::string>;

class Schema {
 public:
  /// `dimensions` define the cube axes in order; `measure_name` is
  /// documentation (e.g. "SALES").
  Schema(std::string measure_name, std::vector<Dimension> dimensions);

  const std::string& measure_name() const { return measure_name_; }
  const std::vector<Dimension>& dimensions() const { return dimensions_; }
  int num_dimensions() const { return static_cast<int>(dimensions_.size()); }

  /// Index of the dimension named `name`, or error.
  Result<int> DimensionIndex(const std::string& name) const;

  /// Shape of the cube this schema describes, built once by the
  /// constructor.
  const Shape& CubeShape() const { return shape_; }

  /// Maps one record's dimension values (in schema order) to a cell.
  /// Fails if a value is of the wrong kind or out of range.
  Result<CellIndex> CellOf(const std::vector<FieldValue>& values) const;

 private:
  std::string measure_name_;
  std::vector<Dimension> dimensions_;
  Shape shape_;
};

}  // namespace rps

#endif  // RPS_OLAP_SCHEMA_H_
