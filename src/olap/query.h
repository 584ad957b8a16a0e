// Range queries over named dimensions in raw value space.
//
// A RangeQuery holds per-dimension predicates ("age from 37 to 52",
// "date over the past three months" -- the paper's Section 1
// examples). Unconstrained dimensions default to their full range.
// Resolve() maps the predicates through the schema's dimensions to an
// inclusive cell Box.

#ifndef RPS_OLAP_QUERY_H_
#define RPS_OLAP_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "cube/box.h"
#include "olap/schema.h"
#include "util/status.h"

namespace rps {

class RangeQuery {
 public:
  RangeQuery() = default;

  /// Constrains an Integer dimension to raw values [lo, hi].
  RangeQuery& WhereIntBetween(const std::string& dimension, int64_t lo,
                              int64_t hi);

  /// Constrains a Binned dimension to numeric values [lo, hi)
  /// (hi exclusive: bins are half-open).
  RangeQuery& WhereDoubleBetween(const std::string& dimension, double lo,
                                 double hi);

  /// Constrains a Categorical dimension to one label.
  RangeQuery& WhereLabelIs(const std::string& dimension,
                           const std::string& label);

  /// Constrains a Categorical dimension to a contiguous label range
  /// [from, to] in declaration order (e.g. months "Feb".."May").
  RangeQuery& WhereLabelBetween(const std::string& dimension,
                                const std::string& from,
                                const std::string& to);

  /// Resolves all predicates against `schema` to a cell Box inside
  /// the cube. Unconstrained dimensions span their full extent. Fails
  /// on unknown dimensions, kind mismatches, out-of-domain bounds or
  /// empty ranges. The box is built once, in the result, and a Status
  /// is built only for a predicate that fails.
  Result<Box> Resolve(const Schema& schema) const;

 private:
  /// Narrows `range` (the whole cube) by every predicate.
  Status Narrow(const Schema& schema, Box& range) const;

  struct Predicate {
    std::string dimension;
    enum class Kind { kIntRange, kDoubleRange, kLabel, kLabelRange } kind;
    int64_t int_lo = 0, int_hi = 0;
    double double_lo = 0, double_hi = 0;
    std::string label_lo, label_hi;
  };
  std::vector<Predicate> predicates_;
};

}  // namespace rps

#endif  // RPS_OLAP_QUERY_H_
