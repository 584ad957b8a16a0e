#include "olap/query.h"

#include <algorithm>
#include <cmath>

namespace rps {

RangeQuery& RangeQuery::WhereIntBetween(const std::string& dimension,
                                        int64_t lo, int64_t hi) {
  Predicate p;
  p.dimension = dimension;
  p.kind = Predicate::Kind::kIntRange;
  p.int_lo = lo;
  p.int_hi = hi;
  predicates_.push_back(std::move(p));
  return *this;
}

RangeQuery& RangeQuery::WhereDoubleBetween(const std::string& dimension,
                                           double lo, double hi) {
  Predicate p;
  p.dimension = dimension;
  p.kind = Predicate::Kind::kDoubleRange;
  p.double_lo = lo;
  p.double_hi = hi;
  predicates_.push_back(std::move(p));
  return *this;
}

RangeQuery& RangeQuery::WhereLabelIs(const std::string& dimension,
                                     const std::string& label) {
  return WhereLabelBetween(dimension, label, label);
}

RangeQuery& RangeQuery::WhereLabelBetween(const std::string& dimension,
                                          const std::string& from,
                                          const std::string& to) {
  Predicate p;
  p.dimension = dimension;
  p.kind = Predicate::Kind::kLabelRange;
  p.label_lo = from;
  p.label_hi = to;
  predicates_.push_back(std::move(p));
  return *this;
}

namespace {

Status EmptyRange(const std::string& dimension) {
  return Status::InvalidArgument("empty range on '" + dimension + "'");
}

}  // namespace

Result<Box> RangeQuery::Resolve(const Schema& schema) const {
  Result<Box> range(std::in_place, schema.CubeShape());
  Status status = Narrow(schema, range.value());
  if (!status.ok()) range = std::move(status);
  return range;
}

Status RangeQuery::Narrow(const Schema& schema, Box& range) const {
  for (const Predicate& p : predicates_) {
    const int j = schema.TryDimensionIndex(p.dimension);
    if (j < 0) return schema.DimensionIndex(p.dimension).status();
    const Dimension& dim = schema.dimensions()[static_cast<size_t>(j)];
    // Each bound's index; a failed lookup is asked again through its
    // IndexOf* call for the Status that names the failure.
    int64_t index_lo = 0;
    int64_t index_hi = 0;
    switch (p.kind) {
      case Predicate::Kind::kIntRange: {
        if (p.int_lo > p.int_hi) return EmptyRange(p.dimension);
        index_lo = dim.TryIndexOfInt(p.int_lo);
        if (index_lo == Dimension::kNoIndex) {
          return dim.IndexOfInt(p.int_lo).status();
        }
        index_hi = dim.TryIndexOfInt(p.int_hi);
        if (index_hi == Dimension::kNoIndex) {
          return dim.IndexOfInt(p.int_hi).status();
        }
        break;
      }
      case Predicate::Kind::kDoubleRange: {
        if (!(p.double_lo < p.double_hi)) return EmptyRange(p.dimension);
        index_lo = dim.TryIndexOfDouble(p.double_lo);
        if (index_lo == Dimension::kNoIndex) {
          return dim.IndexOfDouble(p.double_lo).status();
        }
        // hi is exclusive: the last bin included is the one holding
        // the largest double below hi (a hi at or past the top of the
        // domain selects the last bin).
        const double below_hi = std::nextafter(p.double_hi, p.double_lo);
        index_hi = dim.TryIndexOfDouble(below_hi);
        if (index_hi == Dimension::kNoIndex) {
          return dim.IndexOfDouble(below_hi).status();
        }
        break;
      }
      case Predicate::Kind::kLabel:
      case Predicate::Kind::kLabelRange: {
        index_lo = dim.TryIndexOfLabel(p.label_lo);
        if (index_lo == Dimension::kNoIndex) {
          return dim.IndexOfLabel(p.label_lo).status();
        }
        index_hi = dim.TryIndexOfLabel(p.label_hi);
        if (index_hi == Dimension::kNoIndex) {
          return dim.IndexOfLabel(p.label_hi).status();
        }
        break;
      }
    }
    if (index_lo > index_hi) {
      return Status::InvalidArgument("empty resolved range on '" +
                                     p.dimension + "'");
    }
    // Multiple predicates on one dimension intersect.
    const int64_t lo = std::max(range.lo()[j], index_lo);
    const int64_t hi = std::min(range.hi()[j], index_hi);
    if (lo > hi) {
      return Status::InvalidArgument("predicates on '" + p.dimension +
                                     "' have empty intersection");
    }
    range.SetRange(j, lo, hi);
  }
  return Status::Ok();
}

}  // namespace rps
