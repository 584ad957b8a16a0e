#include "olap/engine.h"

#include "core/hierarchical_rps.h"

namespace rps {

const char* EngineMethodName(EngineMethod method) {
  switch (method) {
    case EngineMethod::kNaive:
      return "naive";
    case EngineMethod::kPrefixSum:
      return "prefix_sum";
    case EngineMethod::kRelativePrefixSum:
      return "relative_prefix_sum";
    case EngineMethod::kFenwick:
      return "fenwick";
    case EngineMethod::kHierarchicalRps:
      return "hierarchical_rps";
  }
  return "?";
}

std::unique_ptr<QueryMethod<double>> MakeDoubleMethod(EngineMethod method,
                                                      const Shape& shape,
                                                      ThreadPool* pool) {
  const NdArray<double> empty(shape, 0.0);
  switch (method) {
    case EngineMethod::kNaive:
      return std::make_unique<NaiveMethod<double>>(empty);
    case EngineMethod::kPrefixSum:
      return std::make_unique<PrefixSumMethod<double>>(empty);
    case EngineMethod::kRelativePrefixSum:
      return std::make_unique<RelativePrefixSum<double>>(empty, pool);
    case EngineMethod::kFenwick:
      return std::make_unique<FenwickMethod<double>>(empty);
    case EngineMethod::kHierarchicalRps:
      return std::make_unique<HierarchicalRps<double>>(empty, pool);
  }
  return nullptr;
}

std::unique_ptr<QueryMethod<int64_t>> MakeCountMethod(EngineMethod method,
                                                      const Shape& shape,
                                                      ThreadPool* pool) {
  const NdArray<int64_t> empty(shape, 0);
  switch (method) {
    case EngineMethod::kNaive:
      return std::make_unique<NaiveMethod<int64_t>>(empty);
    case EngineMethod::kPrefixSum:
      return std::make_unique<PrefixSumMethod<int64_t>>(empty);
    case EngineMethod::kRelativePrefixSum:
      return std::make_unique<RelativePrefixSum<int64_t>>(empty, pool);
    case EngineMethod::kFenwick:
      return std::make_unique<FenwickMethod<int64_t>>(empty);
    case EngineMethod::kHierarchicalRps:
      return std::make_unique<HierarchicalRps<int64_t>>(empty, pool);
  }
  return nullptr;
}

}  // namespace rps
