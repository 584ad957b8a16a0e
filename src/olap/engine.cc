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

namespace {

template <typename T>
std::unique_ptr<QueryMethod<T>> MakeMethod(EngineMethod method,
                                           const NdArray<T>& source,
                                           ThreadPool* pool) {
  switch (method) {
    case EngineMethod::kNaive:
      return std::make_unique<NaiveMethod<T>>(source);
    case EngineMethod::kPrefixSum:
      return std::make_unique<PrefixSumMethod<T>>(source);
    case EngineMethod::kRelativePrefixSum:
      return std::make_unique<RelativePrefixSum<T>>(source, pool);
    case EngineMethod::kFenwick:
      return std::make_unique<FenwickMethod<T>>(source);
    case EngineMethod::kHierarchicalRps:
      return std::make_unique<HierarchicalRps<T>>(source, pool);
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<QueryMethod<double>> MakeDoubleMethod(
    EngineMethod method, const NdArray<double>& source, ThreadPool* pool) {
  return MakeMethod(method, source, pool);
}

std::unique_ptr<QueryMethod<int64_t>> MakeCountMethod(
    EngineMethod method, const NdArray<int64_t>& source, ThreadPool* pool) {
  return MakeMethod(method, source, pool);
}

}  // namespace rps
