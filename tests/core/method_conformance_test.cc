// Conformance suite run against every QueryMethod implementation: all
// methods must agree with each other and with a plain array under a
// mixed stream of range queries, adds and sets. This is the
// cross-method integration test backing the paper's premise that the
// three approaches compute the same answers at different costs.
//
// The second half extends the same differential discipline to the
// storage-backed structures: DurableRps (snapshot + WAL) and PagedRps
// (paged RP + overlay) run randomized interleaved
// Add/Query/Checkpoint/reopen streams against the in-memory
// RelativePrefixSum and must agree cell-for-cell at every reopen.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fenwick_method.h"
#include "core/hierarchical_rps.h"
#include "core/naive_method.h"
#include "core/prefix_sum_method.h"
#include "core/relative_prefix_sum.h"
#include "storage/durable_rps.h"
#include "storage/paged_rps.h"
#include "testing/temp_dir.h"
#include "testing/test_seed.h"
#include "util/random.h"

namespace rps {
namespace {

enum class MethodKind {
  kNaive,
  kPrefixSum,
  kRps,
  kRpsBoxSize2,
  kFenwick,
  kHierarchical,
};

std::string KindName(MethodKind kind) {
  switch (kind) {
    case MethodKind::kNaive:
      return "naive";
    case MethodKind::kPrefixSum:
      return "prefix_sum";
    case MethodKind::kRps:
      return "rps";
    case MethodKind::kRpsBoxSize2:
      return "rps_k2";
    case MethodKind::kFenwick:
      return "fenwick";
    case MethodKind::kHierarchical:
      return "hierarchical";
  }
  return "?";
}

std::unique_ptr<QueryMethod<int64_t>> MakeMethod(MethodKind kind,
                                                 const NdArray<int64_t>& cube) {
  switch (kind) {
    case MethodKind::kNaive:
      return std::make_unique<NaiveMethod<int64_t>>(cube);
    case MethodKind::kPrefixSum:
      return std::make_unique<PrefixSumMethod<int64_t>>(cube);
    case MethodKind::kRps:
      return std::make_unique<RelativePrefixSum<int64_t>>(cube);
    case MethodKind::kRpsBoxSize2:
      return std::make_unique<RelativePrefixSum<int64_t>>(
          cube, CellIndex::Filled(cube.dims(), 2));
    case MethodKind::kFenwick:
      return std::make_unique<FenwickMethod<int64_t>>(cube);
    case MethodKind::kHierarchical:
      return std::make_unique<HierarchicalRps<int64_t>>(cube);
  }
  return nullptr;
}

struct ConformanceParam {
  MethodKind kind;
  int dims;
  int64_t extent;
};

std::string ParamName(const ::testing::TestParamInfo<ConformanceParam>& info) {
  return KindName(info.param.kind) + "_d" + std::to_string(info.param.dims) +
         "_n" + std::to_string(info.param.extent);
}

class MethodConformanceTest
    : public ::testing::TestWithParam<ConformanceParam> {
 protected:
  Shape shape() const {
    return Shape::Hypercube(GetParam().dims, GetParam().extent);
  }

  NdArray<int64_t> RandomCube(Rng& rng) const {
    NdArray<int64_t> cube(shape());
    for (int64_t i = 0; i < cube.num_cells(); ++i) {
      cube.at_linear(i) = rng.UniformInt(-10, 40);
    }
    return cube;
  }

  CellIndex RandomCell(Rng& rng) const {
    const Shape s = shape();
    CellIndex cell = CellIndex::Filled(s.dims(), 0);
    for (int j = 0; j < s.dims(); ++j) {
      cell[j] = rng.UniformInt(0, s.extent(j) - 1);
    }
    return cell;
  }

  Box RandomBox(Rng& rng) const {
    const Shape s = shape();
    CellIndex lo = CellIndex::Filled(s.dims(), 0);
    CellIndex hi = lo;
    for (int j = 0; j < s.dims(); ++j) {
      const int64_t a = rng.UniformInt(0, s.extent(j) - 1);
      const int64_t b = rng.UniformInt(0, s.extent(j) - 1);
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    return Box(lo, hi);
  }
};

TEST_P(MethodConformanceTest, MixedOperationStreamMatchesOracle) {
  Rng rng(0xc0ffee + static_cast<uint64_t>(GetParam().dims));
  NdArray<int64_t> oracle = RandomCube(rng);
  auto method = MakeMethod(GetParam().kind, oracle);
  ASSERT_NE(method, nullptr);
  EXPECT_EQ(method->shape(), shape());

  for (int step = 0; step < 120; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 3));
    switch (op) {
      case 0: {  // range query
        const Box range = RandomBox(rng);
        ASSERT_EQ(method->RangeSum(range), oracle.SumBox(range))
            << method->name() << " step " << step;
        break;
      }
      case 1: {  // add
        const CellIndex cell = RandomCell(rng);
        const int64_t delta = rng.UniformInt(-25, 25);
        oracle.at(cell) += delta;
        method->Add(cell, delta);
        break;
      }
      case 2: {  // set
        const CellIndex cell = RandomCell(rng);
        const int64_t value = rng.UniformInt(-25, 25);
        oracle.at(cell) = value;
        method->Set(cell, value);
        break;
      }
      case 3: {  // point read
        const CellIndex cell = RandomCell(rng);
        ASSERT_EQ(method->ValueAt(cell), oracle.at(cell))
            << method->name() << " step " << step;
        break;
      }
    }
  }
  // Full-cube query at the end.
  EXPECT_EQ(method->RangeSum(Box::All(shape())),
            oracle.SumBox(Box::All(shape())));
}

TEST_P(MethodConformanceTest, RebuildResetsToNewSource) {
  Rng rng(0xd00d);
  NdArray<int64_t> first = RandomCube(rng);
  auto method = MakeMethod(GetParam().kind, first);
  method->Add(RandomCell(rng), 99);

  NdArray<int64_t> second = RandomCube(rng);
  method->Build(second);
  for (int trial = 0; trial < 20; ++trial) {
    const Box range = RandomBox(rng);
    ASSERT_EQ(method->RangeSum(range), second.SumBox(range));
  }
}

TEST_P(MethodConformanceTest, SingleCellRangeEqualsValueAt) {
  Rng rng(0xf00);
  NdArray<int64_t> cube = RandomCube(rng);
  auto method = MakeMethod(GetParam().kind, cube);
  for (int trial = 0; trial < 30; ++trial) {
    const CellIndex cell = RandomCell(rng);
    ASSERT_EQ(method->RangeSum(Box::Cell(cell)), method->ValueAt(cell));
  }
}

TEST_P(MethodConformanceTest, MemoryAccountsPrimaryStructure) {
  Rng rng(0xb0b);
  NdArray<int64_t> cube = RandomCube(rng);
  auto method = MakeMethod(GetParam().kind, cube);
  const MemoryStats memory = method->Memory();
  EXPECT_EQ(memory.primary_cells, cube.num_cells());
  EXPECT_GE(memory.aux_cells, 0);
}

std::vector<ConformanceParam> AllParams() {
  std::vector<ConformanceParam> params;
  for (MethodKind kind :
       {MethodKind::kNaive, MethodKind::kPrefixSum, MethodKind::kRps,
        MethodKind::kRpsBoxSize2, MethodKind::kFenwick,
        MethodKind::kHierarchical}) {
    params.push_back({kind, 1, 24});
    params.push_back({kind, 2, 12});
    params.push_back({kind, 3, 6});
    params.push_back({kind, 4, 4});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodConformanceTest,
                         ::testing::ValuesIn(AllParams()), ParamName);

// ---------------------------------------------------------------------------
// Storage-backed conformance: the durable and paged structures vs the
// in-memory RelativePrefixSum under interleaved updates, queries,
// checkpoints/persists and reopens.

// Every field is 8 bytes wide, so the struct has no padding: gtest
// prints the parameter as raw bytes, the discovered ctest names
// carry that dump, and uninitialised padding gave the tests a
// different name on every build.
struct StorageConformanceParam {
  int64_t dims;
  int64_t extent;
};

std::string StorageParamName(
    const ::testing::TestParamInfo<StorageConformanceParam>& info) {
  return "d" + std::to_string(info.param.dims) + "_n" +
         std::to_string(info.param.extent);
}

class StorageConformanceTest
    : public ::testing::TestWithParam<StorageConformanceParam> {
 protected:
  Shape shape() const {
    return Shape::Hypercube(GetParam().dims, GetParam().extent);
  }

  NdArray<int64_t> RandomCube(Rng& rng) const {
    NdArray<int64_t> cube(shape());
    for (int64_t i = 0; i < cube.num_cells(); ++i) {
      cube.at_linear(i) = rng.UniformInt(-10, 40);
    }
    return cube;
  }

  CellIndex RandomCell(Rng& rng) const {
    const Shape s = shape();
    CellIndex cell = CellIndex::Filled(s.dims(), 0);
    for (int j = 0; j < s.dims(); ++j) {
      cell[j] = rng.UniformInt(0, s.extent(j) - 1);
    }
    return cell;
  }

  Box RandomBox(Rng& rng) const {
    const Shape s = shape();
    CellIndex lo = CellIndex::Filled(s.dims(), 0);
    CellIndex hi = lo;
    for (int j = 0; j < s.dims(); ++j) {
      const int64_t a = rng.UniformInt(0, s.extent(j) - 1);
      const int64_t b = rng.UniformInt(0, s.extent(j) - 1);
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    return Box(lo, hi);
  }

  // Every cell and a batch of random ranges must agree with the
  // oracle structure.
  template <typename StructureT>
  void ExpectCellForCellAgreement(const StructureT& structure,
                                  const RelativePrefixSum<int64_t>& oracle,
                                  Rng& rng, const std::string& context) {
    const Box all = Box::All(shape());
    CellIndex cell = all.lo();
    do {
      ASSERT_EQ(structure.ValueAt(cell), oracle.ValueAt(cell))
          << "cell " << cell.ToString() << " " << context;
    } while (NextIndexInBox(all, cell));
    for (int trial = 0; trial < 16; ++trial) {
      const Box range = RandomBox(rng);
      ASSERT_EQ(structure.RangeSum(range), oracle.RangeSum(range))
          << context;
    }
  }

  testing::ScopedTempDir tmp_{"rps_storage_conf"};
};

TEST_P(StorageConformanceTest, DurableRpsMatchesInMemoryAcrossReopens) {
  const uint64_t seed =
      testing::TestSeed(0xd0d0 + static_cast<uint64_t>(GetParam().dims));
  Rng rng(seed);
  const NdArray<int64_t> source = RandomCube(rng);
  RelativePrefixSum<int64_t> oracle(source);

  auto created =
      DurableRps<int64_t>::Create(source, oracle.geometry().box_size(), tmp_.path());
  ASSERT_TRUE(created.ok())
      << created.status().ToString() << testing::SeedMessage(seed);
  std::optional<DurableRps<int64_t>> durable(std::move(created).value());

  for (int step = 0; step < 200; ++step) {
    const std::string context =
        "step " + std::to_string(step) + testing::SeedMessage(seed);
    const double dice = rng.UniformDouble();
    if (dice < 0.05) {  // checkpoint
      ASSERT_TRUE(durable->Checkpoint().ok()) << context;
    } else if (dice < 0.12) {  // "crash"-free restart
      durable.reset();
      auto reopened = DurableRps<int64_t>::Open(tmp_.path());
      ASSERT_TRUE(reopened.ok())
          << reopened.status().ToString() << context;
      durable.emplace(std::move(reopened).value());
      ExpectCellForCellAgreement(*durable, oracle, rng, context);
    } else if (dice < 0.6) {  // add
      const CellIndex cell = RandomCell(rng);
      const int64_t delta = rng.UniformInt(-25, 25);
      oracle.Add(cell, delta);
      ASSERT_TRUE(durable->Add(cell, delta).ok()) << context;
    } else {  // query
      const Box range = RandomBox(rng);
      ASSERT_EQ(durable->RangeSum(range), oracle.RangeSum(range)) << context;
    }
  }
  ExpectCellForCellAgreement(*durable, oracle, rng,
                             "final" + testing::SeedMessage(seed));
}

TEST_P(StorageConformanceTest, PagedRpsMatchesInMemoryAcrossReopens) {
  const uint64_t seed =
      testing::TestSeed(0xbead + static_cast<uint64_t>(GetParam().dims));
  Rng rng(seed);
  const NdArray<int64_t> source = RandomCube(rng);
  RelativePrefixSum<int64_t> oracle(source);
  const std::string path = tmp_.file("paged.db");

  PagedRps<int64_t>::Options options;
  options.box_size = oracle.geometry().box_size();
  options.page_size = 512;
  options.pool_frames = 8;

  auto pager = FilePager::Create(path, options.page_size);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  auto built = PagedRps<int64_t>::Build(source, std::move(pager).value(),
                                        options);
  ASSERT_TRUE(built.ok())
      << built.status().ToString() << testing::SeedMessage(seed);
  std::unique_ptr<PagedRps<int64_t>> paged = std::move(built).value();

  for (int step = 0; step < 150; ++step) {
    const std::string context =
        "step " + std::to_string(step) + testing::SeedMessage(seed);
    const double dice = rng.UniformDouble();
    if (dice < 0.08) {  // persist + reopen from the file alone
      ASSERT_TRUE(paged->Persist().ok()) << context;
      paged.reset();
      auto reopened_pager = FilePager::OpenExisting(path, options.page_size);
      ASSERT_TRUE(reopened_pager.ok())
          << reopened_pager.status().ToString() << context;
      auto reopened = PagedRps<int64_t>::OpenExisting(
          std::move(reopened_pager).value(), options.pool_frames);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString() << context;
      paged = std::move(reopened).value();
      for (int trial = 0; trial < 16; ++trial) {
        const Box range = RandomBox(rng);
        auto sum = paged->RangeSum(range);
        ASSERT_TRUE(sum.ok()) << context;
        ASSERT_EQ(sum.value(), oracle.RangeSum(range)) << context;
      }
    } else if (dice < 0.6) {  // add
      const CellIndex cell = RandomCell(rng);
      const int64_t delta = rng.UniformInt(-25, 25);
      oracle.Add(cell, delta);
      ASSERT_TRUE(paged->Add(cell, delta).ok()) << context;
    } else {  // query
      const Box range = RandomBox(rng);
      auto sum = paged->RangeSum(range);
      ASSERT_TRUE(sum.ok()) << context;
      ASSERT_EQ(sum.value(), oracle.RangeSum(range)) << context;
    }
  }
  // Final cell-for-cell sweep.
  const Box all = Box::All(shape());
  CellIndex cell = all.lo();
  do {
    auto value = paged->RangeSum(Box::Cell(cell));
    ASSERT_TRUE(value.ok());
    ASSERT_EQ(value.value(), oracle.ValueAt(cell))
        << "cell " << cell.ToString() << testing::SeedMessage(seed);
  } while (NextIndexInBox(all, cell));
}

INSTANTIATE_TEST_SUITE_P(
    StorageStructures, StorageConformanceTest,
    ::testing::ValuesIn(std::vector<StorageConformanceParam>{
        {1, 24}, {2, 12}, {3, 6}}),
    StorageParamName);

}  // namespace
}  // namespace rps
