// Copy-on-write clones. Every clonable method: a clone and its source
// take different updates and each still equals its own flat model,
// bit for bit. RelativePrefixSum: a clone copies no cell, a write
// unshares exactly the box-row chunks its scatter reaches, and a copy
// never sees the source's later writes, also in box rows the source
// created before the copy (DurableRps::FreezeImage's case).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fenwick_method.h"
#include "core/hierarchical_rps.h"
#include "core/method.h"
#include "core/naive_method.h"
#include "core/prefix_sum_method.h"
#include "core/relative_prefix_sum.h"
#include "cube/box.h"
#include "cube/nd_array.h"
#include "util/random.h"

namespace rps {
namespace {

// Bit pattern of a value: doubles compare bitwise, not by ==.
uint64_t Bits(int64_t value) { return static_cast<uint64_t>(value); }
uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Cent-valued doubles are whole cents held in a double: every sum is
// an exact integer, so every summation order yields the same bits.
template <typename T>
T RandomValue(Rng& rng, int64_t bound) {
  return static_cast<T>(rng.UniformInt(-bound, bound));
}

template <typename T>
NdArray<T> RandomCube(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  NdArray<T> cube(shape);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = RandomValue<T>(rng, 99999);
  }
  return cube;
}

CellIndex RandomCell(Rng& rng, const Shape& shape) {
  CellIndex cell = CellIndex::Filled(shape.dims(), 0);
  for (int j = 0; j < shape.dims(); ++j) {
    cell[j] = rng.UniformInt(0, shape.extent(j) - 1);
  }
  return cell;
}

Box RandomBox(Rng& rng, const Shape& shape) {
  CellIndex lo = CellIndex::Filled(shape.dims(), 0);
  CellIndex hi = CellIndex::Filled(shape.dims(), 0);
  for (int j = 0; j < shape.dims(); ++j) {
    const int64_t a = rng.UniformInt(0, shape.extent(j) - 1);
    const int64_t b = rng.UniformInt(0, shape.extent(j) - 1);
    lo[j] = std::min(a, b);
    hi[j] = std::max(a, b);
  }
  return Box(lo, hi);
}

template <typename T>
using Factory =
    std::function<std::unique_ptr<QueryMethod<T>>(const NdArray<T>&)>;

// Every method whose Clone() is not null.
template <typename T>
std::vector<std::pair<std::string, Factory<T>>> ClonableMethods() {
  return {
      {"naive",
       [](const NdArray<T>& a) { return std::make_unique<NaiveMethod<T>>(a); }},
      {"prefix_sum",
       [](const NdArray<T>& a) {
         return std::make_unique<PrefixSumMethod<T>>(a);
       }},
      {"relative_prefix_sum",
       [](const NdArray<T>& a) {
         return std::make_unique<RelativePrefixSum<T>>(a, nullptr);
       }},
      {"fenwick",
       [](const NdArray<T>& a) {
         return std::make_unique<FenwickMethod<T>>(a);
       }},
      {"hierarchical_rps",
       [](const NdArray<T>& a) {
         return std::make_unique<HierarchicalRps<T>>(a, nullptr);
       }},
  };
}

// `method` equals `model` on every cell and on 200 random boxes.
template <typename T>
void ExpectMatchesModel(const QueryMethod<T>& method, const NdArray<T>& model,
                        uint64_t seed) {
  const Shape& shape = model.shape();
  CellIndex cell = CellIndex::Filled(shape.dims(), 0);
  do {
    ASSERT_EQ(Bits(method.ValueAt(cell)), Bits(model.at(cell)))
        << "cell " << cell.ToString();
  } while (NextIndex(shape, cell));
  Rng rng(seed);
  for (int q = 0; q < 200; ++q) {
    const Box box = RandomBox(rng, shape);
    ASSERT_EQ(Bits(method.RangeSum(box)), Bits(model.SumBox(box)))
        << "box " << box.lo().ToString() << ".." << box.hi().ToString();
  }
}

template <typename T>
void CloneAndSourceDiverge() {
  const std::vector<Shape> shapes = {Shape{13, 10}, Shape{6, 5, 4}};
  for (const auto& [name, make] : ClonableMethods<T>()) {
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(name + " " + shape.ToString());
      NdArray<T> source_model = RandomCube<T>(shape, 11);
      const std::unique_ptr<QueryMethod<T>> source = make(source_model);
      const std::unique_ptr<QueryMethod<T>> clone = source->Clone();
      ASSERT_NE(clone, nullptr);
      NdArray<T> clone_model = source_model;
      // Interleaved, different seeded updates on the two copies.
      Rng source_rng(21);
      Rng clone_rng(22);
      for (int step = 0; step < 60; ++step) {
        const CellIndex a = RandomCell(source_rng, shape);
        const T da = RandomValue<T>(source_rng, 999999);
        source->Add(a, da);
        source_model.at(a) += da;
        const CellIndex b = RandomCell(clone_rng, shape);
        const T db = RandomValue<T>(clone_rng, 999999);
        clone->Add(b, db);
        clone_model.at(b) += db;
      }
      ExpectMatchesModel(*source, source_model, 31);
      ExpectMatchesModel(*clone, clone_model, 32);
    }
  }
}

TEST(CopyOnWriteTest, CloneAndSourceTakeDifferentAddsInt64) {
  CloneAndSourceDiverge<int64_t>();
}

TEST(CopyOnWriteTest, CloneAndSourceTakeDifferentAddsCentDoubles) {
  CloneAndSourceDiverge<double>();
}

struct ChunkCase {
  Shape shape;
  CellIndex box_size;
};

// d = 1..3, clipped last box rows, k0 = 1 and k0 = n0.
std::vector<ChunkCase> ChunkCases() {
  return {
      {Shape{10}, CellIndex{4}},          {Shape{10}, CellIndex{10}},
      {Shape{10, 7}, CellIndex{4, 3}},    {Shape{6, 5}, CellIndex{1, 5}},
      {Shape{9, 9}, CellIndex{9, 3}},     {Shape{7, 5, 6}, CellIndex{3, 2, 4}},
      {Shape{5, 4, 3}, CellIndex{1, 2, 2}}, {Shape{4, 3, 5}, CellIndex{4, 3, 2}},
  };
}

// The box rows OverlayGeometry::Scatter writes for an update of `cell`.
std::set<int64_t> RowsReached(const OverlayGeometry& geo,
                              const CellIndex& cell) {
  const auto row_of_rp = [&](int64_t i) {
    for (int64_t r = 0; r < geo.num_box_rows(); ++r) {
      const OverlayGeometry::BoxRow& row = geo.box_row(r);
      if (i >= row.rp_begin && i < row.rp_begin + row.rp_cells) return r;
    }
    return int64_t{-1};
  };
  const auto row_of_slot = [&](int64_t slot) {
    for (int64_t r = 0; r < geo.num_box_rows(); ++r) {
      const OverlayGeometry::BoxRow& row = geo.box_row(r);
      if (slot >= row.slot_begin && slot < row.slot_begin + row.slots) {
        return r;
      }
    }
    return int64_t{-1};
  };
  int64_t at[kMaxDims];
  for (int j = 0; j < cell.dims(); ++j) at[j] = cell[j];
  std::set<int64_t> rows;
  geo.Scatter(
      at,
      [&](int64_t start, int64_t len) {
        rows.insert(row_of_rp(start));
        rows.insert(row_of_rp(start + len - 1));
      },
      [&](int64_t slot, int64_t len) {
        rows.insert(row_of_slot(slot));
        rows.insert(row_of_slot(slot + len - 1));
      },
      [&](int64_t box, int64_t count) {
        for (int64_t i = 0; i < count; ++i) {
          rows.insert(row_of_slot(geo.AnchorSlotOfLinear(box + i)));
        }
      });
  return rows;
}

TEST(CopyOnWriteTest, CloneCopiesNothingAndAWriteUnsharesTheRowsItReaches) {
  for (const ChunkCase& c : ChunkCases()) {
    SCOPED_TRACE(c.shape.ToString() + " boxes " + c.box_size.ToString());
    const RelativePrefixSum<int64_t> source(RandomCube<int64_t>(c.shape, 5),
                                            c.box_size, nullptr);
    const OverlayGeometry& geo = source.geometry();
    EXPECT_EQ(source.UnsharedCells(), source.Memory().total());
    Rng rng(41);
    for (int64_t r = 0; r < geo.num_box_rows(); ++r) {
      SCOPED_TRACE("box row " + std::to_string(r));
      const std::unique_ptr<QueryMethod<int64_t>> copy = source.Clone();
      auto& clone = static_cast<RelativePrefixSum<int64_t>&>(*copy);
      EXPECT_EQ(clone.UnsharedCells(), 0);
      EXPECT_EQ(source.UnsharedCells(), 0);
      for (int64_t q = 0; q < geo.num_box_rows(); ++q) {
        EXPECT_EQ(clone.box_row_cells(q).data(),
                  source.box_row_cells(q).data());
      }

      // One Add in box row r, at a random cell of it.
      const OverlayGeometry::BoxRow& row = geo.box_row(r);
      const int64_t stride = c.shape.Stride(0);
      CellIndex cell = RandomCell(rng, c.shape);
      cell[0] = rng.UniformInt(row.rp_begin / stride,
                               (row.rp_begin + row.rp_cells) / stride - 1);
      ASSERT_EQ(geo.BoxRowOf(cell[0]), r);
      clone.Add(cell, 7);

      const std::set<int64_t> reached = RowsReached(geo, cell);
      int64_t reached_cells = 0;
      for (int64_t q = 0; q < geo.num_box_rows(); ++q) {
        const bool unshared =
            clone.box_row_cells(q).data() != source.box_row_cells(q).data();
        EXPECT_EQ(unshared, reached.count(q) == 1) << "box row " << q;
        // The reached rows are the covering one and every later one.
        EXPECT_EQ(reached.count(q) == 1, q >= r) << "box row " << q;
        if (unshared) reached_cells += geo.box_row(q).cells();
      }
      EXPECT_EQ(clone.UnsharedCells(), reached_cells);
      EXPECT_EQ(source.UnsharedCells(), 0);
      EXPECT_EQ(clone.ValueAt(cell), source.ValueAt(cell) + 7);
    }
  }
}

// A copy must not see the source's later writes, in box rows the
// source created before the copy too: copying renews the source's
// owner token, so the source copies a shared row before writing it.
TEST(CopyOnWriteTest, CopyKeepsItsStateWhenTheSourceWritesOn) {
  for (const ChunkCase& c : ChunkCases()) {
    SCOPED_TRACE(c.shape.ToString() + " boxes " + c.box_size.ToString());
    NdArray<double> model = RandomCube<double>(c.shape, 9);
    RelativePrefixSum<double> source(model, c.box_size, nullptr);
    Rng rng(51);
    // The source writes (and so owns) its rows before the copy, too.
    for (int step = 0; step < 20; ++step) {
      const CellIndex cell = RandomCell(rng, c.shape);
      const double delta = RandomValue<double>(rng, 999999);
      source.Add(cell, delta);
      model.at(cell) += delta;
    }
    const RelativePrefixSum<double> copy(source);
    const NdArray<double> rp_before = copy.MaterializeRp();
    const std::vector<double> overlay_before = copy.MaterializeOverlay();

    NdArray<double> source_model = model;
    for (int step = 0; step < 40; ++step) {
      const CellIndex cell = RandomCell(rng, c.shape);
      const double delta = RandomValue<double>(rng, 999999);
      source.Add(cell, delta);
      source_model.at(cell) += delta;
    }
    const NdArray<double> rp_after = copy.MaterializeRp();
    const std::vector<double> overlay_after = copy.MaterializeOverlay();
    ASSERT_EQ(std::memcmp(rp_before.data(), rp_after.data(),
                          static_cast<size_t>(rp_before.num_cells()) *
                              sizeof(double)),
              0)
        << "the copy's RP cells changed";
    ASSERT_EQ(overlay_before.size(), overlay_after.size());
    ASSERT_EQ(std::memcmp(overlay_before.data(), overlay_after.data(),
                          overlay_before.size() * sizeof(double)),
              0)
        << "the copy's overlay values changed";
    ExpectMatchesModel(copy, model, 61);
    ExpectMatchesModel(source, source_model, 62);
    EXPECT_TRUE(copy.CheckInvariants().ok());
    EXPECT_TRUE(source.CheckInvariants().ok());
  }
}

}  // namespace
}  // namespace rps
