// RelativePrefixSum::AddBatch against one Add per record: on every
// cell, bit for bit, for int64 and integral doubles, on d = 1..4
// shapes with clipped edge boxes, k = 1 and k = n; and the cells it
// reports are exactly the union of the cells the records' Scatters
// reach, each counted once.

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/relative_prefix_sum.h"
#include "util/random.h"

namespace rps {
namespace {

struct Geometry {
  Shape shape;
  CellIndex box;
};

std::vector<Geometry> Geometries() {
  return {
      {Shape{37}, CellIndex{6}},
      {Shape{37}, CellIndex{1}},
      {Shape{37}, CellIndex{37}},
      {Shape{23, 19}, CellIndex{5, 4}},
      {Shape{23, 19}, CellIndex{1, 1}},
      {Shape{23, 19}, CellIndex{23, 19}},
      {Shape{16, 40}, CellIndex{4, 17}},
      {Shape{9, 7, 5}, CellIndex{4, 3, 2}},
      {Shape{9, 7, 5}, CellIndex{1, 7, 1}},
      {Shape{9, 7, 5}, CellIndex{9, 2, 5}},
      {Shape{13, 11, 9}, CellIndex{3, 4, 2}},
      {Shape{6, 5, 4, 3}, CellIndex{4, 2, 3, 2}},
      {Shape{5, 4, 3, 3}, CellIndex{1, 1, 1, 1}},
      {Shape{7, 6, 5, 4}, CellIndex{2, 3, 2, 3}},
      {Shape{5, 4, 3, 3}, CellIndex{5, 4, 3, 3}},
  };
}

enum class Kind { kBoxRow, kUniform, kSingle, kEmpty, kDuplicates, kFirstBox };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kBoxRow:
      return "box_row";
    case Kind::kUniform:
      return "uniform";
    case Kind::kSingle:
      return "single";
    case Kind::kEmpty:
      return "empty";
    case Kind::kDuplicates:
      return "duplicates";
    case Kind::kFirstBox:
      return "first_box";
  }
  return "?";
}

template <typename T>
std::vector<typename QueryMethod<T>::CellDelta> MakeBatch(
    const Geometry& g, Kind kind, uint64_t seed) {
  Rng rng(seed);
  const int d = g.shape.dims();
  const auto delta = [&] { return static_cast<T>(rng.UniformInt(-50, 50)); };
  std::vector<typename QueryMethod<T>::CellDelta> batch;
  const auto random_cell = [&](const CellIndex& lo, const CellIndex& hi) {
    CellIndex cell = CellIndex::Filled(d, 0);
    for (int j = 0; j < d; ++j) cell[j] = rng.UniformInt(lo[j], hi[j]);
    return cell;
  };
  CellIndex lo = CellIndex::Filled(d, 0);
  CellIndex hi = CellIndex::Filled(d, 0);
  for (int j = 0; j < d; ++j) hi[j] = g.shape.extent(j) - 1;
  switch (kind) {
    case Kind::kEmpty:
      break;
    case Kind::kSingle:
      batch.push_back({random_cell(lo, hi), delta()});
      break;
    case Kind::kUniform:
      for (int i = 0; i < 60; ++i) {
        batch.push_back({random_cell(lo, hi), delta()});
      }
      break;
    case Kind::kBoxRow: {
      // The last box row along dimension 0, clipped when k0 does not
      // divide n0.
      lo[0] = (g.shape.extent(0) - 1) / g.box[0] * g.box[0];
      for (int i = 0; i < 60; ++i) {
        batch.push_back({random_cell(lo, hi), delta()});
      }
      break;
    }
    case Kind::kDuplicates: {
      const CellIndex a = random_cell(lo, hi);
      const CellIndex b = random_cell(lo, hi);
      for (int i = 0; i < 12; ++i) {
        batch.push_back({i % 3 == 0 ? b : a, delta()});
      }
      break;
    }
    case Kind::kFirstBox:
      for (int j = 0; j < d; ++j) hi[j] = g.box[j] - 1;
      for (int i = 0; i < 40; ++i) {
        batch.push_back({random_cell(lo, hi), delta()});
      }
      break;
  }
  return batch;
}

template <typename T>
NdArray<T> RandomCube(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  NdArray<T> cube(shape);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = static_cast<T>(rng.UniformInt(-99, 99));
  }
  return cube;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// The cells the records' Scatters write: RP cells by row-major index,
// overlay cells by slot.
template <typename T>
UpdateStats UnionOfScatters(
    const OverlayGeometry& geo,
    const std::vector<typename QueryMethod<T>::CellDelta>& batch) {
  std::set<int64_t> rp;
  std::set<int64_t> slots;
  for (const auto& record : batch) {
    int64_t at[kMaxDims];
    for (int j = 0; j < record.cell.dims(); ++j) at[j] = record.cell[j];
    geo.Scatter(
        at,
        [&](int64_t start, int64_t len) {
          for (int64_t i = 0; i < len; ++i) rp.insert(start + i);
        },
        [&](int64_t slot, int64_t len) {
          for (int64_t i = 0; i < len; ++i) slots.insert(slot + i);
        },
        [&](int64_t box, int64_t count) {
          for (int64_t i = 0; i < count; ++i) {
            slots.insert(geo.AnchorSlotOfLinear(box + i));
          }
        });
  }
  return UpdateStats{static_cast<int64_t>(rp.size()),
                     static_cast<int64_t>(slots.size())};
}

template <typename T>
void CheckAllBatches() {
  const std::vector<Geometry> geometries = Geometries();
  for (size_t gi = 0; gi < geometries.size(); ++gi) {
    const Geometry& g = geometries[gi];
    const NdArray<T> cube = RandomCube<T>(g.shape, 100 + gi);
    for (const Kind kind : {Kind::kBoxRow, Kind::kUniform, Kind::kSingle,
                            Kind::kEmpty, Kind::kDuplicates, Kind::kFirstBox}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string where = g.shape.ToString() + " box " +
                                  g.box.ToString() + " " + KindName(kind) +
                                  " seed " + std::to_string(seed);
        RelativePrefixSum<T> one_by_one(cube, g.box, nullptr);
        RelativePrefixSum<T> batched(cube, g.box, nullptr);
        const auto batch = MakeBatch<T>(g, kind, 7 * gi + seed);
        UpdateStats per_record;
        for (const auto& record : batch) {
          per_record += one_by_one.Add(record.cell, record.delta);
        }
        const UpdateStats stats = batched.AddBatch(batch);

        const NdArray<T> want_rp = one_by_one.MaterializeRp();
        const NdArray<T> got_rp = batched.MaterializeRp();
        std::vector<T> want(want_rp.data(),
                            want_rp.data() + want_rp.num_cells());
        std::vector<T> got(got_rp.data(),
                           got_rp.data() + got_rp.num_cells());
        EXPECT_TRUE(SameBits(want, got)) << "RP cells differ: " << where;
        EXPECT_TRUE(SameBits(one_by_one.MaterializeOverlay(),
                             batched.MaterializeOverlay()))
            << "overlay values differ: " << where;

        const UpdateStats reached =
            UnionOfScatters<T>(batched.geometry(), batch);
        EXPECT_EQ(stats.primary_cells, reached.primary_cells) << where;
        EXPECT_EQ(stats.aux_cells, reached.aux_cells) << where;
        if (kind == Kind::kSingle || kind == Kind::kEmpty) {
          EXPECT_EQ(stats.primary_cells, per_record.primary_cells) << where;
          EXPECT_EQ(stats.aux_cells, per_record.aux_cells) << where;
        }

        AuditOptions audit;
        audit.rp_samples = audit.overlay_samples = audit.prefix_samples =
            g.shape.num_cells() * 4;
        const Status status = batched.CheckInvariants(audit);
        EXPECT_TRUE(status.ok()) << status.ToString() << " " << where;
      }
    }
  }
}

TEST(AddBatchTest, EqualsPerRecordAddBitwiseInt64) {
  CheckAllBatches<int64_t>();
}

TEST(AddBatchTest, EqualsPerRecordAddBitwiseIntegralDoubles) {
  CheckAllBatches<double>();
}

// A batch applied to a clone leaves the source as it was and copies
// only the box rows it writes.
TEST(AddBatchTest, BatchOnACloneLeavesTheSource) {
  const Shape shape{23, 19};
  const NdArray<double> cube = RandomCube<double>(shape, 3);
  RelativePrefixSum<double> source(cube, CellIndex{5, 4}, nullptr);
  const std::vector<double> before = source.MaterializeOverlay();
  const NdArray<double> before_rp = source.MaterializeRp();
  std::unique_ptr<QueryMethod<double>> clone = source.Clone();
  const auto batch =
      MakeBatch<double>({shape, CellIndex{5, 4}}, Kind::kBoxRow, 9);
  clone->AddBatch(batch);
  EXPECT_TRUE(SameBits(before, source.MaterializeOverlay()));
  EXPECT_TRUE(source.MaterializeRp() == before_rp);
  // The last box row holds rows 20..22: 3 * 19 RP cells and its boxes'
  // overlay values; the other box rows stay shared.
  const auto& rps = static_cast<const RelativePrefixSum<double>&>(*clone);
  const OverlayGeometry::BoxRow& last = rps.geometry().box_row(4);
  EXPECT_EQ(clone->UnsharedCells(), last.cells());
}

// The per-thread batch buffers stay allocated for batches of a few
// hundred records and are freed after a batch that grows them past
// their cap.
TEST(AddBatchTest, LargeBatchFreesItsScratch) {
  using Scratch = internal_overlay::BatchScratch<int64_t, 2>;
  const Shape shape{64, 64};
  RelativePrefixSum<int64_t> rps(RandomCube<int64_t>(shape, 5),
                                 CellIndex{8, 8}, nullptr);
  Rng rng(11);
  const auto batch_of = [&](int n) {
    std::vector<QueryMethod<int64_t>::CellDelta> batch;
    for (int i = 0; i < n; ++i) {
      batch.push_back({CellIndex{rng.UniformInt(0, 63), rng.UniformInt(0, 63)},
                       rng.UniformInt(-9, 9)});
    }
    return batch;
  };
  const auto small = batch_of(256);
  const auto large = batch_of(20000);
  rps.AddBatch(large);  // frees whatever earlier batches left
  EXPECT_EQ(Scratch::Local().bytes(), 0);
  rps.AddBatch(small);
  const int64_t kept = Scratch::Local().bytes();
  EXPECT_GT(kept, 0);
  EXPECT_LE(kept, Scratch::kKeepBytes);
  rps.AddBatch(large);
  EXPECT_EQ(Scratch::Local().bytes(), 0);
  rps.AddBatch(small);
  EXPECT_EQ(Scratch::Local().bytes(), kept);
}

}  // namespace
}  // namespace rps
