// Tests for the CheckInvariants self-audit layer: fresh builds and
// updated structures must audit clean; structures reassembled with a
// corrupted cell must be caught.
//
// A self-audit checks internal consistency, not equality with the
// original data (that is `rps_tool verify`, which needs the cube): a
// corruption whose implied source array A' still matches the overlay
// is a valid structure for different data and is deliberately not
// detectable. The corruption tests below therefore poke cells whose
// damage provably leaks across box boundaries.

#include "core/relative_prefix_sum.h"

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/hierarchical_rps.h"
#include "workload/data_gen.h"

namespace rps {
namespace {

AuditOptions Exhaustive() {
  AuditOptions options;
  options.rp_samples = std::numeric_limits<int64_t>::max();
  options.overlay_samples = std::numeric_limits<int64_t>::max();
  options.prefix_samples = std::numeric_limits<int64_t>::max();
  return options;
}

std::vector<int64_t> RpCellsOf(const RelativePrefixSum<int64_t>& rps) {
  const NdArray<int64_t> rp = rps.MaterializeRp();
  std::vector<int64_t> cells;
  for (int64_t i = 0; i < rp.num_cells(); ++i) {
    cells.push_back(rp.at_linear(i));
  }
  return cells;
}

std::vector<int64_t> OverlayValuesOf(const RelativePrefixSum<int64_t>& rps) {
  return rps.MaterializeOverlay();
}

TEST(OverlayGeometryAuditTest, PassesOnValidGeometries) {
  EXPECT_TRUE(OverlayGeometry(Shape{16}, CellIndex{4})
                  .CheckInvariants().ok());
  EXPECT_TRUE(OverlayGeometry(Shape{8, 8}, CellIndex{3, 4})
                  .CheckInvariants().ok());
  EXPECT_TRUE(OverlayGeometry(Shape{5, 6, 7}, CellIndex{2, 3, 7})
                  .CheckInvariants().ok());
  EXPECT_TRUE(OverlayGeometry(Shape{9}, CellIndex{1})
                  .CheckInvariants().ok());
  // Clipped edge boxes (extent not divisible by box side).
  EXPECT_TRUE(OverlayGeometry(Shape{10, 7}, CellIndex{4, 3})
                  .CheckInvariants().ok());
}

TEST(RpsAuditTest, FreshBuildsPassExhaustively) {
  for (const auto& [shape, box] :
       {std::pair{Shape{16}, CellIndex{4}},
        std::pair{Shape{8, 8}, CellIndex{3, 4}},
        std::pair{Shape{10, 7}, CellIndex{4, 3}},
        std::pair{Shape{5, 6, 7}, CellIndex{2, 3, 3}}}) {
    const NdArray<int64_t> cube = UniformCube(shape, -9, 9, 42);
    const RelativePrefixSum<int64_t> rps(cube, box);
    EXPECT_TRUE(rps.CheckInvariants(Exhaustive()).ok())
        << shape.ToString() << " box " << box.ToString();
  }
}

TEST(RpsAuditTest, DefaultSampledOptionsPass) {
  const NdArray<int64_t> cube = UniformCube(Shape{12, 12}, 0, 99, 7);
  const RelativePrefixSum<int64_t> rps(cube);
  EXPECT_TRUE(rps.CheckInvariants().ok());
}

TEST(RpsAuditTest, PassesAfterPointUpdatesAndSets) {
  const Shape shape{9, 7};
  NdArray<int64_t> cube = UniformCube(shape, 0, 9, 3);
  RelativePrefixSum<int64_t> rps(cube, CellIndex{3, 3});
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const CellIndex cell{rng.UniformInt(0, 8), rng.UniformInt(0, 6)};
    if (i % 3 == 0) {
      rps.Set(cell, rng.UniformInt(-5, 5));
    } else {
      rps.Add(cell, rng.UniformInt(-4, 4));
    }
  }
  EXPECT_TRUE(rps.CheckInvariants(Exhaustive()).ok());
}

TEST(RpsAuditTest, PassesAfterBatchUpdates) {
  const Shape shape{8, 8};
  NdArray<int64_t> cube = UniformCube(shape, 0, 9, 11);
  RelativePrefixSum<int64_t> rps(cube, CellIndex{3, 3});
  Rng rng(13);
  std::vector<RelativePrefixSum<int64_t>::CellDelta> batch;
  for (int i = 0; i < 25; ++i) {
    batch.push_back({CellIndex{rng.UniformInt(0, 7), rng.UniformInt(0, 7)},
                     rng.UniformInt(-3, 3)});
  }
  rps.AddBatch(batch);
  EXPECT_TRUE(rps.CheckInvariants(Exhaustive()).ok());
}

TEST(RpsAuditTest, PassesForFloatingPointValues) {
  const Shape shape{7, 9};
  NdArray<double> cube(shape);
  Rng rng(17);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = rng.UniformDouble() * 10.0 - 5.0;
  }
  RelativePrefixSum<double> rps(cube, CellIndex{3, 3});
  for (int i = 0; i < 10; ++i) {
    rps.Add(CellIndex{rng.UniformInt(0, 6), rng.UniformInt(0, 8)},
            rng.UniformDouble());
  }
  EXPECT_TRUE(rps.CheckInvariants(Exhaustive()).ok());
}

TEST(RpsAuditTest, DetectsCorruptedOverlayValue) {
  const NdArray<int64_t> cube = UniformCube(Shape{8, 8}, 0, 9, 19);
  const RelativePrefixSum<int64_t> rps(cube, CellIndex{3, 3});
  std::vector<int64_t> overlay_values = OverlayValuesOf(rps);
  // Any stored slot works: expected values are re-derived from P and
  // RP alone, so a corrupt stored value always disagrees.
  overlay_values[overlay_values.size() / 2] += 7;
  auto corrupted = RelativePrefixSum<int64_t>::FromParts(
      Shape{8, 8}, CellIndex{3, 3}, RpCellsOf(rps),
      std::move(overlay_values));
  ASSERT_TRUE(corrupted.ok());
  const Status audit = corrupted.value().CheckInvariants(Exhaustive());
  EXPECT_FALSE(audit.ok());
}

TEST(RpsAuditTest, DetectsCorruptedAnchorValue) {
  const NdArray<int64_t> cube = UniformCube(Shape{16}, 0, 9, 23);
  const RelativePrefixSum<int64_t> rps(cube, CellIndex{4});
  std::vector<int64_t> overlay_values = OverlayValuesOf(rps);
  // Slot of the anchor of the second box.
  const int64_t slot =
      rps.geometry().AnchorSlotOf(CellIndex{1});
  overlay_values[static_cast<size_t>(slot)] -= 3;
  auto corrupted = RelativePrefixSum<int64_t>::FromParts(
      Shape{16}, CellIndex{4}, RpCellsOf(rps), std::move(overlay_values));
  ASSERT_TRUE(corrupted.ok());
  EXPECT_FALSE(corrupted.value().CheckInvariants(Exhaustive()).ok());
}

TEST(RpsAuditTest, DetectsRpCorruptionLeakingAcrossBoxes) {
  // Corrupting an RP cell reinterprets the box's source values; the
  // damage is visible iff the implied change escapes the box. The
  // last cell of the first box leaks into every later box's stored
  // values, so the exhaustive overlay sweep must catch it.
  const NdArray<int64_t> cube = UniformCube(Shape{8}, 0, 9, 29);
  const RelativePrefixSum<int64_t> rps(cube, CellIndex{4});
  std::vector<int64_t> rp_cells = RpCellsOf(rps);
  rp_cells[3] += 5;  // cell (3): high edge of box 0
  auto corrupted = RelativePrefixSum<int64_t>::FromParts(
      Shape{8}, CellIndex{4}, std::move(rp_cells), OverlayValuesOf(rps));
  ASSERT_TRUE(corrupted.ok());
  EXPECT_FALSE(corrupted.value().CheckInvariants(Exhaustive()).ok());
}

TEST(RpsAuditTest, SizeMismatchesAreRejectedByFromParts) {
  const NdArray<int64_t> cube = UniformCube(Shape{8, 8}, 0, 9, 31);
  const RelativePrefixSum<int64_t> rps(cube, CellIndex{3, 3});
  std::vector<int64_t> rp_cells = RpCellsOf(rps);
  rp_cells.pop_back();
  EXPECT_FALSE(RelativePrefixSum<int64_t>::FromParts(
                   Shape{8, 8}, CellIndex{3, 3}, std::move(rp_cells),
                   OverlayValuesOf(rps))
                   .ok());
}

TEST(HierarchicalAuditTest, FreshBuildsPass) {
  for (const auto& [shape, box] :
       {std::pair{Shape{16}, CellIndex{4}},
        std::pair{Shape{9, 9}, CellIndex{3, 3}},
        std::pair{Shape{8, 6}, CellIndex{3, 4}}}) {
    const NdArray<int64_t> cube = UniformCube(shape, -9, 9, 37);
    const HierarchicalRps<int64_t> hier(cube, box);
    EXPECT_TRUE(hier.CheckInvariants(Exhaustive()).ok())
        << shape.ToString() << " box " << box.ToString();
  }
}

TEST(HierarchicalAuditTest, PassesAfterUpdates) {
  const Shape shape{9, 9};
  NdArray<int64_t> cube = UniformCube(shape, 0, 9, 41);
  HierarchicalRps<int64_t> hier(cube, CellIndex{3, 3});
  Rng rng(43);
  for (int i = 0; i < 30; ++i) {
    hier.Add(CellIndex{rng.UniformInt(0, 8), rng.UniformInt(0, 8)},
             rng.UniformInt(-4, 4));
  }
  EXPECT_TRUE(hier.CheckInvariants(Exhaustive()).ok());
}

TEST(HierarchicalAuditTest, DetectsCorruptedRpArray) {
  const Shape shape{9, 9};
  const CellIndex box{3, 3};
  const NdArray<int64_t> cube = UniformCube(shape, 0, 9, 47);
  const HierarchicalRps<int64_t> hier(cube, box);

  NdArray<int64_t> rp = hier.rp_array();
  // High-edge cell of box (0, 0): the implied source change alters
  // the box total, which the coarse cube re-aggregation must catch.
  rp.at(CellIndex{2, 2}) += 5;

  const uint32_t full = (1u << shape.dims()) - 1;
  std::vector<std::unique_ptr<RelativePrefixSum<int64_t>>> faces(
      static_cast<size_t>(full));
  for (uint32_t mask = 1; mask < full; ++mask) {
    faces[static_cast<size_t>(mask)] =
        std::make_unique<RelativePrefixSum<int64_t>>(hier.face(mask));
  }
  auto corrupted = HierarchicalRps<int64_t>::FromParts(
      shape, box, std::move(rp),
      RelativePrefixSum<int64_t>(hier.coarse()), std::move(faces));
  ASSERT_TRUE(corrupted.ok());
  EXPECT_FALSE(corrupted.value().CheckInvariants(Exhaustive()).ok());
}

}  // namespace
}  // namespace rps
