// Experiment E9 -- ablations of this implementation's design choices
// (DESIGN.md Section 3):
//   A. Overlay build strategy: recursive projection-subtraction
//      (shipped) vs direct region sums from the prefix array.
//   B. Per-dimension sqrt box sizes vs one uniform k on rectangular
//      cubes.
//   C. Update enumeration soundness at scale: measured touched cells
//      vs closed-form cost model across box shapes.

#include <cstdio>

#include "bench/table.h"
#include "core/cost_model.h"
#include "core/relative_prefix_sum.h"
#include "util/stopwatch.h"
#include "workload/data_gen.h"
#include "workload/query_gen.h"

namespace rps {
namespace {

// Direct (oracle) overlay build: each stored value computed from the
// prefix array via its defining region sums -- O(4^d) per overlay
// cell instead of the shipped O(2^|S|) recursion.
template <typename T>
T DirectOverlayValue(const NdArray<T>& prefix, const OverlayGeometry& geo,
                     const CellIndex& box_index, const CellIndex& offsets) {
  const int d = geo.dims();
  const CellIndex anchor = geo.AnchorOf(box_index);
  CellIndex cell = anchor;
  for (int j = 0; j < d; ++j) cell[j] = anchor[j] + offsets[j];
  // val(c) = Sum(prod_{j in S}[a_j+1..c_j] x prod_{j notin S}[0..a_j])
  //        - Sum(prod_{j in S}[a_j+1..c_j] x prod_{j notin S}{a_j}).
  CellIndex lo1 = CellIndex::Filled(d, 0);
  CellIndex hi1 = CellIndex::Filled(d, 0);
  CellIndex lo2 = CellIndex::Filled(d, 0);
  CellIndex hi2 = CellIndex::Filled(d, 0);
  for (int j = 0; j < d; ++j) {
    if (offsets[j] > 0) {
      lo1[j] = anchor[j] + 1;
      hi1[j] = cell[j];
      lo2[j] = anchor[j] + 1;
      hi2[j] = cell[j];
    } else {
      lo1[j] = 0;
      hi1[j] = anchor[j];
      lo2[j] = anchor[j];
      hi2[j] = anchor[j];
    }
  }
  return SumFromPrefixArray(prefix, Box(lo1, hi1)) -
         SumFromPrefixArray(prefix, Box(lo2, hi2));
}

void AblationBuildStrategy() {
  bench::PrintHeader("E9a", "overlay build: recursive vs direct region sums");
  bench::Table table(
      {"cube", "box", "recursive build ms", "direct build ms", "agree"});
  struct Config {
    Shape shape;
    CellIndex box;
  };
  const Config configs[] = {
      {Shape{256, 256}, CellIndex{16, 16}},
      {Shape{64, 64, 64}, CellIndex{8, 8, 8}},
      {Shape{24, 24, 24, 24}, CellIndex{5, 5, 5, 5}},
  };
  for (const Config& config : configs) {
    const NdArray<int64_t> cube = UniformCube(config.shape, 0, 9, 3);

    Stopwatch recursive_watch;
    const RelativePrefixSum<int64_t> rps(cube, config.box);
    const double recursive_ms = recursive_watch.ElapsedSeconds() * 1e3;

    // Direct build of every overlay value.
    Stopwatch direct_watch;
    NdArray<int64_t> prefix = cube;
    PrefixSumInPlace(prefix);
    const OverlayGeometry& geo = rps.geometry();
    bool agree = true;
    CellIndex box_index = CellIndex::Filled(config.shape.dims(), 0);
    do {
      const CellIndex extents = geo.ExtentsOf(box_index);
      std::vector<int64_t> ext(static_cast<size_t>(config.shape.dims()));
      for (int j = 0; j < config.shape.dims(); ++j) {
        ext[static_cast<size_t>(j)] = extents[j];
      }
      const Shape box_shape = Shape::FromExtents(ext);
      CellIndex offsets = CellIndex::Filled(config.shape.dims(), 0);
      do {
        bool stored = false;
        for (int j = 0; j < config.shape.dims(); ++j) {
          if (offsets[j] == 0) {
            stored = true;
            break;
          }
        }
        if (!stored) continue;
        const int64_t direct =
            DirectOverlayValue(prefix, geo, box_index, offsets);
        if (direct != rps.OverlayAt(box_index, offsets)) agree = false;
      } while (NextIndex(box_shape, offsets));
    } while (NextIndex(geo.grid_shape(), box_index));
    const double direct_ms = direct_watch.ElapsedSeconds() * 1e3;

    table.AddRow({config.shape.ToString(), config.box.ToString(),
                  bench::Fmt("%.1f", recursive_ms),
                  bench::Fmt("%.1f", direct_ms), agree ? "yes" : "NO"});
  }
  table.Print();
  std::printf("Expected: identical values; recursive build avoids the 4^d\n"
              "region sums per overlay cell and wins as d grows.\n");
}

void AblationBoxShape() {
  bench::PrintHeader(
      "E9b", "per-dimension sqrt(n_j) boxes vs uniform k on a 1024x64 cube");
  const Shape shape{1024, 64};
  const NdArray<int64_t> cube = UniformCube(shape, 0, 9, 5);
  bench::Table table({"box size", "worst-case cells", "measured avg cells"});
  const CellIndex candidates[] = {
      RecommendedBoxSize(shape),  // (32, 8)
      CellIndex{8, 8},
      CellIndex{16, 16},
      CellIndex{32, 32},
      CellIndex{64, 64},
  };
  for (const CellIndex& box : candidates) {
    const OverlayGeometry geometry(shape, box);
    RelativePrefixSum<int64_t> rps(cube, box);
    UniformUpdateGen updates(shape, 5, 77);
    int64_t touched = 0;
    const int kUpdates = 300;
    for (int i = 0; i < kUpdates; ++i) {
      const UpdateOp op = updates.Next();
      touched += rps.Add(op.cell, op.delta).total();
    }
    table.AddRow({box.ToString(),
                  bench::FmtInt(RpsWorstCaseUpdateCells(geometry).total()),
                  bench::Fmt("%.1f", static_cast<double>(touched) /
                                         static_cast<double>(kUpdates))});
  }
  table.Print();
  std::printf("Expected: the per-dimension sqrt choice (first row) is at or\n"
              "near the minimum; uniform k misfits rectangular cubes.\n");
}

void AblationCostModelAtScale() {
  bench::PrintHeader("E9c", "measured vs closed-form update cells at scale");
  bench::Table table({"cube", "box", "updates", "measured cells",
                      "predicted cells", "agree"});
  struct Config {
    Shape shape;
    CellIndex box;
  };
  const Config configs[] = {
      {Shape{300, 300}, CellIndex{17, 17}},
      {Shape{100, 100, 20}, CellIndex{10, 10, 4}},
      {Shape{1 << 14}, CellIndex{128}},
  };
  for (const Config& config : configs) {
    const NdArray<int64_t> cube = UniformCube(config.shape, 0, 9, 6);
    const OverlayGeometry geometry(config.shape, config.box);
    RelativePrefixSum<int64_t> rps(cube, config.box);
    UniformUpdateGen updates(config.shape, 5, 88);
    int64_t measured = 0;
    int64_t predicted = 0;
    const int kUpdates = 200;
    for (int i = 0; i < kUpdates; ++i) {
      const UpdateOp op = updates.Next();
      measured += rps.Add(op.cell, op.delta).total();
      predicted += RpsUpdateCells(geometry, op.cell).total();
    }
    table.AddRow({config.shape.ToString(), config.box.ToString(),
                  bench::FmtInt(kUpdates), bench::FmtInt(measured),
                  bench::FmtInt(predicted),
                  measured == predicted ? "yes" : "NO"});
  }
  table.Print();
}

}  // namespace
}  // namespace rps

int main() {
  rps::AblationBuildStrategy();
  rps::AblationBoxShape();
  rps::AblationCostModelAtScale();
  return 0;
}
