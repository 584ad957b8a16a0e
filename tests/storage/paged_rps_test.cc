// Integration tests for the disk-resident configuration of
// Section 4.4: correctness against the in-memory structure and the
// naive oracle, page-I/O accounting, box/page alignment, fault
// handling, and a real-file run.

#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "storage/paged_rps.h"
#include "testing/temp_dir.h"
#include "util/random.h"

namespace rps {
namespace {

NdArray<int64_t> RandomCube(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  NdArray<int64_t> cube(shape);
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    cube.at_linear(i) = rng.UniformInt(0, 50);
  }
  return cube;
}

Box RandomBox(const Shape& shape, Rng& rng) {
  CellIndex lo = CellIndex::Filled(shape.dims(), 0);
  CellIndex hi = lo;
  for (int j = 0; j < shape.dims(); ++j) {
    const int64_t a = rng.UniformInt(0, shape.extent(j) - 1);
    const int64_t b = rng.UniformInt(0, shape.extent(j) - 1);
    lo[j] = std::min(a, b);
    hi[j] = std::max(a, b);
  }
  return Box(lo, hi);
}

TEST(PagedRpsTest, MatchesInMemoryStructure) {
  const Shape shape{20, 20};
  NdArray<int64_t> cube = RandomCube(shape, 1);
  RelativePrefixSum<int64_t> memory_rps(cube, CellIndex{4, 4});

  PagedRps<int64_t>::Options options;
  options.box_size = CellIndex{4, 4};
  options.page_size = 256;
  options.pool_frames = 16;
  auto built = PagedRps<int64_t>::Build(
      cube, std::make_unique<MemPager>(options.page_size), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& paged = *built.value();

  CellIndex cell = CellIndex::Filled(2, 0);
  do {
    auto prefix = paged.PrefixSum(cell);
    ASSERT_TRUE(prefix.ok());
    ASSERT_EQ(prefix.value(), memory_rps.PrefixSum(cell)) << cell.ToString();
  } while (NextIndex(shape, cell));
}

TEST(PagedRpsTest, QueriesAndUpdatesMatchOracle) {
  const Shape shape{18, 15};
  NdArray<int64_t> cube = RandomCube(shape, 2);
  PagedRps<int64_t>::Options options;
  options.box_size = CellIndex{4, 4};
  options.page_size = 256;
  options.pool_frames = 8;
  auto paged = std::move(PagedRps<int64_t>::Build(
                             cube, std::make_unique<MemPager>(256), options))
                   .value();

  Rng rng(0x99);
  for (int step = 0; step < 80; ++step) {
    if (step % 3 == 0) {
      const CellIndex cell{rng.UniformInt(0, 17), rng.UniformInt(0, 14)};
      const int64_t delta = rng.UniformInt(-10, 10);
      cube.at(cell) += delta;
      auto stats = paged->Add(cell, delta);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      // Touched-cell accounting matches the in-memory cost model.
      const OverlayGeometry geo(shape, CellIndex{4, 4});
      const UpdateStats predicted = RpsUpdateCells(geo, cell);
      ASSERT_EQ(stats.value().primary_cells, predicted.primary_cells);
      ASSERT_EQ(stats.value().aux_cells, predicted.aux_cells);
    } else {
      const Box range = RandomBox(shape, rng);
      auto sum = paged->RangeSum(range);
      ASSERT_TRUE(sum.ok());
      ASSERT_EQ(sum.value(), cube.SumBox(range)) << range.ToString();
    }
  }
}

TEST(PagedRpsTest, OverlayOnDiskMatchesOracleToo) {
  const Shape shape{16, 16};
  NdArray<int64_t> cube = RandomCube(shape, 3);
  PagedRps<int64_t>::Options options;
  options.box_size = CellIndex{4, 4};
  options.page_size = 256;
  options.pool_frames = 8;
  options.overlay_on_disk = true;
  auto paged = std::move(PagedRps<int64_t>::Build(
                             cube, std::make_unique<MemPager>(256), options))
                   .value();
  EXPECT_TRUE(paged->overlay_on_disk());

  Rng rng(0xaa);
  for (int step = 0; step < 60; ++step) {
    const CellIndex cell{rng.UniformInt(0, 15), rng.UniformInt(0, 15)};
    const int64_t delta = rng.UniformInt(-5, 5);
    cube.at(cell) += delta;
    ASSERT_TRUE(paged->Add(cell, delta).ok());
    const Box range = RandomBox(shape, rng);
    ASSERT_EQ(paged->RangeSum(range).value(), cube.SumBox(range));
  }
}

TEST(PagedRpsTest, BoxAlignedQueryTouchesConstantPages) {
  // Section 4.4: with the RP region of each overlay box aligned to
  // whole pages, a prefix lookup touches exactly one RP page
  // (plus in-RAM overlay values) -- so with a cold pool each query
  // costs a bounded number of page reads regardless of cube size.
  const Shape shape{32, 32};
  NdArray<int64_t> cube = RandomCube(shape, 4);
  PagedRps<int64_t>::Options options;
  options.box_size = CellIndex{4, 8};  // 32 cells = 1 page of 256B int64
  options.page_size = 256;
  options.pool_frames = 1;  // defeat caching: every miss is a read
  auto paged = std::move(PagedRps<int64_t>::Build(
                             cube, std::make_unique<MemPager>(256), options))
                   .value();
  ASSERT_EQ(paged->rp_pages_per_box(), 1);

  Rng rng(0xbb);
  int64_t total_reads = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const CellIndex cell{rng.UniformInt(0, 31), rng.UniformInt(0, 31)};
    paged->ResetCounters();
    ASSERT_TRUE(paged->PrefixSum(cell).ok());
    // One RP cell -> at most one page read with a 1-frame pool (zero
    // when the previous query already resides on the same box page).
    EXPECT_LE(paged->page_io().page_reads, 1) << cell.ToString();
    total_reads += paged->page_io().page_reads;
  }
  EXPECT_GT(total_reads, 0);
}

TEST(PagedRpsTest, ReadFaultPropagates) {
  const Shape shape{12, 12};
  NdArray<int64_t> cube = RandomCube(shape, 5);
  PagedRps<int64_t>::Options options;
  options.box_size = CellIndex{3, 3};
  options.page_size = 256;
  options.pool_frames = 1;
  auto base = std::make_unique<MemPager>(256);
  MemPager* base_ptr = base.get();
  // Wrap the pager in a fault injector owned by a small adapter.
  class OwningFaultPager : public Pager {
   public:
    OwningFaultPager(std::unique_ptr<Pager> base)
        : base_(std::move(base)), faulty_(base_.get()) {}
    FaultInjectionPager& faulty() { return faulty_; }
    int64_t page_size() const override { return faulty_.page_size(); }
    int64_t num_pages() const override { return faulty_.num_pages(); }
    Status Grow(int64_t count) override { return faulty_.Grow(count); }
    Status ReadPage(PageId id, std::byte* out) override {
      Status s = faulty_.ReadPage(id, out);
      if (s.ok()) ++stats_.page_reads;
      return s;
    }
    Status WritePage(PageId id, const std::byte* data) override {
      Status s = faulty_.WritePage(id, data);
      if (s.ok()) ++stats_.page_writes;
      return s;
    }

   private:
    std::unique_ptr<Pager> base_;
    FaultInjectionPager faulty_;
  };
  auto owning = std::make_unique<OwningFaultPager>(std::move(base));
  OwningFaultPager* owning_ptr = owning.get();
  auto paged = std::move(PagedRps<int64_t>::Build(cube, std::move(owning),
                                                  options))
                   .value();
  (void)base_ptr;

  // The 1-frame pool still holds the last page Build touched; query a
  // cell in the first box so the RP read is guaranteed cold.
  owning_ptr->faulty().FailReadAfter(1);
  auto result = paged->PrefixSum(CellIndex{0, 0});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  // Structure stays usable (the fault was one-shot).
  EXPECT_TRUE(paged->PrefixSum(CellIndex{0, 0}).ok());
}

TEST(PagedRpsTest, WorksOnRealFile) {
  const Shape shape{16, 16};
  NdArray<int64_t> cube = RandomCube(shape, 6);
  const testing::ScopedTempDir tmp("rps_paged");
  const std::string path = tmp.file("paged.db");
  auto pager = std::move(FilePager::Create(path, 512)).value();
  PagedRps<int64_t>::Options options;
  options.box_size = CellIndex{4, 4};
  options.page_size = 512;
  options.pool_frames = 4;
  auto paged =
      std::move(PagedRps<int64_t>::Build(cube, std::move(pager), options))
          .value();
  Rng rng(0xcc);
  for (int trial = 0; trial < 20; ++trial) {
    const Box range = RandomBox(shape, rng);
    ASSERT_EQ(paged->RangeSum(range).value(), cube.SumBox(range));
  }
  ASSERT_TRUE(paged->Add(CellIndex{3, 3}, 7).ok());
  cube.at(CellIndex{3, 3}) += 7;
  EXPECT_EQ(paged->RangeSum(Box::All(shape)).value(),
            cube.SumBox(Box::All(shape)));
  ASSERT_TRUE(paged->Flush().ok());
}

}  // namespace
}  // namespace rps
