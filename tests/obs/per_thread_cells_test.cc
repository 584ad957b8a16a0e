// Per-thread metric cells: every add lands in exactly one cell, so the
// folded counts are exact once the writers are done -- with one cell
// per thread, with more live writers than cells (the shared overflow
// cell), across a cell's release and reuse, and after a Reset. This
// binary carries the `concurrency` ctest label, so the tsan preset
// runs it under ThreadSanitizer.

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace rps::obs {
namespace {

constexpr int kAdds = 5000;

/// Runs `threads` threads of `body(t)` that are all alive at once:
/// each runs its body, then waits until every thread has run it.
template <typename Body>
void RunConcurrently(int threads, Body body) {
  std::latch done(threads);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      body(t);
      done.arrive_and_wait();
    });
  }
  for (std::thread& thread : pool) thread.join();
}

TEST(PerThreadCellsConcurrencyTest, CounterAndHistogramSumExactly) {
  constexpr int kThreads = 8;
  Counter counter;
  Histogram hist;
  RunConcurrently(kThreads, [&](int t) {
    for (int i = 0; i < kAdds; ++i) {
      counter.Increment(t + 1);
      hist.ObserveNanos(int64_t{1} << (t % 8));
    }
  });
  EXPECT_EQ(counter.Value(), int64_t{kAdds} * kThreads * (kThreads + 1) / 2);
  EXPECT_EQ(hist.Count(), int64_t{kAdds} * kThreads);
  int64_t in_buckets = 0;
  int64_t sum_nanos = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    in_buckets += hist.BucketCount(i);
  }
  for (int t = 0; t < kThreads; ++t) sum_nanos += int64_t{1} << (t % 8);
  EXPECT_EQ(in_buckets, hist.Count());
  EXPECT_DOUBLE_EQ(hist.SumSeconds(),
                   static_cast<double>(sum_nanos * kAdds) * 1e-9);
}

TEST(PerThreadCellsConcurrencyTest, MoreLiveThreadsThanCellsUseOverflow) {
  constexpr int kThreads = cells_internal::kCells + 8;
  Counter counter;
  Histogram hist;
  std::vector<int> cell_of(kThreads, -1);
  RunConcurrently(kThreads, [&](int t) {
    for (int i = 0; i < kAdds; ++i) {
      counter.Increment();
      hist.ObserveNanos(100);
    }
    cell_of[static_cast<size_t>(t)] = cells_internal::t_cell;
  });
  int overflowed = 0;
  for (const int cell : cell_of) {
    ASSERT_GE(cell, 0);
    ASSERT_LE(cell, cells_internal::kCells);
    if (cell == cells_internal::kCells) ++overflowed;
  }
  // At most kCells threads own a cell, so at least 8 shared the
  // overflow cell.
  EXPECT_GE(overflowed, kThreads - cells_internal::kCells);
  EXPECT_EQ(counter.Value(), int64_t{kAdds} * kThreads);
  EXPECT_EQ(hist.Count(), int64_t{kAdds} * kThreads);
  EXPECT_DOUBLE_EQ(hist.SumSeconds(),
                   static_cast<double>(int64_t{100} * kAdds * kThreads) * 1e-9);
}

TEST(PerThreadCellsConcurrencyTest, ReleasedCellIsReusedAndKeepsItsCounts) {
  Counter counter;
  int first_cell = -1;
  int second_cell = -1;
  std::thread first([&] {
    for (int i = 0; i < kAdds; ++i) counter.Increment();
    first_cell = cells_internal::t_cell;
  });
  first.join();
  // The first thread released its cell at exit; the next thread to
  // claim one takes the lowest free cell, which is that one, and adds
  // on top of what the first thread left in it.
  std::thread second([&] {
    for (int i = 0; i < kAdds; ++i) counter.Increment(2);
    second_cell = cells_internal::t_cell;
  });
  second.join();
  ASSERT_GE(first_cell, 0);
  ASSERT_LT(first_cell, cells_internal::kCells);
  EXPECT_EQ(second_cell, first_cell);
  EXPECT_EQ(counter.Value(), int64_t{3} * kAdds);
}

TEST(PerThreadCellsConcurrencyTest, ResetWithNoWriterZeroesEveryCell) {
  constexpr int kThreads = 6;
  Counter counter;
  Histogram hist;
  PerThreadCells<2> cells;
  const auto write = [&](int t) {
    for (int i = 0; i < kAdds; ++i) {
      counter.Increment();
      hist.ObserveNanos(1000);
      cells.Add(t % 2, 1);
    }
  };
  RunConcurrently(kThreads, write);
  counter.Reset();
  hist.Reset();
  cells.Reset();
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(hist.Count(), 0);
  EXPECT_EQ(hist.SumSeconds(), 0.0);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(cells.Sum(0) + cells.Sum(1), 0);

  RunConcurrently(kThreads, write);
  EXPECT_EQ(counter.Value(), int64_t{kAdds} * kThreads);
  EXPECT_EQ(hist.Count(), int64_t{kAdds} * kThreads);
  EXPECT_EQ(cells.Sum(0), int64_t{kAdds} * (kThreads / 2));
  EXPECT_EQ(cells.Sum(1), int64_t{kAdds} * (kThreads / 2));
}

TEST(PerThreadCellsConcurrencyTest, ScrapesDuringWritesLoseNothing) {
  // Renders read every cell while its owner stores to it (the race
  // ThreadSanitizer watches); once the writers are done, reads are
  // exact.
  MetricRegistry registry;
  Histogram& hist = registry.GetHistogram("rps_test_cells_seconds");
  Counter& counter = registry.GetCounter("rps_test_cells_total");
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = registry.RenderText();
      const std::string json = registry.RenderJson();
      EXPECT_NE(text.find("rps_test_cells_seconds_count"), std::string::npos);
      EXPECT_NE(json.find("rps_test_cells_total"), std::string::npos);
    }
  });
  constexpr int kThreads = 4;
  RunConcurrently(kThreads, [&](int t) {
    for (int i = 0; i < kAdds; ++i) {
      hist.ObserveNanos(1 + t * 1000);
      counter.Increment();
    }
  });
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(counter.Value(), int64_t{kAdds} * kThreads);
  EXPECT_EQ(hist.Count(), int64_t{kAdds} * kThreads);
}

}  // namespace
}  // namespace rps::obs
