// Unit tests for the obs metrics layer: counter semantics, histogram
// bucket boundaries and percentile math, and registry behavior.

#include "obs/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace rps::obs {
namespace {

TEST(PerThreadCellsTest, CarriesValueAcrossCopies) {
  PerThreadCells<2> cells;
  cells.Add(0, 41);
  cells.Add(0, 1);
  cells.Add(1, 7);

  const PerThreadCells<2> copy = cells;
  EXPECT_EQ(copy.Sum(0), 42);
  EXPECT_EQ(copy.Sum(1), 7);

  PerThreadCells<2> assigned;
  assigned.Add(0, 5);
  assigned = cells;
  EXPECT_EQ(assigned.Sum(0), 42);
  EXPECT_EQ(assigned.Sum(1), 7);

  cells.Reset();
  EXPECT_EQ(cells.Sum(0), 0);
  EXPECT_EQ(copy.Sum(0), 42);  // copies are independent
  int64_t totals[2];
  copy.SumAll(totals);
  EXPECT_EQ(totals[0], 42);
  EXPECT_EQ(totals[1], 7);
}

TEST(CounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Increment();
  counter.Increment(9);
  EXPECT_EQ(counter.Value(), 10);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.5);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

// Bucket i covers (2^(i-1), 2^i] nanoseconds.
TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(5), 3);

  for (int i = 1; i < Histogram::kNumFiniteBuckets; ++i) {
    const int64_t bound = Histogram::BucketBoundNanos(i);
    // An exact power of two lands in its own bucket; one past it in
    // the next (or overflow for the last finite bound).
    EXPECT_EQ(Histogram::BucketIndex(bound), i) << "bound 2^" << i;
    const int above = i + 1 < Histogram::kNumFiniteBuckets
                          ? i + 1
                          : Histogram::kNumFiniteBuckets;
    EXPECT_EQ(Histogram::BucketIndex(bound + 1), above) << "bound 2^" << i;
  }
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX),
            Histogram::kNumFiniteBuckets);
}

TEST(HistogramTest, ObserveFillsBucketsCountAndSum) {
  Histogram hist;
  hist.ObserveNanos(1);     // bucket 0
  hist.ObserveNanos(3);     // bucket 2
  hist.ObserveNanos(4);     // bucket 2
  hist.ObserveNanos(-5);    // clamps to 0 -> bucket 0
  hist.Observe(1e-6);       // 1000 ns -> bucket 10 (512, 1024]

  EXPECT_EQ(hist.Count(), 5);
  EXPECT_EQ(hist.BucketCount(0), 2);
  EXPECT_EQ(hist.BucketCount(2), 2);
  EXPECT_EQ(hist.BucketCount(10), 1);
  EXPECT_NEAR(hist.SumSeconds(), (1 + 3 + 4 + 0 + 1000) * 1e-9, 1e-15);

  hist.Reset();
  EXPECT_EQ(hist.Count(), 0);
  EXPECT_EQ(hist.BucketCount(2), 0);
  EXPECT_DOUBLE_EQ(hist.SumSeconds(), 0.0);
}

TEST(HistogramTest, PercentileExactForConstantSamples) {
  Histogram hist;
  // 4 observations, all in bucket 2 (range (2, 4] ns). With every
  // sample in the rank bucket the quantile is knowable exactly: the
  // bucket mean IS the constant value. Interpolation would report up
  // to the bucket's upper bound (4 ns for a 3 ns constant).
  for (int i = 0; i < 4; ++i) hist.ObserveNanos(3);

  EXPECT_DOUBLE_EQ(hist.Percentile(0.25), 3e-9);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.50), 3e-9);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.95), 3e-9);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.99), 3e-9);
  EXPECT_DOUBLE_EQ(hist.Percentile(1.00), 3e-9);
  // Out-of-range q clamps.
  EXPECT_NEAR(hist.Percentile(-1.0), hist.Percentile(0.0), 1e-15);
  EXPECT_NEAR(hist.Percentile(2.0), hist.Percentile(1.0), 1e-15);
}

TEST(HistogramTest, PercentileExactAtBucketBoundary) {
  Histogram hist;
  // A constant sample sitting exactly on a bucket bound (1024 ns =
  // 2^10, the upper edge of bucket 10) must report 1024 ns, not the
  // interpolated (1022, 1024] midpoint-or-worse.
  for (int i = 0; i < 100; ++i) hist.ObserveNanos(1024);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.50), 1024e-9);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.95), 1024e-9);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.99), 1024e-9);

  // The mean stays clamped to the rank bucket once samples spread
  // out: one outlier in a higher bucket must not drag p50 above the
  // p50 bucket's upper bound.
  hist.ObserveNanos(1'000'000);
  EXPECT_LE(hist.Percentile(0.50), 1024e-9);
}

TEST(HistogramTest, PercentileSpansBuckets) {
  Histogram hist;
  // 2 fast (bucket 0), 1 slow (bucket 4: (8, 16] ns).
  hist.ObserveNanos(1);
  hist.ObserveNanos(1);
  hist.ObserveNanos(16);

  // p50: rank 2 of 3, still in bucket 0 -> at most 1 ns.
  EXPECT_LE(hist.Percentile(0.50), 1e-9 + 1e-15);
  // p99: rank 3, bucket 4; only observation there -> interpolates to
  // the bucket's upper bound.
  EXPECT_NEAR(hist.Percentile(0.99), 16e-9, 1e-15);
}

TEST(HistogramTest, PercentileEmptyAndOverflow) {
  Histogram hist;
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 0.0);

  hist.ObserveNanos(INT64_MAX);  // overflow bucket
  EXPECT_EQ(hist.BucketCount(Histogram::kNumFiniteBuckets), 1);
  // All samples in overflow: the mean is exact and above the last
  // finite bound, so it wins.
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5),
                   static_cast<double>(INT64_MAX) * 1e-9);

  // With other samples present the overflow bucket's lower bound is
  // the best defensible claim.
  hist.ObserveNanos(1);
  hist.ObserveNanos(1);
  EXPECT_NEAR(
      hist.Percentile(0.99),
      static_cast<double>(
          Histogram::BucketBoundNanos(Histogram::kNumFiniteBuckets - 1)) *
          1e-9,
      1e-12);
}

TEST(MetricRegistryTest, GetReturnsSameObjectForSameNameAndLabels) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("rps_test_total");
  Counter& b = registry.GetCounter("rps_test_total");
  EXPECT_EQ(&a, &b);

  Counter& labeled =
      registry.GetCounter("rps_test_total", {{"method", "rps"}});
  EXPECT_NE(&a, &labeled);
  EXPECT_EQ(registry.num_metrics(), 2);
}

TEST(MetricRegistryTest, ResetAllZeroesValuesButKeepsRegistrations) {
  MetricRegistry registry;
  registry.GetCounter("rps_test_total").Increment(7);
  registry.GetGauge("rps_test_gauge").Set(3.0);
  registry.GetHistogram("rps_test_seconds").ObserveNanos(100);

  registry.ResetAll();

  EXPECT_EQ(registry.num_metrics(), 3);
  EXPECT_EQ(registry.GetCounter("rps_test_total").Value(), 0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("rps_test_gauge").Value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("rps_test_seconds").Count(), 0);
}

TEST(MetricRegistryTest, GlobalIsOneRegistry) {
  Counter& a = MetricRegistry::Global().GetCounter("rps_obs_test_global");
  Counter& b = MetricRegistry::Global().GetCounter("rps_obs_test_global");
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace rps::obs
