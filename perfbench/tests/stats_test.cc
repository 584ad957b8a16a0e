// Unit checks of the benchmark's statistics and span arithmetic.
//
//   cmake --build .bench_build --target perfbench_stats_test
//   .bench_build/perfbench_stats_test     (or: ctest --test-dir .bench_build)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

using perfbench::Interval;

void TestNearestRank() {
  EXPECT(perfbench::NearestRank(0.5, 1) == 1);
  EXPECT(perfbench::NearestRank(0.5, 10) == 5);
  EXPECT(perfbench::NearestRank(0.5, 11) == 6);
  EXPECT(perfbench::NearestRank(0.99, 100) == 99);
  EXPECT(perfbench::NearestRank(0.99, 1000) == 990);
  EXPECT(perfbench::NearestRank(1.0, 7) == 7);
  EXPECT(perfbench::NearestRank(0.001, 7) == 1);
  EXPECT(perfbench::NearestRank(0.5, 0) == 0);

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT(perfbench::Percentile(values, 0.5) == 50);
  EXPECT(perfbench::Percentile(values, 0.99) == 99);
  EXPECT(perfbench::Percentile(values, 1.0) == 100);
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
  // Interquartile mean: the lowest and highest quarter are dropped.
  EXPECT(perfbench::InterquartileMean({1, 2, 3, 4, 5, 6, 7, 100}) == 4.5);
  EXPECT(perfbench::InterquartileMean({5}) == 5);
  EXPECT(perfbench::InterquartileMean({-50, 2, 4, 90}) == 3);
}

void TestTenBeyond() {
  // p99 needs 1000 samples: rank 990, ten beyond it.
  EXPECT(perfbench::SamplesBeyond(0.99, 1000) == 10);
  EXPECT(perfbench::PercentileSupported(0.99, 1000));
  EXPECT(!perfbench::PercentileSupported(0.99, 999));
  EXPECT(!perfbench::PercentileSupported(0.99, 100));
  // p50 needs 20.
  EXPECT(perfbench::PercentileSupported(0.5, 20));
  EXPECT(!perfbench::PercentileSupported(0.5, 19));
  EXPECT(!perfbench::PercentileSupported(0.5, 0));
}

void TestHistogram() {
  using perfbench::LatencyHistogram;
  // Bucketing: exact below 256 ns, then 256 sub-buckets per octave.
  const LatencyHistogram fine;
  EXPECT(fine.BucketOf(0) == 0);
  EXPECT(fine.BucketOf(255) == 255);
  EXPECT(fine.BucketOf(256) == 256);
  EXPECT(fine.BucketOf(511) == 511);
  EXPECT(fine.BucketOf(512) == 512);
  EXPECT(fine.BucketOf(513) == 512);  // width 2 above 512
  EXPECT(fine.BucketOf(int64_t{1} << 62) == fine.buckets() - 1);
  // Coarse: 32 sub-buckets per octave.
  const LatencyHistogram coarse(5);
  EXPECT(coarse.BucketOf(31) == 31);
  EXPECT(coarse.BucketOf(32) == 32);
  EXPECT(coarse.BucketOf(64) == 64);
  EXPECT(coarse.BucketOf(65) == 64);
  EXPECT(coarse.BucketOf(int64_t{1} << 62) == coarse.buckets() - 1);
  for (int64_t v : {int64_t{300}, int64_t{1234}, int64_t{987654},
                    int64_t{123456789}}) {
    for (const LatencyHistogram* h : {&fine, &coarse}) {
      const auto [lower, width] = h->BucketRange(h->BucketOf(v));
      EXPECT(lower <= static_cast<double>(v) &&
             static_cast<double>(v) < lower + width);
    }
    EXPECT(fine.BucketRange(fine.BucketOf(v)).second / static_cast<double>(v) <=
           1.0 / 256);
    EXPECT(coarse.BucketRange(coarse.BucketOf(v)).second /
               static_cast<double>(v) <=
           1.0 / 32);
  }

  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT(h.count() == 100);
  // Exact buckets: the interpolated value lies inside the rank's cell.
  EXPECT(Near(h.Percentile(0.5), 50, 0.5));
  EXPECT(Near(h.Percentile(0.99), 99, 0.5));

  // Interpolation by rank inside one wide bucket.
  LatencyHistogram wide;
  for (int i = 0; i < 4; ++i) wide.Record(1 << 20);
  const auto [lower, width] = fine.BucketRange(fine.BucketOf(1 << 20));
  EXPECT(Near(wide.Percentile(0.25), lower + 0.125 * width, 1e-9));
  EXPECT(Near(wide.Percentile(1.0), lower + 0.875 * width, 1e-9));

  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  b.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT(a.count() == 3);
  EXPECT(Near(a.Percentile(0.5), 20, 0.5));
}

void TestSelfTime() {
  // No children: the whole duration.
  EXPECT(perfbench::SelfTimeNs({100, 200}, {}) == 100);
  // Disjoint children are subtracted.
  EXPECT(perfbench::SelfTimeNs({0, 100}, {{10, 20}, {50, 80}}) == 60);
  // Overlapping children count once.
  EXPECT(perfbench::SelfTimeNs({0, 100}, {{10, 50}, {40, 60}}) == 50);
  // Nested child inside another child.
  EXPECT(perfbench::SelfTimeNs({0, 100}, {{10, 90}, {20, 30}}) == 20);
  // Children are clipped to the parent.
  EXPECT(perfbench::SelfTimeNs({0, 100}, {{-50, 10}, {90, 150}}) == 80);
  // A child outside the parent covers nothing.
  EXPECT(perfbench::SelfTimeNs({0, 100}, {{200, 300}}) == 100);
  // Children covering everything leave zero, never negative.
  EXPECT(perfbench::SelfTimeNs({0, 100}, {{0, 100}, {0, 100}}) == 0);
  // Unsorted input.
  EXPECT(perfbench::SelfTimeNs({0, 100}, {{70, 80}, {10, 20}}) == 80);
}

void TestMetricNames() {
  EXPECT(perfbench::ValidMetricName("query_p50_us"));
  EXPECT(perfbench::ValidMetricName("olap.resolve_ns"));
  EXPECT(perfbench::ValidMetricName("trace.op_p50_overhead"));
  EXPECT(perfbench::ValidMetricName("a-b.c_d9"));
  EXPECT(perfbench::ValidMetricName("9lives"));
  EXPECT(!perfbench::ValidMetricName(""));
  EXPECT(!perfbench::ValidMetricName("_leading"));
  EXPECT(!perfbench::ValidMetricName(".leading"));
  EXPECT(!perfbench::ValidMetricName("has space"));
  EXPECT(!perfbench::ValidMetricName("slash/unit"));
  EXPECT(!perfbench::ValidMetricName("µs"));
  EXPECT(perfbench::ValidMetricName(std::string(64, 'a')));
  EXPECT(!perfbench::ValidMetricName(std::string(65, 'a')));
}

}  // namespace

int main() {
  TestNearestRank();
  TestTenBeyond();
  TestHistogram();
  TestSelfTime();
  TestMetricNames();
  if (g_failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
