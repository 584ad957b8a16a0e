// Statistics used by the benchmark: latency histograms, percentile
// ranks, span self time and the metric-name rule. Header-only so the
// unit checks in tests/stats_test.cc compile without the engine.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples:
/// the smallest rank r with r >= q * n.
inline int64_t NearestRank(double q, int64_t n) {
  if (n <= 0) return 0;
  const int64_t r = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) -
                                                   1e-9));
  return std::clamp<int64_t>(r, 1, n);
}

/// Samples strictly beyond the nearest-rank q percentile.
inline int64_t SamplesBeyond(double q, int64_t n) {
  return n <= 0 ? 0 : n - NearestRank(q, n);
}

/// A percentile is reported only when at least ten samples lie beyond
/// it; otherwise a single outlier decides the value.
inline bool PercentileSupported(double q, int64_t n) {
  return SamplesBeyond(q, n) >= 10;
}

/// Nearest-rank percentile of unsorted `values` (reorders them).
inline double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  const auto r = static_cast<size_t>(
      NearestRank(q, static_cast<int64_t>(values.size())) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<int64_t>(r),
                   values.end());
  return values[r];
}

/// Median with the two middle values averaged for even counts (the
/// convention of Python's statistics.median).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Mean of the middle half of `values` (the interquartile mean): the
/// lowest and highest quarter are dropped, by count.
inline double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double total = 0;
  for (size_t i = drop; i < values.size() - drop; ++i) total += values[i];
  return total / static_cast<double>(values.size() - 2 * drop);
}

/// Log-linear latency histogram in nanoseconds: exact below 256 ns,
/// then 256 sub-buckets per power of two (0.4% resolution). Fixed
/// size (70 KB at the default 8 bits), so recording stays in cache
/// however long the run. `sub_bits` trades resolution for size.
/// Percentiles interpolate by rank inside the bucket.
class LatencyHistogram {
 public:
  static constexpr int kMaxExponent = 40;  // ~18 minutes

  explicit LatencyHistogram(int sub_bits = 8)
      : sub_bits_(sub_bits),
        sub_(int64_t{1} << sub_bits),
        counts_(static_cast<size_t>(buckets()), 0) {}

  int64_t buckets() const {
    return sub_ + (kMaxExponent - sub_bits_ + 1) * sub_;
  }

  int64_t BucketOf(int64_t nanos) const {
    if (nanos < 0) nanos = 0;
    if (nanos < sub_) return nanos;
    int exponent = 63 - __builtin_clzll(static_cast<uint64_t>(nanos));
    if (exponent > kMaxExponent) {
      exponent = kMaxExponent;
      nanos = (int64_t{2} << kMaxExponent) - 1;
    }
    const int shift = exponent - sub_bits_;
    const int64_t sub = (nanos >> shift) & (sub_ - 1);
    return sub_ + static_cast<int64_t>(shift) * sub_ + sub;
  }
  /// [lower, lower + width) of bucket b.
  std::pair<double, double> BucketRange(int64_t b) const {
    if (b < sub_) return {static_cast<double>(b), 1.0};
    const int shift = static_cast<int>((b - sub_) / sub_);
    const int64_t sub = (b - sub_) % sub_;
    return {static_cast<double>((sub_ + sub) << shift),
            static_cast<double>(int64_t{1} << shift)};
  }

  void Record(int64_t nanos) {
    ++counts_[static_cast<size_t>(BucketOf(nanos))];
    ++count_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  int64_t count() const { return count_; }

  /// Nearest-rank percentile, interpolated inside its bucket.
  double Percentile(double q) const {
    if (count_ == 0) return 0;
    const int64_t rank = NearestRank(q, count_);
    int64_t before = 0;
    for (size_t b = 0; b < counts_.size(); ++b) {
      const int64_t c = counts_[b];
      if (before + c >= rank) {
        const auto [lower, width] = BucketRange(static_cast<int64_t>(b));
        const double within =
            (static_cast<double>(rank - before) - 0.5) / static_cast<double>(c);
        return lower + within * width;
      }
      before += c;
    }
    return 0;
  }

 private:
  int sub_bits_;
  int64_t sub_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
};

/// Half-open time interval [start, end) in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Self time of a span: its duration minus the part of it that its
/// children cover. Children are clipped to the parent and overlapping
/// children count once, so concurrent children cannot drive it
/// negative.
inline int64_t SelfTimeNs(Interval span, std::vector<Interval> children) {
  const int64_t duration = std::max<int64_t>(0, span.end - span.start);
  for (Interval& child : children) {
    child.start = std::clamp(child.start, span.start, span.end);
    child.end = std::clamp(child.end, span.start, span.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t reach = span.start;
  for (const Interval& child : children) {
    const int64_t from = std::max(child.start, reach);
    if (child.end > from) {
      covered += child.end - from;
      reach = child.end;
    }
  }
  return duration - covered;
}

/// Metric names: 1 to 64 characters from letters, digits, '_', '.'
/// and '-', starting with a letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
