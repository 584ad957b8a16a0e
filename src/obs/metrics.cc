#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace rps::obs {
namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// `k1="v1",k2="v2"` -- the text between the braces of a Prometheus
/// sample line, and the registry key suffix.
std::string RenderLabels(const Labels& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  return out;
}

/// A sample line's name+labels part, with `extra` spliced in as an
/// additional label (for histogram `le`).
std::string SampleName(const std::string& name, const Labels& labels,
                       const std::string& extra = "") {
  std::string out = name;
  const std::string rendered = RenderLabels(labels);
  if (!rendered.empty() || !extra.empty()) {
    out += '{';
    out += rendered;
    if (!rendered.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
  return out;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += JsonEscape(labels[i].first);
    out += "\":\"";
    out += JsonEscape(labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

/// Every bucket of a histogram read once, plus their sum. Observers
/// bump a bucket and the count with separate relaxed adds, so a scrape
/// racing them renders this instead of Count() to stay
/// self-consistent: the buckets always add up to the reported total.
struct BucketSnapshot {
  explicit BucketSnapshot(const Histogram& hist) {
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      counts[i] = hist.BucketCount(i);
      total += counts[i];
    }
  }
  int64_t counts[Histogram::kNumBuckets];
  int64_t total = 0;
};

}  // namespace

int Histogram::BucketIndex(int64_t nanos) {
  if (nanos <= 1) return 0;
  if (nanos > BucketBoundNanos(kNumFiniteBuckets - 1)) {
    return kNumFiniteBuckets;  // overflow bucket
  }
  // Smallest i with nanos <= 2^i, i.e. ceil(log2(nanos)).
  return static_cast<int>(std::bit_width(static_cast<uint64_t>(nanos - 1)));
}

void Histogram::ObserveNanos(int64_t nanos) {
  if (nanos < 0) nanos = 0;
  buckets_[static_cast<size_t>(BucketIndex(nanos))].Increment();
  count_.Increment();
  sum_nanos_.Increment(nanos);
}

void Histogram::ObserveNanosBatch(int64_t nanos, int64_t count) {
  if (count <= 0) return;
  if (nanos < 0) nanos = 0;
  buckets_[static_cast<size_t>(BucketIndex(nanos))].Increment(count);
  count_.Increment(count);
  sum_nanos_.Increment(nanos * count);
}

double Histogram::Percentile(double q) const {
  const int64_t count = count_.Load();
  if (count <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;

  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const int64_t in_bucket = buckets_[static_cast<size_t>(i)].Load();
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // When the rank bucket holds every observation, the true quantile
    // is knowable exactly from the sum: all samples share the bucket,
    // so their mean (clamped to the bucket) IS the constant value.
    // Plain interpolation would report up to the bucket's upper bound
    // -- a 2x over-report for a constant sample at a bucket boundary.
    const bool all_here = in_bucket == count;
    const double mean = all_here ? static_cast<double>(sum_nanos_.Load()) /
                                       static_cast<double>(count)
                                 : 0.0;
    if (i == kNumFiniteBuckets) {
      // Overflow: its lower bound is the best defensible claim, unless
      // every sample landed here and the (higher) mean speaks exactly.
      const double lower =
          static_cast<double>(BucketBoundNanos(kNumFiniteBuckets - 1));
      return (all_here ? std::max(lower, mean) : lower) * 1e-9;
    }
    const double lo =
        i == 0 ? 0.0 : static_cast<double>(BucketBoundNanos(i - 1));
    const double hi = static_cast<double>(BucketBoundNanos(i));
    if (all_here) {
      return std::min(hi, std::max(lo, mean)) * 1e-9;
    }
    const double fraction = static_cast<double>(rank - cumulative) /
                            static_cast<double>(in_bucket);
    return (lo + fraction * (hi - lo)) * 1e-9;
  }
  return 0.0;  // unreachable: count > 0 places rank in some bucket
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.Reset();
  count_.Reset();
  sum_nanos_.Reset();
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* const registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Entry& MetricRegistry::GetEntry(Kind kind,
                                                const std::string& name,
                                                const Labels& labels) {
  std::string key = name;
  const std::string rendered = RenderLabels(labels);
  if (!rendered.empty()) {
    key += '{';
    key += rendered;
    key += '}';
  }
  MutexLock lock(&mutex_);
  auto [it, inserted] = entries_.try_emplace(std::move(key));
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    entry.name = name;
    entry.labels = labels;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
  } else if (entry.kind != kind) {
    std::fprintf(stderr,
                 "fatal: metric '%s' requested as two different kinds\n",
                 name.c_str());
    std::abort();
  }
  return entry;
}

Counter& MetricRegistry::GetCounter(const std::string& name,
                                    const Labels& labels) {
  return *GetEntry(Kind::kCounter, name, labels).counter;
}

Gauge& MetricRegistry::GetGauge(const std::string& name,
                                const Labels& labels) {
  return *GetEntry(Kind::kGauge, name, labels).gauge;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name,
                                        const Labels& labels) {
  return *GetEntry(Kind::kHistogram, name, labels).histogram;
}

void MetricRegistry::SetHelp(const std::string& name,
                             const std::string& help) {
  MutexLock lock(&mutex_);
  help_[name] = help;
}

std::string MetricRegistry::RenderText() const {
  MutexLock lock(&mutex_);
  std::string out;
  std::string last_family;
  for (const auto& [key, entry] : entries_) {
    if (entry.name != last_family) {
      if (const auto help = help_.find(entry.name); help != help_.end()) {
        out += "# HELP ";
        out += entry.name;
        out += ' ';
        out += help->second;
        out += '\n';
      }
      out += "# TYPE ";
      out += entry.name;
      switch (entry.kind) {
        case Kind::kCounter:
          out += " counter\n";
          break;
        case Kind::kGauge:
          out += " gauge\n";
          break;
        case Kind::kHistogram:
          out += " histogram\n";
          break;
      }
      last_family = entry.name;
    }
    switch (entry.kind) {
      case Kind::kCounter:
        out += SampleName(entry.name, entry.labels);
        out += ' ';
        out += std::to_string(entry.counter->Value());
        out += '\n';
        break;
      case Kind::kGauge:
        out += SampleName(entry.name, entry.labels);
        out += ' ';
        out += FormatDouble(entry.gauge->Value());
        out += '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& hist = *entry.histogram;
        const BucketSnapshot buckets(hist);
        const int64_t total = buckets.total;
        // Elide the all-zero prefix and the all-full suffix of the
        // cumulative bucket lines; `+Inf` always closes the series.
        int64_t cumulative = 0;
        for (int i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
          cumulative += buckets.counts[i];
          if (cumulative == 0) continue;
          const double le =
              static_cast<double>(Histogram::BucketBoundNanos(i)) * 1e-9;
          out += SampleName(entry.name + "_bucket", entry.labels,
                            "le=\"" + FormatDouble(le) + "\"");
          out += ' ';
          out += std::to_string(cumulative);
          out += '\n';
          if (cumulative == total) break;
        }
        out += SampleName(entry.name + "_bucket", entry.labels,
                          "le=\"+Inf\"");
        out += ' ';
        out += std::to_string(total);
        out += '\n';
        out += SampleName(entry.name + "_sum", entry.labels);
        out += ' ';
        out += FormatDouble(hist.SumSeconds());
        out += '\n';
        out += SampleName(entry.name + "_count", entry.labels);
        out += ' ';
        out += std::to_string(total);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

std::string MetricRegistry::RenderJson() const {
  MutexLock lock(&mutex_);
  std::string counters, gauges, histograms;
  for (const auto& [key, entry] : entries_) {
    std::string item = "{\"name\":\"";
    item += JsonEscape(entry.name);
    item += "\",\"labels\":";
    item += JsonLabels(entry.labels);
    switch (entry.kind) {
      case Kind::kCounter:
        item += ",\"value\":";
        item += std::to_string(entry.counter->Value());
        item += '}';
        if (!counters.empty()) counters += ',';
        counters += item;
        break;
      case Kind::kGauge:
        item += ",\"value\":";
        item += FormatDouble(entry.gauge->Value());
        item += '}';
        if (!gauges.empty()) gauges += ',';
        gauges += item;
        break;
      case Kind::kHistogram: {
        const Histogram& hist = *entry.histogram;
        const BucketSnapshot buckets(hist);
        item += ",\"count\":";
        item += std::to_string(buckets.total);
        item += ",\"sum_seconds\":";
        item += FormatDouble(hist.SumSeconds());
        item += ",\"p50\":";
        item += FormatDouble(hist.Percentile(0.50));
        item += ",\"p95\":";
        item += FormatDouble(hist.Percentile(0.95));
        item += ",\"p99\":";
        item += FormatDouble(hist.Percentile(0.99));
        item += ",\"buckets\":[";
        bool first = true;
        for (int i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
          const int64_t in_bucket = buckets.counts[i];
          if (in_bucket == 0) continue;
          if (!first) item += ',';
          first = false;
          item += "{\"le_seconds\":";
          item += FormatDouble(
              static_cast<double>(Histogram::BucketBoundNanos(i)) * 1e-9);
          item += ",\"count\":";
          item += std::to_string(in_bucket);
          item += '}';
        }
        item += "],\"overflow\":";
        item += std::to_string(buckets.counts[Histogram::kNumFiniteBuckets]);
        item += '}';
        if (!histograms.empty()) histograms += ',';
        histograms += item;
        break;
      }
    }
  }
  std::string out = "{\"counters\":[";
  out += counters;
  out += "],\"gauges\":[";
  out += gauges;
  out += "],\"histograms\":[";
  out += histograms;
  out += "]}";
  return out;
}

void MetricRegistry::ResetAll() {
  MutexLock lock(&mutex_);
  for (auto& [key, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->Reset();
        break;
      case Kind::kGauge:
        entry.gauge->Reset();
        break;
      case Kind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

int64_t MetricRegistry::num_metrics() const {
  MutexLock lock(&mutex_);
  return static_cast<int64_t>(entries_.size());
}

}  // namespace rps::obs
