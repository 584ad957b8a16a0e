#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

void RunOutput::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 10) std::printf("CHECK FAILED: %s\n", what.c_str());
}

Window Window::Start(double seconds, double warmup_s) {
  Window window;
  window.start_ns = NowNs() + static_cast<int64_t>(warmup_s * 1e9);
  window.end_ns = window.start_ns + static_cast<int64_t>(seconds * 1e9);
  window.slice_ns = (window.end_ns - window.start_ns) / 40;
  return window;
}

CpuRotor::CpuRotor(const Window& window, int lane)
    : window_(window), lane_(lane) {
  CPU_ZERO(&allowed_);
  if (pthread_getaffinity_np(pthread_self(), sizeof(allowed_), &allowed_) ==
      0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  if (cpus_.size() < 2) next_ns_ = std::numeric_limits<int64_t>::max();
}

CpuRotor::~CpuRotor() {
  if (moved_) {
    pthread_setaffinity_np(pthread_self(), sizeof(allowed_), &allowed_);
  }
}

void CpuRotor::Move(int64_t now_ns) {
  const int64_t n = static_cast<int64_t>(cpus_.size());
  const int64_t step = now_ns < window_.start_ns
                           ? 0
                           : (now_ns - window_.start_ns) / window_.slice_ns;
  // Lane 1 sits 1, then 2, ..., then n-1 CPUs after lane 0, n steps each.
  const int64_t offset = lane_ == 0 ? 0 : 1 + (step / n) % (n - 1);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[static_cast<size_t>((step + offset) % n)], &set);
  moved_ = pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
  next_ns_ = window_.start_ns + (step + 1) * window_.slice_ns;
}

OpRecorder::OpRecorder(const Window& window)
    : window_(window),
      slice_hists_(static_cast<size_t>(window.slices()) + 1,
                   LatencyHistogram(5)),
      slice_units_(static_cast<size_t>(window.slices()) + 1, 0) {}

void OpRecorder::Merge(const OpRecorder& other) {
  hist_.Merge(other.hist_);
  ops_ += other.ops_;
  units_ += other.units_;
  for (size_t i = 0; i < slice_units_.size(); ++i) {
    slice_hists_[i].Merge(other.slice_hists_[i]);
    slice_units_[i] += other.slice_units_[i];
  }
}

double OpRecorder::SlicePercentile(double q) const {
  std::vector<double> values;
  for (int i = 0; i < window_.slices(); ++i) {
    const LatencyHistogram& slice = slice_hists_[static_cast<size_t>(i)];
    if (PercentileSupported(q, slice.count())) {
      values.push_back(slice.Percentile(q));
    }
  }
  return 2 * values.size() < static_cast<size_t>(window_.slices())
             ? hist_.Percentile(q)
             : Median(values);
}

double OpRecorder::SliceRate() const {
  // The last entry catches the partial slice at the window's end.
  std::vector<double> rates;
  const double slice_s = static_cast<double>(window_.slice_ns) * 1e-9;
  for (int i = 0; i < window_.slices(); ++i) {
    rates.push_back(static_cast<double>(slice_units_[static_cast<size_t>(i)]) /
                    slice_s);
  }
  return Median(rates);
}

double PercentileUs(const OpRecorder& recorder, double q, const char* what) {
  const int64_t n = recorder.hist().count();
  if (!PercentileSupported(q, n)) {
    std::printf("note: %s p%g rests on %lld samples beyond it (< 10)\n", what,
                q * 100, static_cast<long long>(SamplesBeyond(q, n)));
  }
  return recorder.SlicePercentile(q) * 1e-3;
}

rps::Schema MakeSchema(int64_t rows, int64_t cols) {
  return rps::Schema("MEASURE", {rps::Dimension::Integer("d0", 0, rows),
                                 rps::Dimension::Integer("d1", 0, cols)});
}

Box2 UniformBox(rps::Rng& rng, int64_t rows, int64_t cols) {
  const int64_t a = rng.UniformInt(0, rows - 1);
  const int64_t b = rng.UniformInt(0, rows - 1);
  const int64_t c = rng.UniformInt(0, cols - 1);
  const int64_t d = rng.UniformInt(0, cols - 1);
  return Box2{std::min(a, b), std::max(a, b), std::min(c, d), std::max(c, d)};
}

rps::RangeQuery QueryOf(const Box2& box) {
  rps::RangeQuery query;
  query.WhereIntBetween("d0", box.r0, box.r1)
      .WhereIntBetween("d1", box.c0, box.c1);
  return query;
}

rps::OlapRecord RecordOf(int64_t row, int64_t col, double measure) {
  return rps::OlapRecord{{row, col}, measure};
}

CellRecord NextRecord(rps::Rng& rng, int64_t row_lo, int64_t row_hi,
                      int64_t cols) {
  CellRecord record;
  record.row = rng.UniformInt(row_lo, row_hi);
  record.col = rng.UniformInt(0, cols - 1);
  record.measure = static_cast<double>(rng.UniformInt(1, 8));
  return record;
}

std::vector<rps::OlapRecord> MakeRecords(rps::Rng& rng, int64_t n,
                                         int64_t row_lo, int64_t row_hi,
                                         int64_t cols) {
  std::vector<rps::OlapRecord> records;
  records.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const CellRecord r = NextRecord(rng, row_lo, row_hi, cols);
    records.push_back(RecordOf(r.row, r.col, r.measure));
  }
  return records;
}

FlatModel::FlatModel(int64_t rows, int64_t cols)
    : rows_(rows),
      cols_(cols),
      sums_(static_cast<size_t>(rows * cols), 0.0),
      counts_(static_cast<size_t>(rows * cols), 0) {}

void FlatModel::Add(int64_t row, int64_t col, double measure) {
  sums_[static_cast<size_t>(row * cols_ + col)] += measure;
  counts_[static_cast<size_t>(row * cols_ + col)] += 1;
}

double FlatModel::Sum(const Box2& box) const {
  double total = 0;
  for (int64_t r = box.r0; r <= box.r1; ++r) {
    for (int64_t c = box.c0; c <= box.c1; ++c) {
      total += sums_[static_cast<size_t>(r * cols_ + c)];
    }
  }
  return total;
}

int64_t FlatModel::Count(const Box2& box) const {
  int64_t total = 0;
  for (int64_t r = box.r0; r <= box.r1; ++r) {
    for (int64_t c = box.c0; c <= box.c1; ++c) {
      total += counts_[static_cast<size_t>(r * cols_ + c)];
    }
  }
  return total;
}

rps::NdArray<double> FlatModel::SumCells() const {
  rps::NdArray<double> cells(rps::Shape{rows_, cols_}, 0.0);
  std::copy(sums_.begin(), sums_.end(), cells.data());
  return cells;
}

rps::NdArray<int64_t> FlatModel::CountCells() const {
  rps::NdArray<int64_t> cells(rps::Shape{rows_, cols_}, int64_t{0});
  std::copy(counts_.begin(), counts_.end(), cells.data());
  return cells;
}

bool SameSum(double got, double want) {
  // Measures are small integers, so sums are exact well below 2^53;
  // the tolerance only absorbs a reassociated rounding if one appears.
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

void CheckAgainstModel(const rps::OlapServingEngine& engine,
                       const FlatModel& model, uint64_t seed, int samples,
                       RunOutput* out) {
  rps::Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    const Box2 box = UniformBox(rng, model.rows(), model.cols());
    const rps::Result<double> sum = engine.Sum(QueryOf(box));
    out->Check(sum.ok() && SameSum(sum.value(), model.Sum(box)),
               "sample Sum " + std::to_string(i));
  }
  for (int64_t r = 0; r < model.rows(); ++r) {
    const Box2 row{r, r, 0, model.cols() - 1};
    const rps::Result<double> sum = engine.Sum(QueryOf(row));
    const rps::Result<int64_t> count = engine.Count(QueryOf(row));
    out->Check(sum.ok() && SameSum(sum.value(), model.Sum(row)) &&
                   count.ok() && count.value() == model.Count(row),
               "row " + std::to_string(r));
  }
  const Box2 all{0, model.rows() - 1, 0, model.cols() - 1};
  const rps::Result<double> sum = engine.Sum(QueryOf(all));
  const rps::Result<int64_t> count = engine.Count(QueryOf(all));
  out->Check(sum.ok() && SameSum(sum.value(), model.Sum(all)) && count.ok() &&
                 count.value() == model.Count(all),
             "whole-cube Sum/Count");
}

double SetupSeconds(const std::vector<double>& first,
                    const std::vector<double>& second) {
  std::vector<double> all = first;
  all.insert(all.end(), second.begin(), second.end());
  return all.empty() ? 0 : *std::min_element(all.begin(), all.end());
}

void ReturnFreedMemory() { malloc_trim(0); }

namespace {

/// Resident set in MB from /proc/self/statm, without allocating.
double ResidentMb() {
  char text[128] = {};
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = ::read(fd, text, sizeof(text) - 1);
  ::close(fd);
  long long pages = 0;
  long long resident = 0;
  if (n <= 0 || std::sscanf(text, "%lld %lld", &pages, &resident) != 2) {
    return 0;
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace

RssSampler::RssSampler(const Window& window)
    : thread_([this, window] {
        for (int i = 0; i < window.slices(); ++i) {
          const int64_t at =
              window.start_ns + i * window.slice_ns + window.slice_ns / 2;
          std::this_thread::sleep_for(std::chrono::nanoseconds(at - NowNs()));
          malloc_trim(0);
          samples_.push_back(ResidentMb());
        }
      }) {}

RssSampler::~RssSampler() {
  if (thread_.joinable()) thread_.join();
}

double RssSampler::StopMb() {
  if (thread_.joinable()) thread_.join();
  return InterquartileMean(samples_);
}

void Report(const std::string& workload, const std::string& name,
            double value, const std::string& unit, const std::string& note) {
  std::printf("%-9s %-34s %14.6g %-6s %s\n", workload.c_str(), name.c_str(),
              value, unit.c_str(), note.c_str());
}

}  // namespace perfbench
