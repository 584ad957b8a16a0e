// Shared pieces of the workloads: options, measurement windows,
// request generation, the flat reference model and the run output.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "olap/engine.h"
#include "olap/query.h"
#include "olap/schema.h"
#include "stats.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  /// Scratch directory of this run (durable directories, probe logs),
  /// removed when the run ends.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports.
struct RunOutput {
  std::vector<Metric> end_to_end;  // printed with --trace 0
  std::vector<Metric> per_layer;   // printed with --trace 1
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Counts one attempted operation; a false `ok` counts it failed and
  /// prints `what` (the first few failures only).
  void Check(bool ok, const std::string& what);
};

/// The measured part of a closed-loop phase. Threads start warming up
/// before `start_ns` and run until `end_ns`; operations that run
/// inside [start_ns, end_ns) are recorded. The window is cut into 40
/// slices for the per-slice statistics.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t slice_ns = 0;

  /// A window starting now: `warmup_s` of warm-up, then `seconds`
  /// measured in 40 slices.
  static Window Start(double seconds, double warmup_s);
  int slices() const {
    return static_cast<int>((end_ns - start_ns) / slice_ns);
  }
};

/// Moves a busy client thread to another CPU at every slice boundary
/// of a window, so each of a run's threads spends about equal time on
/// every CPU the thread may use. On a shared host each vCPU slows by
/// up to 30% for tens of seconds at a time, independently of the
/// others (a neighbour on its hyperthread sibling, say); a thread that
/// stays on one vCPU takes that vCPU's state for the whole run. Lane 0
/// and lane 1 (the only lanes) are never on the same CPU, and over
/// n(n-1) slices they meet every ordered pair of the n CPUs. With one
/// CPU it does nothing. The destructor gives the thread back every CPU
/// it was allowed.
class CpuRotor {
 public:
  CpuRotor(const Window& window, int lane);
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  /// Moves the calling thread if `now_ns` lies in a later slice than
  /// its last move.
  void Step(int64_t now_ns) {
    if (now_ns >= next_ns_) Move(now_ns);
  }

 private:
  void Move(int64_t now_ns);

  Window window_;
  int lane_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  int64_t next_ns_ = 0;
  bool moved_ = false;
};

/// One thread's record of one operation type in a window.
class OpRecorder {
 public:
  explicit OpRecorder(const Window& window);

  /// Records an operation that ran [t0, t1) and completed `units` of
  /// work (queries, records), if it ran inside the window.
  void Record(int64_t t0, int64_t t1, int64_t units) {
    if (t0 < window_.start_ns || t1 >= window_.end_ns) return;
    const auto slice =
        static_cast<size_t>((t1 - window_.start_ns) / window_.slice_ns);
    hist_.Record(t1 - t0);
    slice_hists_[slice].Record(t1 - t0);
    ++ops_;
    units_ += units;
    slice_units_[slice] += units;
  }
  void Merge(const OpRecorder& other);

  const LatencyHistogram& hist() const { return hist_; }
  int64_t ops() const { return ops_; }
  int64_t units() const { return units_; }
  /// Latency percentile q in ns, per slice: the median of the
  /// slices' percentiles. Slices with fewer than ten samples beyond
  /// the percentile are skipped; when that leaves under half of the
  /// slices, the percentile over the whole window is returned instead.
  /// The host runs code in a fast and a slow mode that switch every
  /// few slices, and its disk stalls now and then; the median reads
  /// the common mode whatever share of slices the other one takes,
  /// where one percentile over the window moves with that share.
  double SlicePercentile(double q) const;
  /// Units per second: the median of the slices' rates, for the same
  /// reason; a slow operation straddling slice edges does not quantize
  /// it.
  double SliceRate() const;

 private:
  Window window_;
  LatencyHistogram hist_;
  std::vector<LatencyHistogram> slice_hists_;  // 3% buckets, 9 KB each
  std::vector<int64_t> slice_units_;
  int64_t ops_ = 0;
  int64_t units_ = 0;
};

/// Latency percentile in microseconds; prints a note when fewer than
/// ten samples lie beyond it.
double PercentileUs(const OpRecorder& recorder, double q, const char* what);

/// An inclusive 2-d cell box.
struct Box2 {
  int64_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;
};

rps::Schema MakeSchema(int64_t rows, int64_t cols);
/// Uniform random box: two uniform corners per dimension.
Box2 UniformBox(rps::Rng& rng, int64_t rows, int64_t cols);
rps::RangeQuery QueryOf(const Box2& box);
rps::OlapRecord RecordOf(int64_t row, int64_t col, double measure);

/// One seeded record uniform over rows [row_lo, row_hi] and all
/// columns, measure uniform in 1..8.
struct CellRecord {
  int64_t row = 0;
  int64_t col = 0;
  double measure = 0;
};
CellRecord NextRecord(rps::Rng& rng, int64_t row_lo, int64_t row_hi,
                      int64_t cols);
std::vector<rps::OlapRecord> MakeRecords(rps::Rng& rng, int64_t n,
                                         int64_t row_lo, int64_t row_hi,
                                         int64_t cols);

/// Independent reference: a dense array with naive box sums.
class FlatModel {
 public:
  FlatModel(int64_t rows, int64_t cols);
  void Add(int64_t row, int64_t col, double measure);
  double Sum(const Box2& box) const;
  int64_t Count(const Box2& box) const;
  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  /// The model's cells as dense cubes (the LoadCells input).
  rps::NdArray<double> SumCells() const;
  rps::NdArray<int64_t> CountCells() const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<double> sums_;
  std::vector<int64_t> counts_;
};

bool SameSum(double got, double want);

/// Checks a serving engine against the model: `samples` seeded
/// ad-hoc boxes, every row's Sum and Count, and the whole cube.
void CheckAgainstModel(const rps::OlapServingEngine& engine,
                       const FlatModel& model, uint64_t seed, int samples,
                       RunOutput* out);

/// Returns the heap memory the benchmark has freed (its inputs, the
/// set-up repetitions' engines) to the system before a timed phase.
void ReturnFreedMemory();

/// Samples this process's resident set in the middle of every slice
/// of a window, from a thread of its own that sleeps in between. Each
/// sample first returns the heap memory already freed to the system
/// (malloc_trim), so it counts what the process holds, including
/// versions the program has retired but not yet freed, and not which
/// free pages glibc happened to keep.
class RssSampler {
 public:
  explicit RssSampler(const Window& window);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Waits for the last sample; the interquartile mean of the samples
  /// in MB.
  double StopMb();

 private:
  std::vector<double> samples_;
  std::thread thread_;
};

/// Prints one report line: "<workload> <name> <value> <unit> [note]".
void Report(const std::string& workload, const std::string& name,
            double value, const std::string& unit,
            const std::string& note = "");

/// Wall time in seconds of each of `reps` calls of `fn(i)`. `before(i)`
/// runs ahead of each call, outside the timing (to free what the
/// previous call built, say).
template <typename Before, typename Fn>
std::vector<double> TimeRepeats(int reps, Before&& before, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    before(i);
    const int64_t t0 = NowNs();
    fn(i);
    times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return times;
}

/// setup_s from the set-up times of both rounds (one before the timed
/// phase, one after it): the fastest. Set-up is single-threaded work
/// of fixed size, and this host slows all code by up to 30% in spells
/// lasting seconds to minutes; the fastest of repetitions taken a
/// timed phase apart is the figure those spells move least.
double SetupSeconds(const std::vector<double>& first,
                    const std::vector<double>& second);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
