// The three workloads. Each runs its timed phase, checks the program's
// answers against the flat model, and fills `out`; with
// options.trace it also runs the traced phase and the layer probes.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Warm-up before every measured window, excluded from the metrics.
inline constexpr double kWarmupSeconds = 1.0;
/// Recovery runs this many times per run; the median counts.
inline constexpr int kRepeats = 9;

void RunDashboard(const Options& options, RunOutput* out);
void RunFeed(const Options& options, RunOutput* out);
void RunDurable(const Options& options, RunOutput* out);

class ShardShadow;

/// An independent stream seed for one (phase, role) of a run.
uint64_t SeedFor(uint64_t seed, int phase, int role);

/// One ad-hoc Sum over a uniform box, timed into `rec`. With a
/// non-null `log` it is a traced request: the engine call and the
/// shadow reads become child spans. Returns the call's status and
/// sets *end_ns to its completion time.
bool TimedSum(const rps::OlapServingEngine& engine, const ShardShadow* shadow,
              rps::Rng& rng, int64_t rows, int64_t cols, SpanLog* log,
              int64_t request, OpRecorder* rec, int64_t* end_ns);

/// Adds the end-to-end metrics every workload reports, in
/// BENCHMARK.json order, and prints them.
void AddEndToEnd(const std::string& workload, RunOutput* out, double setup_s,
                 const OpRecorder& queries, double query_qps,
                 const OpRecorder& ops, double recover_s, double rss_mb);

/// Tracing overhead: the traced phase's median latencies against the
/// untraced phase's, as per-layer metrics.
void AddTraceOverhead(const std::string& workload, RunOutput* out,
                      const OpRecorder& queries, const OpRecorder& ops,
                      const OpRecorder& traced_queries,
                      const OpRecorder& traced_ops);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
