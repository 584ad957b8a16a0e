// Model-based differential tester for every query engine.
//
// A trace of randomized operations -- point inserts, bulk loads,
// range adds, range sums, query batches and, on the serving engine,
// every OLAP read operator -- runs simultaneously against the system
// under test and a deliberately naive model (flat std::vectors of
// cell sums and record counts with odometer loops, sharing no
// indexing code with the real structures). Any divergence on a query
// op is a bug in one of them. On failure the trace is shrunk by greedy
// chunk removal before reporting, so the log shows a near-minimal
// reproducer along with the seed (tests/testing/test_seed.h).
//
// Targets: the five in-memory methods (naive, prefix_sum, rps,
// hierarchical_rps, fenwick), the dual structure (range update /
// point query), the durable structure, the serving engine at one and
// at five shards, and the durable serving engine.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dual_rps.h"
#include "cube/box.h"
#include "cube/nd_array.h"
#include "olap/durable_engine.h"
#include "olap/group_by.h"
#include "olap/query.h"
#include "olap/sharded_engine.h"
#include "olap/window.h"
#include "storage/durable_rps.h"
#include "testing/temp_dir.h"
#include "testing/test_seed.h"
#include "util/random.h"

namespace rps {
namespace {

// ---------------------------------------------------------------
// Operations

struct Op {
  enum Kind {
    kInsert,
    kLoad,
    kRangeAdd,
    kRangeSum,
    kQueryBatch,
    // The OLAP read operators (serving targets only), each over the
    // query range boxes[0].
    kCount,
    kAverage,
    kRollingSum,      // along `dim`, window `param`
    kRollingAverage,  // along `dim`, window `param`
    kGroupBy,         // along `dim`
    kCrossTab,        // rows `dim`, columns `dim2`
    kTopSlots,        // along `dim`, limit `param`
    kSlotSeries,      // along `dim`
    kPeriodDelta,     // along `dim`, lag `param`
    kCumulative,      // along `dim`
  };
  static constexpr int kFirstOperator = kCount;
  static constexpr int kLastOperator = kCumulative;

  Kind kind = kInsert;
  CellIndex cell = CellIndex::Filled(1, 0);  // kInsert
  int64_t delta = 0;                         // kInsert / kRangeAdd
  std::vector<int64_t> dense;                // kLoad (model cell order)
  std::vector<Box> boxes;                    // kRangeAdd(1) / queries
  int dim = 0;                               // operators
  int dim2 = 0;                              // kCrossTab
  int64_t param = 0;                         // window / limit / lag
};

// Visits every cell of `box` in odometer order (last dim fastest).
template <typename Fn>
void ForEachCell(const Box& box, Fn&& fn) {
  CellIndex cursor = box.lo();
  for (;;) {
    fn(cursor);
    int j = box.dims() - 1;
    for (; j >= 0; --j) {
      if (cursor[j] < box.hi()[j]) {
        ++cursor[j];
        break;
      }
      cursor[j] = box.lo()[j];
    }
    if (j < 0) break;
  }
}

Box FullBox(const Shape& shape) {
  CellIndex hi = CellIndex::Filled(shape.dims(), 0);
  for (int j = 0; j < shape.dims(); ++j) hi[j] = shape.extent(j) - 1;
  return Box(CellIndex::Filled(shape.dims(), 0), hi);
}

std::string DescribeBox(const Box& box) {
  std::string out = "[";
  for (int j = 0; j < box.dims(); ++j) {
    if (j > 0) out += ",";
    out += std::to_string(box.lo()[j]) + ".." + std::to_string(box.hi()[j]);
  }
  return out + "]";
}

std::string DescribeOp(const Op& op) {
  switch (op.kind) {
    case Op::kInsert: {
      std::string out = "Insert(";
      for (int j = 0; j < op.cell.dims(); ++j) {
        if (j > 0) out += ",";
        out += std::to_string(op.cell[j]);
      }
      return out + ", " + std::to_string(op.delta) + ")";
    }
    case Op::kLoad:
      return "Load(" + std::to_string(op.dense.size()) + " cells)";
    case Op::kRangeAdd:
      return "RangeAdd(" + DescribeBox(op.boxes[0]) + ", " +
             std::to_string(op.delta) + ")";
    case Op::kRangeSum:
      return "RangeSum(" + DescribeBox(op.boxes[0]) + ")";
    case Op::kQueryBatch: {
      std::string out = "QueryBatch(";
      for (size_t i = 0; i < op.boxes.size(); ++i) {
        if (i > 0) out += " ";
        out += DescribeBox(op.boxes[i]);
      }
      return out + ")";
    }
    default:
      break;
  }
  static const char* const kOperatorNames[] = {
      "Count",   "Average",    "RollingSum", "RollingAverage",
      "GroupBy", "CrossTab",   "TopSlots",   "SlotSeries",
      "PeriodDelta", "CumulativeSeries"};
  return std::string(kOperatorNames[op.kind - Op::kFirstOperator]) + "(" +
         DescribeBox(op.boxes[0]) + ", d" + std::to_string(op.dim) +
         (op.kind == Op::kCrossTab ? " x d" + std::to_string(op.dim2) : "") +
         ", " + std::to_string(op.param) + ")";
}

// An operator's answer flattened to numbers; ok = false when the
// operator fails (AVERAGE over a range with no records).
struct Answer {
  bool ok = true;
  std::vector<double> values;
  bool operator==(const Answer& other) const {
    return ok == other.ok && values == other.values;
  }
};

std::string DescribeAnswer(const Answer& answer) {
  if (!answer.ok) return "error";
  std::string out = "[";
  for (size_t i = 0; i < answer.values.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(answer.values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------
// The model: a flat vector with its own row-major mapping and naive
// per-cell loops. Shares no code with the structures under test.

class Model {
 public:
  explicit Model(const Shape& shape) : shape_(shape) {
    size_t cells = 1;
    for (int j = 0; j < shape.dims(); ++j) {
      cells *= static_cast<size_t>(shape.extent(j));
    }
    cells_.assign(cells, 0);
    counts_.assign(cells, 0);
  }

  size_t FlatIndex(const CellIndex& cell) const {
    size_t index = 0;
    for (int j = 0; j < shape_.dims(); ++j) {
      index = index * static_cast<size_t>(shape_.extent(j)) +
              static_cast<size_t>(cell[j]);
    }
    return index;
  }

  // Record counts follow the serving engine's view of the ops: an
  // Insert is one record, a RangeAdd one record per cell, and a Load
  // one record per nonzero cell.
  void Insert(const CellIndex& cell, int64_t delta) {
    cells_[FlatIndex(cell)] += delta;
    counts_[FlatIndex(cell)] += 1;
  }
  void Load(const std::vector<int64_t>& dense) {
    cells_ = dense;
    for (size_t i = 0; i < dense.size(); ++i) counts_[i] = dense[i] != 0;
  }
  void RangeAdd(const Box& box, int64_t delta) {
    ForEachCell(box, [&](const CellIndex& c) { Insert(c, delta); });
  }
  int64_t RangeSum(const Box& box) const {
    int64_t total = 0;
    ForEachCell(box, [&](const CellIndex& c) { total += cells_[FlatIndex(c)]; });
    return total;
  }
  int64_t RangeCount(const Box& box) const {
    int64_t total = 0;
    ForEachCell(box,
                [&](const CellIndex& c) { total += counts_[FlatIndex(c)]; });
    return total;
  }
  size_t size() const { return cells_.size(); }

  // The expected answer of an operator op, from first principles.
  Answer Operator(const Op& op) const {
    const Box& range = op.boxes[0];
    Answer answer;
    std::vector<double>& out = answer.values;
    // `range` restricted to slots [from, to] of dimension j.
    const auto restrict = [&](int j, int64_t from, int64_t to) {
      CellIndex lo = range.lo();
      CellIndex hi = range.hi();
      lo[j] = from;
      hi[j] = to;
      return Box(lo, hi);
    };
    const int64_t first = range.lo()[op.dim];
    const int64_t last = range.hi()[op.dim];
    std::vector<double> slot_sums;
    for (int64_t p = first; p <= last; ++p) {
      slot_sums.push_back(
          static_cast<double>(RangeSum(restrict(op.dim, p, p))));
    }
    switch (op.kind) {
      case Op::kCount:
        out.push_back(static_cast<double>(RangeCount(range)));
        break;
      case Op::kAverage: {
        const int64_t count = RangeCount(range);
        answer.ok = count != 0;
        if (answer.ok) {
          out.push_back(static_cast<double>(RangeSum(range)) /
                        static_cast<double>(count));
        }
        break;
      }
      case Op::kRollingSum:
      case Op::kRollingAverage:
        for (int64_t p = first; p <= last; ++p) {
          const Box window =
              restrict(op.dim, std::max(first, p - op.param + 1), p);
          const double sum = static_cast<double>(RangeSum(window));
          const int64_t count = RangeCount(window);
          if (op.kind == Op::kRollingSum) {
            out.push_back(sum);
          } else {
            out.push_back(count == 0 ? 0.0
                                     : sum / static_cast<double>(count));
          }
        }
        break;
      case Op::kGroupBy:
        for (int64_t p = first; p <= last; ++p) {
          const Box slot = restrict(op.dim, p, p);
          out.push_back(static_cast<double>(p));
          out.push_back(static_cast<double>(RangeSum(slot)));
          out.push_back(static_cast<double>(RangeCount(slot)));
        }
        break;
      case Op::kCrossTab:
        for (int64_t p = first; p <= last; ++p) {
          for (int64_t q = range.lo()[op.dim2]; q <= range.hi()[op.dim2];
               ++q) {
            CellIndex lo = range.lo();
            CellIndex hi = range.hi();
            lo[op.dim] = hi[op.dim] = p;
            lo[op.dim2] = hi[op.dim2] = q;
            out.push_back(static_cast<double>(RangeSum(Box(lo, hi))));
          }
        }
        break;
      case Op::kTopSlots: {
        std::vector<size_t> order(slot_sums.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return slot_sums[a] > slot_sums[b];
        });
        if (op.param > 0 && static_cast<int64_t>(order.size()) > op.param) {
          order.resize(static_cast<size_t>(op.param));
        }
        for (const size_t i : order) {
          const int64_t p = first + static_cast<int64_t>(i);
          out.push_back(static_cast<double>(p));
          out.push_back(slot_sums[i]);
          out.push_back(
              static_cast<double>(RangeCount(restrict(op.dim, p, p))));
        }
        break;
      }
      case Op::kSlotSeries:
        out = slot_sums;
        break;
      case Op::kPeriodDelta:
        for (size_t i = 0; i < slot_sums.size(); ++i) {
          out.push_back(static_cast<int64_t>(i) >= op.param
                            ? slot_sums[i] -
                                  slot_sums[i - static_cast<size_t>(op.param)]
                            : slot_sums[i]);
        }
        break;
      case Op::kCumulative:
        for (int64_t p = first; p <= last; ++p) {
          out.push_back(
              static_cast<double>(RangeSum(restrict(op.dim, first, p))));
        }
        break;
      default:
        answer.ok = false;
        break;
    }
    return answer;
  }

 private:
  Shape shape_;
  std::vector<int64_t> cells_;
  std::vector<int64_t> counts_;
};

// ---------------------------------------------------------------
// System-under-test adapters

class Sut {
 public:
  virtual ~Sut() = default;
  virtual void Insert(const CellIndex& cell, int64_t delta) = 0;
  virtual void Load(const Shape& shape, const std::vector<int64_t>& dense,
                    const Model& order) = 0;
  virtual void RangeAdd(const Box& box, int64_t delta) = 0;
  virtual int64_t RangeSum(const Box& box) = 0;
  virtual std::vector<int64_t> QueryBatch(const std::vector<Box>& boxes) = 0;
  // Only the serving engine answers operator ops; traces for the other
  // targets never contain them.
  virtual Answer Operator(const Op& /*op*/) { return Answer{false, {}}; }
};

NdArray<int64_t> DenseToArray(const Shape& shape,
                              const std::vector<int64_t>& dense,
                              const Model& order) {
  NdArray<int64_t> array(shape, 0);
  ForEachCell(FullBox(shape), [&](const CellIndex& cell) {
                array.at(cell) = dense[order.FlatIndex(cell)];
              });
  return array;
}

// The five in-memory QueryMethods.
class MethodSut : public Sut {
 public:
  MethodSut(EngineMethod method, const Shape& shape)
      : shape_(shape),
        method_(MakeCountMethod(method, NdArray<int64_t>(shape, int64_t{0}),
                                nullptr)) {}

  void Insert(const CellIndex& cell, int64_t delta) override {
    method_->Add(cell, delta);
  }
  void Load(const Shape& shape, const std::vector<int64_t>& dense,
            const Model& order) override {
    method_->Build(DenseToArray(shape, dense, order));
  }
  void RangeAdd(const Box& box, int64_t delta) override {
    ForEachCell(box, [&](const CellIndex& c) { method_->Add(c, delta); });
  }
  int64_t RangeSum(const Box& box) override { return method_->RangeSum(box); }
  std::vector<int64_t> QueryBatch(const std::vector<Box>& boxes) override {
    std::vector<int64_t> results(boxes.size(), 0);
    method_->RangeSumBatch(boxes, results);
    return results;
  }

 private:
  Shape shape_;
  std::unique_ptr<QueryMethod<int64_t>> method_;
};

// The dual structure: range update / point query. Range sums are
// answered by summing point queries, so every query op checks
// ValueAt over whole regions.
class DualSut : public Sut {
 public:
  explicit DualSut(const Shape& shape)
      : shape_(shape), dual_(NdArray<int64_t>(shape, 0)) {}

  void Insert(const CellIndex& cell, int64_t delta) override {
    dual_.Add(cell, delta);
  }
  void Load(const Shape& shape, const std::vector<int64_t>& dense,
            const Model& order) override {
    dual_ = DualRps<int64_t>(DenseToArray(shape, dense, order));
  }
  void RangeAdd(const Box& box, int64_t delta) override {
    dual_.AddToRange(box, delta);
  }
  int64_t RangeSum(const Box& box) override {
    int64_t total = 0;
    ForEachCell(box, [&](const CellIndex& c) { total += dual_.ValueAt(c); });
    return total;
  }
  std::vector<int64_t> QueryBatch(const std::vector<Box>& boxes) override {
    std::vector<int64_t> results;
    results.reserve(boxes.size());
    for (const Box& box : boxes) results.push_back(RangeSum(box));
    return results;
  }

 private:
  Shape shape_;
  DualRps<int64_t> dual_;
};

// Lifecycle knobs for DurableSut: how often (counted in applied point
// mutations) to interleave pipelined checkpoints and crash-and-recover
// cycles into the trace. Primes keep the two cadences drifting
// against each other and against the op mix.
struct DurableSutConfig {
  bool group_commit = false;
  /// Checkpoint() every N mutations (0 = never).
  int checkpoint_every = 0;
  /// Every N mutations (0 = never): drop the handle WITHOUT a final
  /// checkpoint -- a crash at a clean log boundary -- and reopen from
  /// disk. Replay (plus fold-forward after a mid-flight checkpoint)
  /// must restore every acknowledged op or the model diverges.
  int reopen_every = 0;
};

// The durable structure (pager + WAL on a scratch directory).
class DurableSut : public Sut {
 public:
  explicit DurableSut(const Shape& shape, DurableSutConfig config = {})
      : shape_(shape), config_(config) {
    Rebuild(NdArray<int64_t>(shape, 0));
  }

  void Insert(const CellIndex& cell, int64_t delta) override {
    ASSERT_TRUE(durable_->Add(cell, delta).ok());
    MaybeCycle();
  }
  void Load(const Shape& shape, const std::vector<int64_t>& dense,
            const Model& order) override {
    Rebuild(DenseToArray(shape, dense, order));
  }
  void RangeAdd(const Box& box, int64_t delta) override {
    ForEachCell(box, [&](const CellIndex& c) {
      ASSERT_TRUE(durable_->Add(c, delta).ok());
      MaybeCycle();  // cycles can land mid-range, not just between ops
    });
  }
  int64_t RangeSum(const Box& box) override { return durable_->RangeSum(box); }
  std::vector<int64_t> QueryBatch(const std::vector<Box>& boxes) override {
    std::vector<int64_t> results;
    results.reserve(boxes.size());
    for (const Box& box : boxes) results.push_back(durable_->RangeSum(box));
    return results;
  }

 private:
  DurableOptions Options() const {
    DurableOptions options;
    options.group_commit = config_.group_commit;
    return options;
  }

  void Rebuild(const NdArray<int64_t>& source) {
    durable_.reset();
    dir_ = std::make_unique<testing::ScopedTempDir>("rps_model_check");
    Result<DurableRps<int64_t>> created = DurableRps<int64_t>::Create(
        source, RecommendedBoxSize(source.shape()), dir_->path(), Options());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    durable_ =
        std::make_unique<DurableRps<int64_t>>(std::move(created.value()));
  }

  void MaybeCycle() {
    ++mutations_;
    if (config_.checkpoint_every > 0 &&
        mutations_ % config_.checkpoint_every == 0) {
      ASSERT_TRUE(durable_->Checkpoint().ok());
    }
    if (config_.reopen_every > 0 && mutations_ % config_.reopen_every == 0) {
      durable_.reset();  // crash: no final checkpoint
      Result<DurableRps<int64_t>> reopened =
          DurableRps<int64_t>::Open(dir_->path(), nullptr, Options());
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      durable_ =
          std::make_unique<DurableRps<int64_t>>(std::move(reopened.value()));
    }
  }

  Shape shape_;
  DurableSutConfig config_;
  int64_t mutations_ = 0;
  std::unique_ptr<testing::ScopedTempDir> dir_;
  std::unique_ptr<DurableRps<int64_t>> durable_;
};

// The serving engine, driven through the integer-dimension OLAP
// surface with integral measures, so double sums stay exact.
class ServingSut : public Sut {
 public:
  ServingSut(int shards, const Shape& shape) : shape_(shape) {
    engine_ = std::make_unique<ShardedOlapEngine>(
        MakeSchema(), EngineMethod::kRelativePrefixSum, shards, nullptr);
  }

  /// The durable serving engine (group commit): checkpoints and
  /// crash-and-reopen cycles ride the trace at `config`'s cadences,
  /// counted in mutating calls, and each reopen alternates the shard
  /// count between `shards` and 1.
  ServingSut(int shards, const Shape& shape, DurableSutConfig config)
      : shape_(shape),
        config_(config),
        shards_(shards),
        dir_(std::make_unique<testing::ScopedTempDir>("rps_model_check")) {
    Result<std::unique_ptr<DurableOlapEngine>> created =
        DurableOlapEngine::Create(MakeSchema(),
                                  EngineMethod::kRelativePrefixSum, shards_,
                                  dir_->path(), Options(), nullptr);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (created.ok()) durable_ = std::move(created).value();
  }

  void Insert(const CellIndex& cell, int64_t delta) override {
    ASSERT_TRUE(Serving().Insert(Record(cell, delta)).ok());
    MaybeCycle();
  }
  void Load(const Shape& shape, const std::vector<int64_t>& dense,
            const Model& order) override {
    std::vector<OlapRecord> records;
    ForEachCell(FullBox(shape), [&](const CellIndex& cell) {
                  const int64_t value = dense[order.FlatIndex(cell)];
                  if (value != 0) records.push_back(Record(cell, value));
                });
    const IngestReport report = Serving().Load(records);
    ASSERT_EQ(report.rejected, 0);
    MaybeCycle();
  }
  void RangeAdd(const Box& box, int64_t delta) override {
    std::vector<OlapRecord> records;
    ForEachCell(box,
                [&](const CellIndex& c) { records.push_back(Record(c, delta)); });
    ASSERT_TRUE(Serving().InsertBatch(records).ok());
    MaybeCycle();
  }
  int64_t RangeSum(const Box& box) override {
    const Result<double> sum = Serving().Sum(Query(box));
    EXPECT_TRUE(sum.ok());
    return sum.ok() ? std::llround(sum.value()) : INT64_MIN;
  }
  std::vector<int64_t> QueryBatch(const std::vector<Box>& boxes) override {
    std::vector<RangeQuery> queries;
    queries.reserve(boxes.size());
    for (const Box& box : boxes) queries.push_back(Query(box));
    const Result<std::vector<double>> results = Serving().QueryBatch(queries);
    EXPECT_TRUE(results.ok());
    std::vector<int64_t> out;
    if (results.ok()) {
      for (double v : results.value()) out.push_back(std::llround(v));
    }
    return out;
  }

  Answer Operator(const Op& op) override {
    const ShardedOlapEngine& engine =
        durable_ != nullptr ? durable_->inner() : *engine_;
    const RangeQuery query = Query(op.boxes[0]);
    const std::string dim = Dim(op.dim);
    switch (op.kind) {
      case Op::kCount:
        return Flatten(engine.Count(query));
      case Op::kAverage:
        return Flatten(engine.Average(query));
      case Op::kRollingSum:
        return Flatten(engine.RollingSum(query, dim, op.param));
      case Op::kRollingAverage:
        return Flatten(engine.RollingAverage(query, dim, op.param));
      case Op::kGroupBy:
        return Flatten(GroupBy(engine, query, dim));
      case Op::kCrossTab: {
        const Result<CrossTab> tab =
            CrossTabulate(engine, query, dim, Dim(op.dim2));
        if (!tab.ok()) return Answer{false, {}};
        Answer answer;
        for (const std::vector<double>& row : tab.value().sums) {
          answer.values.insert(answer.values.end(), row.begin(), row.end());
        }
        return answer;
      }
      case Op::kTopSlots:
        return Flatten(TopSlotsBySum(engine, query, dim, op.param));
      case Op::kSlotSeries:
        return Flatten(SlotSeries(engine, query, dim));
      case Op::kPeriodDelta:
        return Flatten(PeriodDelta(engine, query, dim, op.param));
      case Op::kCumulative:
        return Flatten(CumulativeSeries(engine, query, dim));
      default:
        return Answer{false, {}};
    }
  }

 private:
  static std::string Dim(int j) { return "d" + std::to_string(j); }

  Schema MakeSchema() const {
    std::vector<Dimension> dimensions;
    for (int j = 0; j < shape_.dims(); ++j) {
      dimensions.push_back(Dimension::Integer(Dim(j), 0, shape_.extent(j)));
    }
    return Schema("MEASURE", std::move(dimensions));
  }

  DurableOptions Options() const {
    DurableOptions options;
    options.group_commit = config_.group_commit;
    return options;
  }

  OlapServingEngine& Serving() {
    if (durable_ != nullptr) return *durable_;
    return *engine_;
  }

  // As DurableSut::MaybeCycle, on the durable engine only. A reopen
  // drops the engine without a checkpoint; replay (and fold-forward)
  // must restore every acknowledged record.
  void MaybeCycle() {
    if (durable_ == nullptr) return;
    ++mutations_;
    if (config_.checkpoint_every > 0 &&
        mutations_ % config_.checkpoint_every == 0) {
      ASSERT_TRUE(durable_->Checkpoint().ok());
    }
    if (config_.reopen_every > 0 && mutations_ % config_.reopen_every == 0) {
      durable_.reset();
      ++reopens_;
      Result<std::unique_ptr<DurableOlapEngine>> reopened =
          DurableOlapEngine::Open(MakeSchema(),
                                  EngineMethod::kRelativePrefixSum,
                                  reopens_ % 2 == 1 ? 1 : shards_,
                                  dir_->path(), Options(), nullptr);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      durable_ = std::move(reopened).value();
    }
  }

  template <typename T>
  static Answer Flatten(const Result<T>& result) {
    if (!result.ok()) return Answer{false, {}};
    return Answer{true, {static_cast<double>(result.value())}};
  }
  static Answer Flatten(const Result<std::vector<double>>& result) {
    if (!result.ok()) return Answer{false, {}};
    return Answer{true, result.value()};
  }
  // Group rows as (slot, sum, count) triples; integer slots are
  // labelled with their value.
  static Answer Flatten(const Result<std::vector<GroupRow>>& result) {
    if (!result.ok()) return Answer{false, {}};
    Answer answer;
    for (const GroupRow& row : result.value()) {
      answer.values.push_back(std::stod(row.slot));
      answer.values.push_back(row.sum);
      answer.values.push_back(static_cast<double>(row.count));
    }
    return answer;
  }

  OlapRecord Record(const CellIndex& cell, int64_t measure) const {
    OlapRecord record;
    for (int j = 0; j < cell.dims(); ++j) record.values.emplace_back(cell[j]);
    record.measure = static_cast<double>(measure);
    return record;
  }
  RangeQuery Query(const Box& box) const {
    RangeQuery query;
    for (int j = 0; j < box.dims(); ++j) {
      query.WhereIntBetween(Dim(j), box.lo()[j], box.hi()[j]);
    }
    return query;
  }

  Shape shape_;
  std::unique_ptr<ShardedOlapEngine> engine_;
  DurableSutConfig config_;
  int shards_ = 1;
  int64_t mutations_ = 0;
  int64_t reopens_ = 0;
  std::unique_ptr<testing::ScopedTempDir> dir_;
  std::unique_ptr<DurableOlapEngine> durable_;
};

// ---------------------------------------------------------------
// Trace generation, execution, shrinking

Box RandomBox(Rng& rng, const Shape& shape) {
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

CellIndex RandomCell(Rng& rng, const Shape& shape) {
  CellIndex cell = CellIndex::Filled(shape.dims(), 0);
  for (int j = 0; j < shape.dims(); ++j) {
    cell[j] = rng.UniformInt(0, shape.extent(j) - 1);
  }
  return cell;
}

// One operator op over a random range; dimensions and parameters are
// drawn so every operator's edge cases (window and lag beyond the
// range, limit 0 = all rows) appear.
Op RandomOperator(Rng& rng, const Shape& shape) {
  Op op;
  op.kind = static_cast<Op::Kind>(
      rng.UniformInt(Op::kFirstOperator, Op::kLastOperator));
  op.boxes = {RandomBox(rng, shape)};
  op.dim = static_cast<int>(rng.UniformInt(0, shape.dims() - 1));
  op.dim2 = (op.dim + static_cast<int>(rng.UniformInt(1, shape.dims() - 1))) %
            shape.dims();
  op.param = rng.UniformInt(op.kind == Op::kTopSlots ? 0 : 1,
                            shape.extent(op.dim) + 1);
  return op;
}

// `operators` adds the OLAP read operators to the mix (serving
// targets); without it the trace is the same as for every other
// target.
std::vector<Op> GenerateTrace(Rng& rng, const Shape& shape, size_t ops,
                              size_t model_cells, bool operators = false) {
  std::vector<Op> trace;
  trace.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    Op op;
    if (operators && rng.UniformInt(0, 99) < 20) {
      trace.push_back(RandomOperator(rng, shape));
      continue;
    }
    const int64_t pick = rng.UniformInt(0, 99);
    if (pick < 45) {
      op.kind = Op::kInsert;
      op.cell = RandomCell(rng, shape);
      op.delta = rng.UniformInt(-9, 9);
    } else if (pick < 55) {
      op.kind = Op::kRangeAdd;
      op.boxes = {RandomBox(rng, shape)};
      op.delta = rng.UniformInt(-4, 4);
    } else if (pick < 58) {
      op.kind = Op::kLoad;
      op.dense.resize(model_cells);
      for (int64_t& value : op.dense) value = rng.UniformInt(0, 9);
    } else if (pick < 90) {
      op.kind = Op::kRangeSum;
      op.boxes = {RandomBox(rng, shape)};
    } else {
      op.kind = Op::kQueryBatch;
      const int64_t count = rng.UniformInt(2, 8);
      for (int64_t q = 0; q < count; ++q) {
        op.boxes.push_back(RandomBox(rng, shape));
      }
    }
    trace.push_back(std::move(op));
  }
  return trace;
}

using SutFactory = std::function<std::unique_ptr<Sut>()>;

// Runs `trace` against a fresh model and SUT; returns "" on agreement
// or a description of the first mismatch.
std::string RunTrace(const Shape& shape, const SutFactory& factory,
                     const std::vector<Op>& trace) {
  Model model(shape);
  std::unique_ptr<Sut> sut = factory();
  for (size_t i = 0; i < trace.size(); ++i) {
    const Op& op = trace[i];
    switch (op.kind) {
      case Op::kInsert:
        model.Insert(op.cell, op.delta);
        sut->Insert(op.cell, op.delta);
        break;
      case Op::kLoad:
        model.Load(op.dense);
        sut->Load(shape, op.dense, model);
        break;
      case Op::kRangeAdd:
        model.RangeAdd(op.boxes[0], op.delta);
        sut->RangeAdd(op.boxes[0], op.delta);
        break;
      case Op::kRangeSum: {
        const int64_t expected = model.RangeSum(op.boxes[0]);
        const int64_t actual = sut->RangeSum(op.boxes[0]);
        if (actual != expected) {
          return "op #" + std::to_string(i) + " " + DescribeOp(op) +
                 ": sut=" + std::to_string(actual) +
                 " model=" + std::to_string(expected);
        }
        break;
      }
      case Op::kQueryBatch: {
        const std::vector<int64_t> actual = sut->QueryBatch(op.boxes);
        if (actual.size() != op.boxes.size()) {
          return "op #" + std::to_string(i) + " " + DescribeOp(op) +
                 ": batch size " + std::to_string(actual.size());
        }
        for (size_t q = 0; q < op.boxes.size(); ++q) {
          const int64_t expected = model.RangeSum(op.boxes[q]);
          if (actual[q] != expected) {
            return "op #" + std::to_string(i) + " " + DescribeOp(op) +
                   " query " + std::to_string(q) +
                   ": sut=" + std::to_string(actual[q]) +
                   " model=" + std::to_string(expected);
          }
        }
        break;
      }
      default: {
        const Answer expected = model.Operator(op);
        const Answer actual = sut->Operator(op);
        if (!(actual == expected)) {
          return "op #" + std::to_string(i) + " " + DescribeOp(op) +
                 ": sut=" + DescribeAnswer(actual) +
                 " model=" + DescribeAnswer(expected);
        }
        break;
      }
    }
  }
  return "";
}

// Greedy chunk-removal shrinking: repeatedly drops the largest
// still-failing chunks until no single op can be removed.
std::vector<Op> ShrinkTrace(const Shape& shape, const SutFactory& factory,
                            std::vector<Op> trace) {
  bool progress = true;
  while (progress && trace.size() > 1) {
    progress = false;
    for (size_t chunk = std::max<size_t>(1, trace.size() / 2); chunk >= 1;
         chunk /= 2) {
      for (size_t start = 0; start < trace.size() && trace.size() > 1;) {
        std::vector<Op> candidate;
        candidate.reserve(trace.size());
        for (size_t i = 0; i < trace.size(); ++i) {
          if (i < start || i >= start + chunk) candidate.push_back(trace[i]);
        }
        if (candidate.size() < trace.size() &&
            !RunTrace(shape, factory, candidate).empty()) {
          trace = std::move(candidate);
          progress = true;
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  return trace;
}

// The whole harness for one target: generate, run, shrink-and-report.
void CheckTarget(const std::string& name, const Shape& shape,
                 const SutFactory& factory, size_t ops,
                 bool operators = false) {
  const uint64_t seed = testing::TestSeed(0x5eed0000 + ops);
  Rng rng(seed);
  size_t model_cells = 1;
  for (int j = 0; j < shape.dims(); ++j) {
    model_cells *= static_cast<size_t>(shape.extent(j));
  }
  const std::vector<Op> trace =
      GenerateTrace(rng, shape, ops, model_cells, operators);
  const std::string failure = RunTrace(shape, factory, trace);
  if (failure.empty()) return;
  const std::vector<Op> minimal = ShrinkTrace(shape, factory, trace);
  std::string message = name + " diverged from the model: " + failure +
                        testing::SeedMessage(seed) +
                        "\nminimal trace (" +
                        std::to_string(minimal.size()) + " ops):";
  for (const Op& op : minimal) message += "\n  " + DescribeOp(op);
  FAIL() << message;
}

// ---------------------------------------------------------------
// Tests: 10k randomized ops per target (RPS_TEST_SEED overrides the
// seed for reproduction).

constexpr size_t kOps = 10000;

TEST(ModelCheck, Naive) {
  const Shape shape = Shape::FromExtents({6, 5, 4});
  CheckTarget("naive", shape,
              [&] { return std::make_unique<MethodSut>(EngineMethod::kNaive,
                                                       shape); },
              kOps);
}

TEST(ModelCheck, PrefixSum) {
  const Shape shape = Shape::FromExtents({6, 5, 4});
  CheckTarget("prefix_sum", shape,
              [&] {
                return std::make_unique<MethodSut>(EngineMethod::kPrefixSum,
                                                   shape);
              },
              kOps);
}

TEST(ModelCheck, RelativePrefixSum) {
  const Shape shape = Shape::FromExtents({9, 8, 5});
  CheckTarget("relative_prefix_sum", shape,
              [&] {
                return std::make_unique<MethodSut>(
                    EngineMethod::kRelativePrefixSum, shape);
              },
              kOps);
}

TEST(ModelCheck, HierarchicalRps) {
  const Shape shape = Shape::FromExtents({16, 12});
  CheckTarget("hierarchical_rps", shape,
              [&] {
                return std::make_unique<MethodSut>(
                    EngineMethod::kHierarchicalRps, shape);
              },
              kOps);
}

TEST(ModelCheck, Fenwick) {
  const Shape shape = Shape::FromExtents({9, 8, 5});
  CheckTarget("fenwick", shape,
              [&] {
                return std::make_unique<MethodSut>(EngineMethod::kFenwick,
                                                   shape);
              },
              kOps);
}

TEST(ModelCheck, DualRps) {
  const Shape shape = Shape::FromExtents({7, 5});
  CheckTarget("dual_rps", shape,
              [&] { return std::make_unique<DualSut>(shape); }, kOps);
}

TEST(ModelCheck, Durable) {
  const Shape shape = Shape::FromExtents({8, 6});
  // Durable ops hit the pager and WAL; a tenth of the budget keeps
  // the sanitizer presets fast while still interleaving every op
  // kind hundreds of times.
  CheckTarget("durable", shape,
              [&] { return std::make_unique<DurableSut>(shape); }, kOps / 10);
}

TEST(ModelCheck, DurableGroupCommit) {
  const Shape shape = Shape::FromExtents({8, 6});
  // Group-commit mode with pipelined checkpoints riding the trace:
  // every mutation funnels through the commit thread, and rotation +
  // clone + background snapshot interleave with the op stream.
  DurableSutConfig config;
  config.group_commit = true;
  config.checkpoint_every = 181;
  CheckTarget("durable_group_commit", shape,
              [&] { return std::make_unique<DurableSut>(shape, config); },
              kOps / 10);
}

TEST(ModelCheck, DurableGroupCommitCrashAndRecover) {
  const Shape shape = Shape::FromExtents({8, 6});
  // Adds crash-and-recover cycles mid-trace: the handle is dropped
  // without a final checkpoint and reopened, so WAL replay (and
  // fold-forward when a cycle lands between a rotation and its
  // manifest commit) must reconstruct the exact model state.
  DurableSutConfig config;
  config.group_commit = true;
  config.checkpoint_every = 239;
  config.reopen_every = 97;
  CheckTarget("durable_group_commit_crash", shape,
              [&] { return std::make_unique<DurableSut>(shape, config); },
              kOps / 10);
}

TEST(ModelCheck, ShardedEngine) {
  const Shape shape = Shape::FromExtents({12, 9});
  // 5 shards over 12 rows: uneven slices (3,3,2,2,2), so boundary
  // routing and multi-shard merges are both exercised, by every
  // operator.
  CheckTarget("sharded", shape,
              [&] { return std::make_unique<ServingSut>(5, shape); }, kOps,
              /*operators=*/true);
}

TEST(ModelCheck, DurableEngine) {
  const Shape shape = Shape::FromExtents({12, 9});
  // The durable serving engine with every operator, pipelined
  // checkpoints and crash-and-reopen cycles at prime cadences, reopened
  // alternately at 3 and 1 shards. A checkpoint freezes a published
  // version and reads its cells back, so replay plus the last image
  // must hold exactly the acknowledged records.
  DurableSutConfig config;
  config.group_commit = true;
  config.checkpoint_every = 23;
  config.reopen_every = 41;
  CheckTarget("durable_engine", shape,
              [&] { return std::make_unique<ServingSut>(3, shape, config); },
              kOps / 10, /*operators=*/true);
}

// Harness self-check: a SUT with an injected bug (drops every Insert
// into cell (0,0)) must be caught, and the shrinker must reduce the
// trace to a handful of ops (one poisoned insert + one query).
class BrokenSut : public MethodSut {
 public:
  explicit BrokenSut(const Shape& shape)
      : MethodSut(EngineMethod::kNaive, shape) {}
  void Insert(const CellIndex& cell, int64_t delta) override {
    bool origin = true;
    for (int j = 0; j < cell.dims(); ++j) origin = origin && cell[j] == 0;
    if (origin && delta != 0) return;  // the bug
    MethodSut::Insert(cell, delta);
  }
};

TEST(ModelCheck, HarnessCatchesAndShrinksInjectedBug) {
  const Shape shape = Shape::FromExtents({3, 3});
  const SutFactory factory = [&] { return std::make_unique<BrokenSut>(shape); };
  const uint64_t seed = testing::TestSeed(77);
  Rng rng(seed);
  const std::vector<Op> trace = GenerateTrace(rng, shape, 2000, 9);
  const std::string failure = RunTrace(shape, factory, trace);
  ASSERT_FALSE(failure.empty())
      << "injected bug went undetected" << testing::SeedMessage(seed);
  const std::vector<Op> minimal = ShrinkTrace(shape, factory, trace);
  EXPECT_LE(minimal.size(), 4u) << testing::SeedMessage(seed);
  EXPECT_FALSE(RunTrace(shape, factory, minimal).empty());
}

TEST(ModelCheck, ShardedSingleShard) {
  const Shape shape = Shape::FromExtents({12, 9});
  CheckTarget("sharded_1", shape,
              [&] { return std::make_unique<ServingSut>(1, shape); }, kOps,
              /*operators=*/true);
}

}  // namespace
}  // namespace rps
