#include "olap/sharded_engine.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "olap/window.h"
#include "util/stopwatch.h"

namespace rps {

namespace {

/// The structure of `shard` holding T: SUM for double, COUNT for
/// int64_t.
template <typename T, typename Shard>
const QueryMethod<T>& StructureOf(const Shard& shard) {
  if constexpr (std::is_same_v<T, double>) {
    return *shard.sums;
  } else {
    return *shard.counts;
  }
}

Status OutsideCube() { return Status::OutOfRange("box outside the cube"); }

}  // namespace

std::unique_ptr<OlapServingEngine> MakeServingEngine(Schema schema,
                                                     EngineMethod method,
                                                     int shards,
                                                     ThreadPool* pool) {
  return std::make_unique<ShardedOlapEngine>(std::move(schema), method,
                                             shards, pool);
}

ShardedOlapEngine::ShardedOlapEngine(Schema schema, EngineMethod method,
                                     int shards, ThreadPool* pool,
                                     EpochDomain* domain)
    : schema_(std::move(schema)),
      method_(method),
      pool_(pool),
      domain_(domain) {
  const int64_t rows = schema_.CubeShape().extent(0);
  if (shards < 1) shards = ThreadPool::DefaultThreads();
  const int64_t count = std::clamp<int64_t>(shards, 1, rows);
  starts_.reserve(static_cast<size_t>(count) + 1);
  // Balanced contiguous slices: the first (rows % count) shards get
  // one extra row.
  int64_t at = 0;
  for (int64_t s = 0; s < count; ++s) {
    starts_.push_back(at);
    at += rows / count + (s < rows % count ? 1 : 0);
  }
  starts_.push_back(rows);

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const obs::Labels labels = {{"method", EngineMethodName(method_)},
                              {"shards", std::to_string(count)}};
  query_seconds_ =
      &registry.GetHistogram("rps_sharded_engine_query_seconds", labels);
  insert_seconds_ =
      &registry.GetHistogram("rps_sharded_engine_insert_seconds", labels);
  publish_seconds_ =
      &registry.GetHistogram("rps_sharded_engine_publish_seconds", labels);
  publishes_total_ =
      &registry.GetCounter("rps_shard_publishes_total", labels);
  cloned_cells_total_ =
      &registry.GetCounter("rps_shard_cloned_cells_total", labels);
  shard_count_ = &registry.GetGauge("rps_shard_count", labels);
  generation_gauge_ = &registry.GetGauge("rps_shard_generation", labels);
  shard_count_->Set(static_cast<double>(count));

  // Initial version: every shard an all-zero cube at generation 1. One
  // pair of structures is built per distinct shard shape (balanced
  // slices have at most two) and cloned into the other shards.
  auto* version = new EngineVersion();
  version->generation = 1;
  version->shards.reserve(static_cast<size_t>(count));
  for (int s = 0; s < count; ++s) {
    const Shape sub = ShardShape(s);
    auto state = std::make_shared<ShardState>();
    for (const auto& built : version->shards) {
      if (built->sums->shape() == sub) {
        state->sums = built->sums->Clone();
        state->counts = built->counts->Clone();
        break;
      }
    }
    if (state->sums == nullptr) {
      state->sums = MakeDoubleMethod(method_, NdArray<double>(sub, 0.0), pool_);
      state->counts =
          MakeCountMethod(method_, NdArray<int64_t>(sub, int64_t{0}), pool_);
      RPS_CHECK_MSG(state->sums->Clone() != nullptr &&
                        state->counts->Clone() != nullptr,
                    "ShardedOlapEngine requires a clonable QueryMethod");
    }
    state->generation = 1;
    version->shards.push_back(std::move(state));
  }
  version_.store(version, std::memory_order_release);
  generation_gauge_->Set(1);
  {
    MutexLock lock(&writer_mu_);
    next_generation_ = 2;
  }
}

ShardedOlapEngine::~ShardedOlapEngine() {
  const EngineVersion* last =
      version_.exchange(nullptr, std::memory_order_acq_rel);
  domain_->Retire(const_cast<EngineVersion*>(last));
  // Best effort: with no readers pinned this frees everything this
  // engine retired; stragglers stay on the (leaked) global domain's
  // list and are reclaimed by later users.
  domain_->Drain();
}

int ShardedOlapEngine::ShardOf(int64_t row0) const {
  // starts_ is sorted; the owning shard is the last start <= row0.
  const auto it =
      std::upper_bound(starts_.begin(), starts_.end(), row0);
  return static_cast<int>(it - starts_.begin()) - 1;
}

Shape ShardedOlapEngine::ShardShape(int s) const {
  const Shape& shape = schema_.CubeShape();
  std::vector<int64_t> extents;
  extents.reserve(static_cast<size_t>(shape.dims()));
  extents.push_back(starts_[static_cast<size_t>(s) + 1] -
                    starts_[static_cast<size_t>(s)]);
  for (int j = 1; j < shape.dims(); ++j) extents.push_back(shape.extent(j));
  return Shape::FromExtents(extents);
}

uint64_t ShardedOlapEngine::generation() const {
  EpochDomain::Guard guard(*domain_);
  return version_.load(std::memory_order_acquire)->generation;
}

Box ShardedOlapEngine::LocalBox(const Box& range, int s) const {
  const int64_t base = starts_[static_cast<size_t>(s)];
  CellIndex lo = range.lo();
  CellIndex hi = range.hi();
  lo[0] = std::max(lo[0], base) - base;
  hi[0] = std::min(hi[0], starts_[static_cast<size_t>(s) + 1] - 1) - base;
  return Box(lo, hi);
}

ShardedOlapEngine::ReadView::ReadView(const ShardedOlapEngine& engine,
                                      const char* op)
    : engine_(engine),
      request_(obs::WideEventKind::kQuery, op,
               EngineMethodName(engine.method_)),
      span_(op),
      guard_(*engine.domain_),
      version_(engine.version_.load(std::memory_order_acquire)) {}

ShardedOlapEngine::ReadView::~ReadView() {
  engine_.query_seconds_->ObserveNanos(request_.Stop());
}

Result<Box> ShardedOlapEngine::ReadView::Resolve(
    const RangeQuery& query) const {
  Result<Box> range = query.Resolve(engine_.schema_);
  if (range.ok()) {
    request_.add_box_volume(range.value().NumCells());
  } else {
    request_.set_ok(false);
  }
  return range;
}

template <typename T>
Result<T> ShardedOlapEngine::ReadView::Total(const Box& range) const {
  if (!range.Within(engine_.schema_.CubeShape())) return OutsideCube();
  const int first = engine_.ShardOf(range.lo()[0]);
  const int last = engine_.ShardOf(range.hi()[0]);
  T total = 0;
  for (int s = first; s <= last; ++s) {
    total += StructureOf<T>(*version_->shards[static_cast<size_t>(s)])
                 .RangeSum(engine_.LocalBox(range, s));
  }
  return total;
}

template <typename T>
Result<std::vector<T>> ShardedOlapEngine::ReadView::Batch(
    std::span<const Box> ranges) const {
  for (const Box& range : ranges) {
    if (!range.Within(engine_.schema_.CubeShape())) return OutsideCube();
  }
  std::vector<T> out(ranges.size(), T{0});
  if (engine_.shards() == 1) {
    StructureOf<T>(*version_->shards[0]).RangeSumBatch(ranges, out);
    return out;
  }
  // Each shard answers the clipped parts of the boxes that reach it
  // in one batch; partial sums merge in shard order, as in Total.
  std::vector<Box> local;
  std::vector<size_t> owner;
  std::vector<T> partial;
  for (int s = 0; s < engine_.shards(); ++s) {
    const int64_t first_row = engine_.starts_[static_cast<size_t>(s)];
    const int64_t end_row = engine_.starts_[static_cast<size_t>(s) + 1];
    local.clear();
    owner.clear();
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (ranges[i].lo()[0] < end_row && ranges[i].hi()[0] >= first_row) {
        local.push_back(engine_.LocalBox(ranges[i], s));
        owner.push_back(i);
      }
    }
    if (local.empty()) continue;
    partial.assign(local.size(), T{0});
    StructureOf<T>(*version_->shards[static_cast<size_t>(s)])
        .RangeSumBatch(local, partial);
    for (size_t k = 0; k < local.size(); ++k) out[owner[k]] += partial[k];
  }
  return out;
}

Result<double> ShardedOlapEngine::ReadView::SumOverCells(
    const Box& range) const {
  return Total<double>(range);
}

Result<int64_t> ShardedOlapEngine::ReadView::CountOverCells(
    const Box& range) const {
  return Total<int64_t>(range);
}

Result<std::vector<double>> ShardedOlapEngine::ReadView::SumBatch(
    std::span<const Box> ranges) const {
  return Batch<double>(ranges);
}

Result<std::vector<int64_t>> ShardedOlapEngine::ReadView::CountBatch(
    std::span<const Box> ranges) const {
  return Batch<int64_t>(ranges);
}

void ShardedOlapEngine::Publish(EngineVersion* next) {
  const EngineVersion* previous =
      version_.exchange(next, std::memory_order_seq_cst);
  domain_->Retire(const_cast<EngineVersion*>(previous));
  publishes_total_->Increment();
  generation_gauge_->Set(static_cast<double>(next->generation));
  domain_->Reclaim();
}

ShardedOlapEngine::DenseShards ShardedOlapEngine::EmptyShards() const {
  DenseShards dense;
  dense.sums.reserve(static_cast<size_t>(shards()));
  dense.counts.reserve(static_cast<size_t>(shards()));
  for (int s = 0; s < shards(); ++s) {
    const Shape sub = ShardShape(s);
    dense.sums.emplace_back(sub, 0.0);
    dense.counts.emplace_back(sub, int64_t{0});
  }
  return dense;
}

void ShardedOlapEngine::BuildAndPublish(const DenseShards& dense) {
  const Stopwatch watch;
  MutexLock lock(&writer_mu_);
  const uint64_t generation = next_generation_++;
  auto* next = new EngineVersion();
  next->generation = generation;
  next->shards.reserve(dense.sums.size());
  for (size_t s = 0; s < dense.sums.size(); ++s) {
    auto state = std::make_shared<ShardState>();
    state->sums = MakeDoubleMethod(method_, dense.sums[s], pool_);
    state->counts = MakeCountMethod(method_, dense.counts[s], pool_);
    state->generation = generation;
    next->shards.push_back(std::move(state));
  }
  Publish(next);
  // Publish's Reclaim cannot free the version just retired, and a
  // read-only phase would keep it. Drain stops at a pinned reader.
  domain_->Drain();
  publish_seconds_->ObserveNanos(watch.ElapsedNanos());
}

IngestReport ShardedOlapEngine::Load(const std::vector<OlapRecord>& records) {
  IngestReport report;
  // Dense per-shard accumulation first (no lock held): binning is the
  // expensive part and touches no shared state.
  DenseShards dense = EmptyShards();
  for (const OlapRecord& record : records) {
    const Result<CellIndex> cell = schema_.CellOf(record.values);
    if (!cell.ok()) {
      ++report.rejected;
      continue;
    }
    CellIndex local = cell.value();
    const int s = ShardOf(local[0]);
    local[0] -= starts_[static_cast<size_t>(s)];
    dense.sums[static_cast<size_t>(s)].at(local) += record.measure;
    dense.counts[static_cast<size_t>(s)].at(local) += 1;
    ++report.accepted;
  }
  BuildAndPublish(dense);
  return report;
}

Status ShardedOlapEngine::LoadCells(const NdArray<double>& cell_sums,
                                    const NdArray<int64_t>& cell_counts) {
  const Shape& shape = schema_.CubeShape();
  if (!(cell_sums.shape() == shape) || !(cell_counts.shape() == shape)) {
    return Status::InvalidArgument("LoadCells shape mismatch: want " +
                                   shape.ToString());
  }
  // Dimension 0 is outermost in row-major order, so each shard's
  // slice is one contiguous run of the dense cube.
  DenseShards dense = EmptyShards();
  const int64_t row_cells = shape.num_cells() / shape.extent(0);
  for (size_t s = 0; s < dense.sums.size(); ++s) {
    const int64_t offset = starts_[s] * row_cells;
    std::copy_n(cell_sums.data() + offset, dense.sums[s].num_cells(),
                dense.sums[s].data());
    std::copy_n(cell_counts.data() + offset, dense.counts[s].num_cells(),
                dense.counts[s].data());
  }
  BuildAndPublish(dense);
  return Status::Ok();
}

Status ShardedOlapEngine::Insert(const OlapRecord& record) {
  return Apply(std::span<const OlapRecord>(&record, 1), "engine.insert");
}

Status ShardedOlapEngine::InsertBatch(std::span<const OlapRecord> records) {
  return Apply(records, "engine.insert_batch");
}

Status ShardedOlapEngine::Apply(std::span<const OlapRecord> records,
                                const char* op) {
  if (records.empty()) return Status::Ok();
  obs::RequestScope request(obs::WideEventKind::kUpdate, op,
                            EngineMethodName(method_));
  obs::CollectorSpan span(op);
  // Resolve and group outside the lock; any bad record fails the
  // whole batch before anything is cloned.
  std::vector<std::vector<QueryMethod<double>::CellDelta>> per_shard(
      static_cast<size_t>(shards()));
  for (const OlapRecord& record : records) {
    Result<CellIndex> cell = schema_.CellOf(record.values);
    if (!cell.ok()) {
      request.set_ok(false);
      return cell.status();
    }
    const int s = ShardOf(cell.value()[0]);
    cell.value()[0] -= starts_[static_cast<size_t>(s)];
    auto& local = per_shard[static_cast<size_t>(s)];
    if (local.empty()) local.reserve(records.size());
    local.push_back({cell.value(), record.measure});
  }

  MutexLock lock(&writer_mu_);
  const EngineVersion* current = version_.load(std::memory_order_acquire);
  const uint64_t generation = next_generation_++;
  auto* next = new EngineVersion();
  next->generation = generation;
  next->shards = current->shards;  // structural sharing by default
  int64_t cloned_cells = 0;
  UpdateStats touched;
  std::vector<QueryMethod<int64_t>::CellDelta> counts;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].empty()) continue;
    // Copy-on-write: clone the touched shard, apply the sub-batch to
    // the private clone, swap it into the new version.
    auto replacement = std::make_shared<ShardState>();
    replacement->sums = current->shards[s]->sums->Clone();
    replacement->counts = current->shards[s]->counts->Clone();
    replacement->generation = generation;
    counts.clear();
    counts.reserve(per_shard[s].size());
    for (const QueryMethod<double>::CellDelta& update : per_shard[s]) {
      counts.push_back({update.cell, 1});
    }
    touched += replacement->sums->AddBatch(per_shard[s]);
    touched += replacement->counts->AddBatch(counts);
    // What the clones copied: all of a deep copy, the box rows the
    // sub-batch reached for RPS.
    cloned_cells += replacement->sums->UnsharedCells() +
                    replacement->counts->UnsharedCells();
    next->shards[s] = std::move(replacement);
  }
  cloned_cells_total_->Increment(cloned_cells);
  update_cells_.fetch_add(touched.total(), std::memory_order_relaxed);
  request.set_cells(touched.primary_cells, touched.aux_cells);
  span.SetCells(touched.primary_cells, touched.aux_cells);
  Publish(next);
  insert_seconds_->ObserveNanos(request.Stop());
  return Status::Ok();
}

Result<double> ShardedOlapEngine::Sum(const RangeQuery& query) const {
  const ReadView view(*this, "engine.sum");
  RPS_ASSIGN_OR_RETURN(const Box range, view.Resolve(query));
  return view.SumOverCells(range);
}

Result<std::vector<double>> ShardedOlapEngine::QueryBatch(
    std::span<const RangeQuery> queries) const {
  const ReadView view(*this, "engine.sum_batch");
  std::vector<Box> ranges;
  ranges.reserve(queries.size());
  for (const RangeQuery& query : queries) {
    RPS_ASSIGN_OR_RETURN(const Box range, view.Resolve(query));
    ranges.push_back(range);
  }
  return view.SumBatch(ranges);
}

Result<int64_t> ShardedOlapEngine::Count(const RangeQuery& query) const {
  const ReadView view(*this, "engine.count");
  RPS_ASSIGN_OR_RETURN(const Box range, view.Resolve(query));
  return view.CountOverCells(range);
}

Result<double> ShardedOlapEngine::Average(const RangeQuery& query) const {
  const ReadView view(*this, "engine.average");
  RPS_ASSIGN_OR_RETURN(const Box range, view.Resolve(query));
  RPS_ASSIGN_OR_RETURN(const int64_t count, view.CountOverCells(range));
  if (count == 0) {
    return Status::FailedPrecondition("AVERAGE over a range with no records");
  }
  RPS_ASSIGN_OR_RETURN(const double sum, view.SumOverCells(range));
  return sum / static_cast<double>(count);
}

Result<std::vector<double>> ShardedOlapEngine::RollingSum(
    const RangeQuery& query, const std::string& dimension,
    int64_t window) const {
  if (window < 1) return Status::InvalidArgument("window must be >= 1");
  const ReadView view(*this, "engine.rolling_sum");
  return WindowSums(view, query, dimension, window);
}

Result<std::vector<double>> ShardedOlapEngine::RollingAverage(
    const RangeQuery& query, const std::string& dimension,
    int64_t window) const {
  if (window < 1) return Status::InvalidArgument("window must be >= 1");
  const ReadView view(*this, "engine.rolling_average");
  RPS_ASSIGN_OR_RETURN(const int j, schema_.DimensionIndex(dimension));
  RPS_ASSIGN_OR_RETURN(const Box range, view.Resolve(query));
  const std::vector<Box> windows = WindowBoxes(range, j, window);
  RPS_ASSIGN_OR_RETURN(std::vector<double> out, view.SumBatch(windows));
  RPS_ASSIGN_OR_RETURN(const std::vector<int64_t> counts,
                       view.CountBatch(windows));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = counts[i] == 0 ? 0.0 : out[i] / static_cast<double>(counts[i]);
  }
  return out;
}

ShardedOlapEngine::FrozenCells ShardedOlapEngine::FreezeCells() const {
  FrozenCells frozen;
  frozen.starts_ = starts_;
  // Writers publish and retire only under writer_mu_, so the published
  // version cannot be freed while it is held; no epoch pin needed.
  MutexLock lock(&writer_mu_);
  frozen.shards_ = version_.load(std::memory_order_acquire)->shards;
  return frozen;
}

void ShardedOlapEngine::FrozenCells::ForEach(
    const std::function<void(const CellIndex&, double, int64_t)>& visit)
    const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardState& shard = *shards_[s];
    const Box local = Box::All(shard.sums->shape());
    CellIndex index = local.lo();
    do {
      CellIndex cell = index;
      cell[0] += starts_[s];
      visit(cell, shard.sums->ValueAt(index), shard.counts->ValueAt(index));
    } while (NextIndexInBox(local, index));
  }
}

std::string ShardedOlapEngine::HealthJson() const {
  std::string out = "{\"method\":\"";
  out += EngineMethodName(method_);
  out += "\",\"shards\":";
  out += std::to_string(shards());
  out += ",\"generation\":";
  out += std::to_string(generation());
  out += ",\"cube_cells\":";
  out += std::to_string(schema_.CubeShape().num_cells());
  out += ",\"update_cells\":";
  out += std::to_string(cumulative_update_cells());
  out += ",\"epoch\":";
  out += domain_->VarzJson();
  out += '}';
  return out;
}

std::string ShardedOlapEngine::VarzJson() const {
  EpochDomain::Guard guard(*domain_);
  const EngineVersion* version = version_.load(std::memory_order_acquire);
  std::string out = "{\"generation\":";
  out += std::to_string(version->generation);
  out += ",\"shards\":[";
  for (size_t s = 0; s < version->shards.size(); ++s) {
    if (s > 0) out += ',';
    const ShardState& shard = *version->shards[s];
    out += "{\"shard\":";
    out += std::to_string(s);
    out += ",\"rows\":[";
    out += std::to_string(starts_[s]);
    out += ',';
    out += std::to_string(starts_[s + 1] - 1);
    out += "],\"cells\":";
    out += std::to_string(shard.sums->Memory().total());
    out += ",\"generation\":";
    out += std::to_string(shard.generation);
    out += '}';
  }
  out += "],\"epoch\":";
  out += domain_->VarzJson();
  out += '}';
  return out;
}

}  // namespace rps
