#include "core/sweet_knn.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "core/device_points.h"
#include "core/shard_merge.h"

namespace sweetknn {

SweetKnnIndex::SweetKnnIndex(const HostMatrix& target,
                             const SweetKnn::Config& config)
    : config_(config),
      device_(std::make_unique<gpusim::Device>(config.device)),
      engine_(std::make_unique<core::TiKnnEngine>(device_.get(),
                                                  config.options)),
      planner_(config.planner),
      dims_(target.cols()),
      base_rows_(target.rows()),
      next_id_(static_cast<uint32_t>(target.rows())) {
  engine_->PrepareTarget(target);
  host_image_ = core::HostImage(target, engine_->ExportTargetClustering());
  delta_.dims = dims_;
  RebuildAnn(target);
}

SweetKnnIndex::SweetKnnIndex(WarmStartTag, const HostMatrix& target,
                             const core::TargetClusteringHost& clustering,
                             const SweetKnn::Config& config)
    : config_(config),
      device_(std::make_unique<gpusim::Device>(config.device)),
      engine_(std::make_unique<core::TiKnnEngine>(device_.get(),
                                                  config.options)),
      planner_(config.planner),
      host_image_(target, clustering),
      dims_(target.cols()),
      base_rows_(target.rows()),
      next_id_(static_cast<uint32_t>(target.rows())) {
  engine_->RestoreTarget(target, clustering);
  delta_.dims = dims_;
  // No ANN build here: Load (the only caller) either adopts the
  // persisted graph or rebuilds, after checking the snapshot.
}

void SweetKnnIndex::RebuildAnn(const HostMatrix& base) {
  if (!config_.enable_ann || base.rows() == 0) {
    ann_ = ann::AnnIndex();
    return;
  }
  ann::GraphBuildParams params = config_.ann_params;
  // An unset width inherits the engine's thread budget; with that unset
  // too, the build (which blocks the caller) runs on every hardware
  // thread.
  if (params.workers <= 0) params.workers = config_.options.sim_threads;
  ann_ = ann::AnnIndex::Build(
      base, core::SimdDistFor(config_.options.metric), params,
      core::AnnEntryPointsFromClustering(host_image_.clustering()));
}

void SweetKnnIndex::AdoptAnnGraph(const HostMatrix& base,
                                  ann::KnnGraph graph) {
  ann_ = ann::AnnIndex::Adopt(
      base, core::SimdDistFor(config_.options.metric), std::move(graph));
}

void SweetKnnIndex::AdoptOverlay(std::vector<uint32_t> id_map,
                                 std::vector<uint32_t> delta_ids,
                                 std::vector<float> delta_points,
                                 const std::vector<uint32_t>& tombstones,
                                 uint32_t next_id) {
  id_map_ = std::move(id_map);
  SK_CHECK(id_map_.empty() || id_map_.size() == base_rows_);
  delta_.ids = std::move(delta_ids);
  delta_.points = std::move(delta_points);
  SK_CHECK_EQ(delta_.points.size(), delta_.ids.size() * dims_);
  delta_.tombstones.clear();
  delta_.tombstones.insert(tombstones.begin(), tombstones.end());
  if (next_id != 0) {
    next_id_ = next_id;
  }
  SK_CHECK_GE(next_id_, base_rows_ == 0 ? 0u : BaseId(base_rows_ - 1) + 1);
  if (!delta_.ids.empty()) SK_CHECK_GT(next_id_, delta_.ids.back());
}

KnnResult SweetKnnIndex::Query(const HostMatrix& queries, int k,
                               core::KnnRunStats* stats) {
  SK_CHECK_EQ(queries.cols(), dims_);
  // Route the base scan by cost. Both routes return bit-identical
  // neighbor lists (the host path's TI scan runs the same canonical
  // float pipeline the engine is fuzz-proven against), so only
  // wall-clock and the stats differ: a host-routed batch reports empty
  // KnnRunStats — no simulated device ran.
  const core::QueryRoute route =
      planner_.Choose(queries.rows(), base_rows_, dims_);
  const auto run_base = [&](int base_k,
                            core::KnnRunStats* out) -> KnnResult {
    if (route == core::QueryRoute::kHost) {
      if (out != nullptr) *out = core::KnnRunStats{};
      const int workers = config_.options.sim_threads > 0
                              ? config_.options.sim_threads
                              : common::SimThreadsFromEnv();
      return host_image_.Knn(queries, base_k,
                             core::SimdDistFor(config_.options.metric),
                             workers);
    }
    core::KnnRunStats local;
    const KnnResult result = engine_->RunQueries(queries, base_k, &local);
    planner_.ObserveDeviceRun(local);
    if (out != nullptr) *out = local;
    return result;
  };
  if (pristine()) {
    return run_base(k, stats);
  }
  // Over-query the frozen base so tombstone masking can never leave a
  // row short of k live candidates.
  const int base_k = k + static_cast<int>(delta_.tombstones.size());
  const KnnResult base = run_base(base_k, stats);
  std::vector<core::MergeSource> sources;
  core::MergeSource base_src;
  base_src.result = &base;
  base_src.id_map = id_map_.empty() ? nullptr : id_map_.data();
  base_src.tombstones =
      delta_.tombstones.empty() ? nullptr : &delta_.tombstones;
  sources.push_back(base_src);
  KnnResult delta_result;
  if (delta_.size() > 0) {
    delta_result = core::ScanDelta(delta_, queries, k,
                                   config_.options.metric);
    core::MergeSource delta_src;
    delta_src.result = &delta_result;
    delta_src.id_map = delta_.ids.data();
    sources.push_back(delta_src);
  }
  return core::MergeMutableResults(sources, k);
}

KnnResult SweetKnnIndex::Query(const HostMatrix& queries, int k,
                               const ann::SearchMode& mode,
                               core::KnnRunStats* stats,
                               ann::AnnSearchStats* ann_stats) {
  // Effectively exact requests — and approx requests against an index
  // without a graph — take the exact path, bit-identically.
  if (mode.EffectiveExact() || ann_.empty()) {
    return Query(queries, k, stats);
  }
  SK_CHECK_EQ(queries.cols(), dims_);
  if (stats != nullptr) *stats = core::KnnRunStats{};  // no device ran
  const int workers = config_.options.sim_threads > 0
                          ? config_.options.sim_threads
                          : common::SimThreadsFromEnv();
  if (pristine()) {
    return ann_.Search(queries, k, ann::EffectiveEf(mode, k), workers,
                       ann_stats);
  }
  // Same merge protocol as the exact path: over-query the base so
  // tombstone masking can never starve the top-k, scan the delta
  // exactly, mask and merge by stable id.
  const int base_k = k + static_cast<int>(delta_.tombstones.size());
  const int ef = std::max(ann::EffectiveEf(mode, k), base_k);
  const KnnResult base = ann_.Search(queries, base_k, ef, workers, ann_stats);
  std::vector<core::MergeSource> sources;
  core::MergeSource base_src;
  base_src.result = &base;
  base_src.id_map = id_map_.empty() ? nullptr : id_map_.data();
  base_src.tombstones =
      delta_.tombstones.empty() ? nullptr : &delta_.tombstones;
  sources.push_back(base_src);
  KnnResult delta_result;
  if (delta_.size() > 0) {
    delta_result = core::ScanDelta(delta_, queries, k,
                                   config_.options.metric);
    core::MergeSource delta_src;
    delta_src.result = &delta_result;
    delta_src.id_map = delta_.ids.data();
    sources.push_back(delta_src);
  }
  return core::MergeMutableResults(sources, k);
}

std::vector<Neighbor> SweetKnnIndex::Query(const std::vector<float>& point,
                                           int k) {
  SK_CHECK_EQ(point.size(), dims_);
  HostMatrix one(1, dims_);
  std::memcpy(one.mutable_row(0), point.data(), dims_ * sizeof(float));
  const KnnResult result = Query(one, k);
  return std::vector<Neighbor>(result.row(0), result.row(0) + result.k());
}

RangeResult SweetKnnIndex::RadiusSearch(const HostMatrix& queries,
                                        float radius,
                                        core::RangeScanStats* stats) {
  SK_CHECK_EQ(queries.cols(), dims_);
  if (stats != nullptr) *stats = core::RangeScanStats{};
  const simd::Dist dist_kind = core::SimdDistFor(config_.options.metric);
  RangeResult base;
  if (base_rows_ > 0) {
    const core::QueryRoute route =
        planner_.Choose(queries.rows(), base_rows_, dims_);
    base = route == core::QueryRoute::kDevice
               ? core::TiRangeScan(queries, host_image_, radius, dist_kind,
                                   stats)
               : core::FullRangeScan(queries, host_image_, radius, dist_kind,
                                     stats);
  } else {
    for (size_t q = 0; q < queries.rows(); ++q) base.AppendRow(nullptr, 0);
  }
  if (pristine()) return base;  // base row index == stable id already
  const RangeResult delta =
      core::RangeScanDelta(delta_, queries, radius, config_.options.metric);
  RangeResult out;
  std::vector<Neighbor> row;
  for (size_t q = 0; q < queries.rows(); ++q) {
    row.clear();
    for (const Neighbor* nb = base.begin(q); nb != base.end(q); ++nb) {
      const uint32_t id = BaseId(nb->index);
      if (delta_.tombstones.count(id) != 0) continue;
      row.push_back(Neighbor{id, nb->distance});
    }
    for (const Neighbor* nb = delta.begin(q); nb != delta.end(q); ++nb) {
      row.push_back(Neighbor{delta_.ids[nb->index], nb->distance});
    }
    std::sort(row.begin(), row.end(), NeighborLess);
    out.AppendRow(row);
  }
  return out;
}

namespace {
/// Rows per chunk of the offline jobs (SelfJoin / KnnGraph): small
/// enough to bound peak memory, large enough to amortize the scans.
constexpr size_t kJobChunkRows = 64;
}  // namespace

std::vector<SelfJoinPair> SweetKnnIndex::SelfJoin(
    float radius, core::RangeScanStats* stats) {
  if (stats != nullptr) *stats = core::RangeScanStats{};
  std::vector<uint32_t> ids;
  HostMatrix points;
  ExportLive(&ids, &points);
  std::vector<SelfJoinPair> pairs;
  for (size_t begin = 0; begin < ids.size(); begin += kJobChunkRows) {
    const size_t end = std::min(ids.size(), begin + kJobChunkRows);
    HostMatrix chunk(end - begin, dims_);
    std::memcpy(chunk.mutable_data(), points.row(begin),
                (end - begin) * dims_ * sizeof(float));
    core::RangeScanStats chunk_stats;
    const RangeResult r = RadiusSearch(chunk, radius,
                                       stats != nullptr ? &chunk_stats
                                                        : nullptr);
    if (stats != nullptr) stats->Accumulate(chunk_stats);
    for (size_t i = 0; i < r.num_queries(); ++i) {
      const uint32_t a = ids[begin + i];
      for (const Neighbor* nb = r.begin(i); nb != r.end(i); ++nb) {
        // id > a emits each unordered pair once and drops the
        // self-match; rows are NeighborLess-sorted, so pairs of one `a`
        // come out in (distance, b) order.
        if (nb->index > a) pairs.push_back({a, nb->index, nb->distance});
      }
    }
  }
  return pairs;
}

SweetKnnIndex::KnnGraphResult SweetKnnIndex::KnnGraph(int k) {
  SK_CHECK_GT(k, 0);
  KnnGraphResult out;
  HostMatrix points;
  ExportLive(&out.ids, &points);
  out.neighbors = KnnResult(out.ids.size(), k);
  std::vector<Neighbor> row;
  for (size_t begin = 0; begin < out.ids.size(); begin += kJobChunkRows) {
    const size_t end = std::min(out.ids.size(), begin + kJobChunkRows);
    HostMatrix chunk(end - begin, dims_);
    std::memcpy(chunk.mutable_data(), points.row(begin),
                (end - begin) * dims_ * sizeof(float));
    const KnnResult r = Query(chunk, k + 1);
    for (size_t i = 0; i < end - begin; ++i) {
      row.clear();
      const uint32_t self = out.ids[begin + i];
      bool dropped_self = false;
      for (const Neighbor* nb = r.row(i); nb != r.row(i) + r.k(); ++nb) {
        if (nb->index == kInvalidNeighbor) break;
        if (!dropped_self && nb->index == self) {
          dropped_self = true;
          continue;
        }
        if (row.size() == static_cast<size_t>(k)) break;
        row.push_back(*nb);
      }
      out.neighbors.SetRow(begin + i, row);
    }
  }
  return out;
}

void SweetKnnIndex::ExportLive(std::vector<uint32_t>* ids,
                               HostMatrix* points) const {
  const HostMatrix base = engine_->ExportTarget();
  ids->clear();
  std::vector<const float*> rows;
  ids->reserve(size());
  rows.reserve(size());
  for (size_t i = 0; i < base_rows_; ++i) {
    const uint32_t id = BaseId(i);
    if (delta_.tombstones.count(id) != 0) continue;
    ids->push_back(id);
    rows.push_back(base.row(i));
  }
  // Delta ids all exceed every base id, so appending stays ascending.
  for (size_t i = 0; i < delta_.size(); ++i) {
    ids->push_back(delta_.ids[i]);
    rows.push_back(delta_.point(i));
  }
  *points = HostMatrix(ids->size(), dims_);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(points->mutable_row(i), rows[i], dims_ * sizeof(float));
  }
}

uint32_t SweetKnnIndex::Insert(const std::vector<float>& point) {
  SK_CHECK_EQ(point.size(), dims_);
  const uint32_t id = next_id_++;
  delta_.Append(id, point.data());
  MaybeCompact();
  return id;
}

bool SweetKnnIndex::BaseContains(uint32_t id) const {
  if (id_map_.empty()) return id < base_rows_;
  return std::binary_search(id_map_.begin(), id_map_.end(), id);
}

bool SweetKnnIndex::Remove(uint32_t id) {
  const size_t pos = delta_.Find(id);
  if (pos != core::DeltaBuffer::kNotFound) {
    // Delta points were never clustered; erase in place.
    delta_.EraseAt(pos);
    return true;
  }
  if (!BaseContains(id) || delta_.tombstones.count(id) != 0) return false;
  delta_.tombstones.insert(id);
  MaybeCompact();
  return true;
}

std::vector<uint32_t> SweetKnnIndex::LiveIds() const {
  std::vector<uint32_t> live;
  live.reserve(size());
  for (size_t i = 0; i < base_rows_; ++i) {
    const uint32_t id = BaseId(i);
    if (delta_.tombstones.count(id) == 0) live.push_back(id);
  }
  // Every delta id exceeds every base id (ids are allocated monotonically
  // and the delta postdates the base), so this stays ascending.
  live.insert(live.end(), delta_.ids.begin(), delta_.ids.end());
  return live;
}

void SweetKnnIndex::MaybeCompact() {
  const double fraction = config_.compact_delta_fraction;
  if (fraction <= 0.0) return;
  const double overlay =
      static_cast<double>(delta_.size() + delta_.tombstones.size());
  if (overlay > fraction * static_cast<double>(base_rows_)) Compact();
}

void SweetKnnIndex::Compact() {
  if (delta_.Pristine() && id_map_.empty()) return;
  const size_t live = size();
  if (live == 0) return;  // an empty base cannot be clustered; keep masking

  const HostMatrix base_points = engine_->ExportTarget();
  HostMatrix fresh(live, dims_);
  std::vector<uint32_t> fresh_ids;
  fresh_ids.reserve(live);
  size_t out = 0;
  for (size_t i = 0; i < base_rows_; ++i) {
    const uint32_t id = BaseId(i);
    if (delta_.tombstones.count(id) != 0) continue;
    std::memcpy(fresh.mutable_row(out), base_points.row(i),
                dims_ * sizeof(float));
    fresh_ids.push_back(id);
    ++out;
  }
  for (size_t i = 0; i < delta_.size(); ++i) {
    std::memcpy(fresh.mutable_row(out), delta_.point(i),
                dims_ * sizeof(float));
    fresh_ids.push_back(delta_.ids[i]);
    ++out;
  }
  SK_CHECK_EQ(out, live);

  // A fresh device, not a re-used one: the adaptive scheme reads free
  // device memory, so rebuilding on the old device (with the old base
  // still allocated) could cluster differently than a cold build. The
  // old engine goes first: its buffers release into the old device.
  engine_.reset();
  device_ = std::make_unique<gpusim::Device>(config_.device);
  engine_ =
      std::make_unique<core::TiKnnEngine>(device_.get(), config_.options);
  engine_->PrepareTarget(fresh);
  host_image_ = core::HostImage(fresh, engine_->ExportTargetClustering());
  RebuildAnn(fresh);
  base_rows_ = live;
  // Normalize: ids 0..live-1 need no map (lets Save emit v1 again).
  bool identity = true;
  for (size_t i = 0; i < fresh_ids.size(); ++i) {
    if (fresh_ids[i] != i) {
      identity = false;
      break;
    }
  }
  id_map_ = identity ? std::vector<uint32_t>{} : std::move(fresh_ids);
  delta_.Clear();
  ++compactions_;
}

}  // namespace sweetknn
