#include "serve/shard_backend.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/device_points.h"

namespace sweetknn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Splits a profile's simulated kernel time by pipeline stage. Kernel
/// names are stable identifiers ("level1_calub", "level2_full_filter",
/// ...); everything that is neither level-1 nor level-2 filtering is
/// preprocessing (upload layout kernels, landmark clustering, member
/// scatter — the amortized Step-1 work plus per-batch query prep).
void AccumulateStageTimes(const gpusim::Profile& profile, double* level1,
                          double* level2, double* preprocess) {
  for (const gpusim::LaunchRecord& record : profile.launches) {
    if (record.kernel_name.rfind("level1", 0) == 0) {
      *level1 += record.sim_time_s;
    } else if (record.kernel_name.rfind("level2", 0) == 0) {
      *level2 += record.sim_time_s;
    } else {
      *preprocess += record.sim_time_s;
    }
  }
}

}  // namespace

void ShardHost::BuildCold(const HostMatrix& slice) {
  engine.PrepareTarget(slice);
  clustering_cache_.reset();
  packed_base =
      simd::PackedTargets::Pack(slice.data(), slice.rows(), slice.cols());
  set_base_rows(slice.rows());
  delta.dims = slice.cols();
  if (ann_enabled_ && slice.rows() > 0) {
    ann = ann::AnnIndex::Build(
        slice, core::SimdDistFor(engine.options().metric), ann_params_,
        core::AnnEntryPointsFromClustering(engine.ExportTargetClustering()));
  }
}

void ShardHost::RestoreBase(const HostMatrix& target,
                            const core::TargetClusteringHost& clustering) {
  engine.RestoreTarget(target, clustering);
  clustering_cache_.reset();
  packed_base = simd::PackedTargets::Pack(target.data(), target.rows(),
                                          target.cols());
  if (ann_enabled_ && target.rows() > 0) {
    const simd::Dist dist_kind = core::SimdDistFor(engine.options().metric);
    if (pending_graph_.num_nodes == target.rows()) {
      // The snapshot carried the graph: adopt it verbatim (node ids are
      // local base rows, valid as-is) instead of re-running NN-descent.
      ann = ann::AnnIndex::Adopt(target, dist_kind,
                                 std::move(pending_graph_));
    } else {
      ann = ann::AnnIndex::Build(
          target, dist_kind, ann_params_,
          core::AnnEntryPointsFromClustering(
              engine.ExportTargetClustering()));
    }
  }
  pending_graph_ = ann::KnnGraph{};
}

void ShardHost::AdoptOverlay(const store::IndexSnapshot& snap) {
  pending_graph_ = snap.ann_graph;
  offset = static_cast<uint32_t>(snap.shard_offset);
  set_base_rows(snap.target.rows());
  id_map = snap.id_map;
  delta.dims = snap.target.cols();
  delta.ids = snap.delta_ids;
  delta.points = snap.delta_points.storage();
  delta.tombstones.insert(snap.tombstones.begin(), snap.tombstones.end());
}

core::ShardAnswer ShardHost::SearchGroup(const HostMatrix& queries, int k,
                                         core::QueryRoute route,
                                         core::Metric metric,
                                         const ann::SearchMode& mode) {
  core::ShardAnswer answer;
  answer.offset = offset;
  answer.pristine = Pristine();
  // Effectively exact modes — and approx against a graph-free shard —
  // run the exact base scan below, bit-identically to a plain call.
  const bool approx = !mode.EffectiveExact() && !ann.empty();
  answer.approx = approx;
  answer.device_routed = !approx && route == core::QueryRoute::kDevice;
  // A pristine shard's contribution is the same whether the rest of the
  // service is mutated or not (base_k = k + 0 tombstones; offset remap
  // equals the identity merge source), so the pristine/mutated decision
  // is purely local — no cross-shard coordination crosses the wire.
  const int base_k =
      k + (answer.pristine ? 0
                           : static_cast<int>(delta.tombstones.size()));
  const simd::Dist dist_kind = core::SimdDistFor(metric);
  core::KnnRunStats stats;
  KnnResult base_result;
  KnnResult delta_result;
  const SteadyClock::time_point start = SteadyClock::now();
  if (approx) {
    // The graph search over-queries at base_k too, so tombstone masking
    // below never eats into the requested k.
    const int ef = std::max(ann::EffectiveEf(mode, k), base_k);
    ann::AnnSearchStats ann_stats;
    // workers=1: the shard fan-out is already the host-parallel axis.
    base_result = ann.Search(queries, base_k, ef, /*workers=*/1, &ann_stats);
    answer.ann_hops = ann_stats.hops;
    answer.ann_candidates = ann_stats.candidates_visited;
  } else if (route == core::QueryRoute::kHost) {
    base_result = simd::PackedKnn(queries, packed_base, base_k, dist_kind,
                                  /*workers=*/1);
  } else {
    base_result = engine.RunQueries(queries, base_k, &stats);
  }
  const bool has_delta = delta.size() > 0;
  if (!answer.pristine && has_delta) {
    // The delta scan contributes no simulated device time — it models
    // host-side work the GPU index never sees.
    delta_result = core::ScanDelta(delta, queries, k, metric);
  }
  answer.route_seconds = SecondsBetween(start, SteadyClock::now());

  if (answer.pristine) {
    answer.result = std::move(base_result);
  } else {
    // Shard-local exact merge: over-queried base (tombstones masked,
    // local indices -> stable ids) plus the delta side scan. The rows
    // are this shard's exact live top-k under (distance, stable id).
    std::vector<core::MergeSource> sources;
    core::MergeSource base;
    base.result = &base_result;
    base.id_map = id_map.empty() ? nullptr : id_map.data();
    base.offset = offset;
    base.tombstones = delta.tombstones.empty() ? nullptr : &delta.tombstones;
    sources.push_back(base);
    if (has_delta) {
      core::MergeSource side;
      side.result = &delta_result;
      side.id_map = delta.ids.data();
      sources.push_back(side);
    }
    answer.result = core::MergeMutableResults(sources, k);
  }

  if (answer.device_routed) {
    answer.sim_time_s = stats.sim_time_s;
    answer.distance_calcs = stats.distance_calcs;
    answer.total_pairs = stats.total_pairs;
    answer.filter_used = stats.filter_used;
    answer.placement_used = stats.placement_used;
    answer.threads_per_query = stats.threads_per_query;
    AccumulateStageTimes(stats.profile, &answer.level1_s, &answer.level2_s,
                         &answer.preprocess_s);
    answer.transfer_s = stats.profile.transfer_time_s;
  }
  return answer;
}

const core::TargetClusteringHost& ShardHost::CachedClustering() {
  if (clustering_cache_ == nullptr) {
    clustering_cache_ = std::make_unique<core::TargetClusteringHost>(
        engine.ExportTargetClustering());
  }
  return *clustering_cache_;
}

core::RangeShardAnswer ShardHost::RangeGroup(const HostMatrix& queries,
                                             float radius,
                                             core::QueryRoute route,
                                             core::Metric metric) {
  core::RangeShardAnswer answer;
  answer.device_routed = route == core::QueryRoute::kDevice;
  const simd::Dist dist_kind = core::SimdDistFor(metric);
  const SteadyClock::time_point start = SteadyClock::now();
  RangeResult base;
  if (base_rows() > 0) {
    base = answer.device_routed
               ? core::TiRangeScan(queries, packed_base, CachedClustering(),
                                   radius, dist_kind, &answer.stats)
               : core::FullRangeScan(queries, packed_base, radius, dist_kind,
                                     &answer.stats);
  } else {
    for (size_t q = 0; q < queries.rows(); ++q) {
      base.AppendRow(nullptr, 0);
    }
  }
  const bool has_delta = delta.size() > 0;
  RangeResult delta_matches;
  if (has_delta) {
    delta_matches = core::RangeScanDelta(delta, queries, radius, metric);
  }
  // Stable-id substitution happens here unconditionally — range answers
  // have no pristine fast path (a pristine shard's BaseId is just the
  // offset shift), so the merge side never sees local indices.
  std::vector<Neighbor> row;
  for (size_t q = 0; q < queries.rows(); ++q) {
    row.clear();
    for (const Neighbor* nb = base.begin(q); nb != base.end(q); ++nb) {
      const uint32_t id = BaseId(nb->index);
      if (delta.tombstones.count(id) != 0) continue;
      row.push_back(Neighbor{id, nb->distance});
    }
    if (has_delta) {
      for (const Neighbor* nb = delta_matches.begin(q);
           nb != delta_matches.end(q); ++nb) {
        row.push_back(Neighbor{delta.ids[nb->index], nb->distance});
      }
    }
    std::sort(row.begin(), row.end(), NeighborLess);
    answer.result.AppendRow(row);
  }
  answer.route_seconds = SecondsBetween(start, SteadyClock::now());
  return answer;
}

void ShardHost::ExportLive(std::vector<uint32_t>* ids,
                           HostMatrix* points) const {
  const HostMatrix base = engine.ExportTarget();
  const size_t dims = base.cols() > 0 ? base.cols() : delta.dims;
  std::vector<std::pair<uint32_t, const float*>> live;
  live.reserve(base.rows() + delta.size());
  for (size_t i = 0; i < base.rows(); ++i) {
    const uint32_t id = BaseId(i);
    if (delta.tombstones.count(id) == 0) live.emplace_back(id, base.row(i));
  }
  for (size_t j = 0; j < delta.size(); ++j) {
    if (delta.tombstones.count(delta.ids[j]) == 0) {
      live.emplace_back(delta.ids[j], delta.point(j));
    }
  }
  ids->clear();
  ids->reserve(live.size());
  *points = HostMatrix(live.size(), dims);
  for (size_t r = 0; r < live.size(); ++r) {
    ids->push_back(live[r].first);
    std::memcpy(points->mutable_row(r), live[r].second,
                dims * sizeof(float));
  }
}

bool ShardHost::Owns(uint32_t id) const {
  if (delta.Find(id) != core::DeltaBuffer::kNotFound) return true;
  if (id_map.empty()) {
    return id >= offset && id < offset + base_rows();
  }
  return std::binary_search(id_map.begin(), id_map.end(), id);
}

bool ShardHost::ApplyRemove(uint32_t id) {
  if (!Owns(id)) return false;
  if (delta.tombstones.count(id) != 0) return false;  // already removed
  const size_t pos = delta.Find(id);
  if (pos == core::DeltaBuffer::kNotFound ||
      (compact_watermark != kNoCompaction && pos < compact_watermark)) {
    // A base point, or a delta entry an in-flight compaction has
    // already consumed (the rebuild contains it): mask it. Erasing
    // a consumed entry would resurrect the point at install.
    delta.tombstones.insert(id);
  } else {
    delta.EraseAt(pos);
  }
  return true;
}

store::IndexSnapshot ShardHost::Export(const std::string& dataset_name,
                                       const std::string& builder,
                                       uint32_t shard_index,
                                       uint32_t shard_count,
                                       const std::string& options_fingerprint,
                                       const std::string& device_fingerprint,
                                       uint32_t next_id) const {
  store::IndexSnapshot snap;
  snap.dataset_name = dataset_name;
  snap.builder = builder;
  snap.shard_index = shard_index;
  snap.shard_count = shard_count;
  snap.shard_offset = offset;
  snap.target = engine.ExportTarget();
  snap.clustering = engine.ExportTargetClustering();
  snap.options_fingerprint = options_fingerprint;
  snap.device_fingerprint = device_fingerprint;
  if (!Pristine()) {
    const size_t dims = delta.dims;
    snap.id_map = id_map;
    // Normalization: a tombstoned delta entry (the transient state of a
    // remove that hit a compaction-consumed row) is simply dead — the
    // snapshot drops both the entry and its tombstone, restoring the
    // file invariant that tombstones name base rows only.
    for (size_t j = 0; j < delta.size(); ++j) {
      if (delta.tombstones.count(delta.ids[j]) == 0) {
        snap.delta_ids.push_back(delta.ids[j]);
      }
    }
    snap.delta_points = HostMatrix(snap.delta_ids.size(), dims);
    size_t out = 0;
    for (size_t j = 0; j < delta.size(); ++j) {
      if (delta.tombstones.count(delta.ids[j]) == 0) {
        std::memcpy(snap.delta_points.mutable_row(out++), delta.point(j),
                    dims * sizeof(float));
      }
    }
    for (uint32_t id : delta.tombstones) {
      if (delta.Find(id) == core::DeltaBuffer::kNotFound) {
        snap.tombstones.push_back(id);
      }
    }
    std::sort(snap.tombstones.begin(), snap.tombstones.end());
    snap.next_id = next_id;
  }
  if (!ann.empty()) snap.ann_graph = ann.graph();
  return snap;
}

void CaptureCompaction(ShardHost* shard, int shard_index,
                       CompactionPlan* plan) {
  SK_CHECK_EQ(shard->compact_watermark, ShardHost::kNoCompaction);
  plan->shard = shard_index;
  plan->epoch = shard->epoch;
  plan->watermark = shard->delta.size();
  plan->captured_tombstones = shard->delta.tombstones;
  shard->compact_watermark = plan->watermark;

  // The new base: base survivors, then consumed live delta entries —
  // ascending stable-id order, because every delta id postdates (and
  // exceeds) every base id of its shard.
  const HostMatrix base = shard->engine.ExportTarget();
  const size_t dims = base.cols();
  std::vector<size_t> base_survivors;
  for (size_t i = 0; i < base.rows(); ++i) {
    if (plan->captured_tombstones.count(shard->BaseId(i)) == 0) {
      base_survivors.push_back(i);
    }
  }
  std::vector<size_t> delta_survivors;
  for (size_t j = 0; j < plan->watermark; ++j) {
    if (plan->captured_tombstones.count(shard->delta.ids[j]) == 0) {
      delta_survivors.push_back(j);
    }
  }
  plan->points =
      HostMatrix(base_survivors.size() + delta_survivors.size(), dims);
  plan->ids.reserve(plan->points.rows());
  size_t out = 0;
  for (size_t i : base_survivors) {
    std::memcpy(plan->points.mutable_row(out++), base.row(i),
                dims * sizeof(float));
    plan->ids.push_back(shard->BaseId(i));
  }
  for (size_t j : delta_survivors) {
    std::memcpy(plan->points.mutable_row(out++), shard->delta.point(j),
                dims * sizeof(float));
    plan->ids.push_back(shard->delta.ids[j]);
  }
}

std::unique_ptr<ShardHost> RebuildCompacted(const CompactionPlan& plan,
                                            const gpusim::DeviceSpec& device,
                                            const core::TiOptions& options,
                                            size_t dims, bool ann_enabled,
                                            const ann::GraphBuildParams&
                                                ann_params) {
  auto fresh = std::make_unique<ShardHost>(device, options);
  fresh->ConfigureAnn(ann_enabled, ann_params);
  fresh->engine.PrepareTarget(plan.points);
  fresh->packed_base = simd::PackedTargets::Pack(
      plan.points.data(), plan.points.rows(), plan.points.cols());
  fresh->set_base_rows(plan.points.rows());
  fresh->delta.dims = dims;
  if (ann_enabled && plan.points.rows() > 0) {
    // Fresh base, fresh graph — part of the off-lock rebuild, so graph
    // construction never blocks serving.
    fresh->ann = ann::AnnIndex::Build(
        plan.points, core::SimdDistFor(options.metric), ann_params,
        core::AnnEntryPointsFromClustering(
            fresh->engine.ExportTargetClustering()));
  }
  const bool identity =
      !plan.ids.empty() && plan.ids.front() == 0 &&
      plan.ids.back() == static_cast<uint32_t>(plan.ids.size()) - 1;
  if (identity) {
    fresh->offset = 0;  // ids are literally 0..n-1: back to pristine form
  } else {
    fresh->id_map = plan.ids;
    fresh->offset = 0;  // unused once an explicit id map is set
  }
  return fresh;
}

void CarryOverlayForward(const ShardHost& old_shard,
                         const CompactionPlan& plan, ShardHost* fresh) {
  for (size_t j = plan.watermark; j < old_shard.delta.size(); ++j) {
    fresh->delta.Append(old_shard.delta.ids[j], old_shard.delta.point(j));
  }
  for (uint32_t id : old_shard.delta.tombstones) {
    if (plan.captured_tombstones.count(id) == 0) {
      fresh->delta.tombstones.insert(id);
    }
  }
}

void MergeLiveExports(const std::vector<std::vector<uint32_t>>& part_ids,
                      const std::vector<HostMatrix>& part_points, size_t dims,
                      std::vector<uint32_t>* ids, HostMatrix* points) {
  std::vector<std::pair<uint32_t, std::pair<size_t, size_t>>> order;
  for (size_t p = 0; p < part_ids.size(); ++p) {
    for (size_t r = 0; r < part_ids[p].size(); ++r) {
      order.emplace_back(part_ids[p][r], std::make_pair(p, r));
    }
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ids->clear();
  ids->reserve(order.size());
  *points = HostMatrix(order.size(), dims);
  for (size_t r = 0; r < order.size(); ++r) {
    const auto [p, row] = order[r].second;
    ids->push_back(order[r].first);
    std::memcpy(points->mutable_row(r), part_points[p].row(row),
                dims * sizeof(float));
  }
}

void KnnGraphRow(const Neighbor* row, int k, uint32_t self,
                 std::vector<Neighbor>* out) {
  out->clear();
  bool dropped_self = false;
  for (int j = 0; j < k + 1; ++j) {
    if (row[j].index == kInvalidNeighbor) break;
    if (!dropped_self && row[j].index == self) {
      dropped_self = true;
      continue;
    }
    if (static_cast<int>(out->size()) == k) break;
    out->push_back(row[j]);
  }
}

void AppendSelfJoinPairs(const RangeResult& matches, const uint32_t* ids,
                         std::vector<SelfJoinPair>* pairs) {
  for (size_t q = 0; q < matches.num_queries(); ++q) {
    for (const Neighbor* nb = matches.begin(q); nb != matches.end(q); ++nb) {
      if (nb->index > ids[q]) {
        pairs->push_back(SelfJoinPair{ids[q], nb->index, nb->distance});
      }
    }
  }
}

}  // namespace sweetknn::serve
