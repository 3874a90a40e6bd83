#include "core/shard_host.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/device_points.h"

namespace sweetknn::core {

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
  SK_CHECK(!slice.empty());
  const TiOptions& options = engine.options();
  const int workers =
      options.sim_threads > 0 ? options.sim_threads : dev.execution_threads();
  base = slice;
  image = HostImage(base, BuildTargetClusteringOnHost(
                              base, options.metric,
                              ClusteringConfigFor(options), dev.spec(),
                              workers));
  set_base_rows(base.rows());
  delta.dims = base.cols();
  device_state_ = DeviceState::kCold;
}

void ShardHost::RestoreBase(const HostMatrix& target,
                            const TargetClusteringHost& clustering) {
  SK_CHECK(!target.empty());
  SK_CHECK_EQ(clustering.assignment.size(), target.rows());
  base = target;
  image = HostImage(base, clustering);
  device_state_ = DeviceState::kRestored;
}

void ShardHost::PrepareDevice() {
  switch (device_state_) {
    case DeviceState::kCold:
      engine.PrepareTarget(base);
      SK_CHECK(engine.ExportTargetClustering() == image.clustering())
          << "the simulated Step 1 and the host Step 1 disagree";
      break;
    case DeviceState::kRestored:
      engine.RestoreTarget(base, image.clustering());
      break;
    case DeviceState::kEmpty:
    case DeviceState::kPrepared:
      return;
  }
  device_state_ = DeviceState::kPrepared;
}

ShardAnswer ShardHost::SearchGroup(const HostMatrix& queries, int k,
                                   QueryRoute route, Metric metric,
                                   int workers, KnnRunStats* device_stats) {
  ShardAnswer answer;
  answer.offset = offset;
  answer.pristine = Pristine();
  const bool device = route == QueryRoute::kDevice;
  // A pristine shard's contribution is the same whether the rest of the
  // service is mutated or not (no tombstones; offset remap equals the
  // identity merge source), so the pristine/mutated decision is purely
  // local — no cross-shard coordination crosses the wire.
  const uint8_t* dead = dead_rows();
  const simd::Dist dist_kind = SimdDistFor(metric);
  KnnRunStats stats;
  RangeScanStats host_stats;
  KnnResult base_result;
  KnnResult delta_result;
  const SteadyClock::time_point start = SteadyClock::now();
  if (!device) {
    // Dead rows never enter the TI scan's heap: its k rows are live.
    base_result =
        image.Knn(queries, k, dist_kind, workers, &host_stats, dead);
  } else {
    // The simulated kernels scan every row, so the base is over-queried
    // by the tombstone count and the merge masks the dead.
    PrepareDevice();
    base_result = engine.RunQueries(
        queries, k + static_cast<int>(tombstone_count()), &stats);
  }
  const bool has_delta = delta.size() > 0;
  if (!answer.pristine && has_delta) {
    // The delta scan contributes no simulated device time — it models
    // host-side work the GPU index never sees.
    delta_result = ScanDelta(delta, queries, k, metric);
  }
  answer.route_seconds = SecondsBetween(start, SteadyClock::now());

  if (answer.pristine) {
    answer.result = std::move(base_result);
  } else {
    // Shard-local exact merge: the base (local indices -> stable ids;
    // a device-routed one over-queried, its dead rows masked here)
    // plus the delta side scan. The rows are this shard's exact live
    // top-k under (distance, stable id).
    std::vector<MergeSource> sources;
    MergeSource base;
    base.result = &base_result;
    base.id_map = id_map.empty() ? nullptr : id_map.data();
    base.offset = offset;
    if (device) base.dead_rows = dead;
    sources.push_back(base);
    if (has_delta) {
      MergeSource side;
      side.result = &delta_result;
      side.id_map = delta.ids.data();
      sources.push_back(side);
    }
    answer.result = MergeMutableResults(sources, k);
  }

  if (device) {
    answer.sim_time_s = stats.sim_time_s;
    answer.distance_calcs = stats.distance_calcs;
    answer.total_pairs = stats.total_pairs;
    answer.filter_used = stats.filter_used;
    answer.placement_used = stats.placement_used;
    answer.threads_per_query = stats.threads_per_query;
    AccumulateStageTimes(stats.profile, &answer.level1_s, &answer.level2_s,
                         &answer.preprocess_s);
    answer.transfer_s = stats.profile.transfer_time_s;
  } else {
    answer.distance_calcs = host_stats.candidates;
    answer.total_pairs = host_stats.total_pairs;
  }
  if (device_stats != nullptr) *device_stats = std::move(stats);
  return answer;
}

RangeShardAnswer ShardHost::RangeGroup(const HostMatrix& queries,
                                       float radius, Metric metric) {
  RangeShardAnswer answer;
  const SteadyClock::time_point start = SteadyClock::now();
  RangeResult base;
  if (base_rows() > 0) {
    base = TiRangeScan(queries, image, radius, SimdDistFor(metric),
                       &answer.stats);
  } else {
    for (size_t q = 0; q < queries.rows(); ++q) {
      base.AppendRow(nullptr, 0);
    }
  }
  const bool has_delta = delta.size() > 0;
  RangeResult delta_matches;
  if (has_delta) {
    delta_matches = RangeScanDelta(delta, queries, radius, metric);
  }
  // Stable-id substitution happens here unconditionally — range answers
  // have no pristine fast path (a pristine shard's BaseId is just the
  // offset shift), so the merge side never sees local indices.
  const uint8_t* dead = dead_rows();
  std::vector<Neighbor> row;
  for (size_t q = 0; q < queries.rows(); ++q) {
    row.clear();
    for (const Neighbor* nb = base.begin(q); nb != base.end(q); ++nb) {
      if (dead != nullptr && dead[nb->index] != 0) continue;
      row.push_back(Neighbor{BaseId(nb->index), nb->distance});
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
  const size_t dims = base.cols() > 0 ? base.cols() : delta.dims;
  std::vector<std::pair<uint32_t, const float*>> live;
  live.reserve(base.rows() + delta.size());
  const uint8_t* dead = dead_rows();
  for (size_t i = 0; i < base.rows(); ++i) {
    if (dead == nullptr || dead[i] == 0) {
      live.emplace_back(BaseId(i), base.row(i));
    }
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

size_t ShardHost::BaseRow(uint32_t id) const {
  if (id_map.empty()) {
    return id >= offset && id - offset < base_rows() ? id - offset
                                                     : DeltaBuffer::kNotFound;
  }
  const auto it = std::lower_bound(id_map.begin(), id_map.end(), id);
  if (it == id_map.end() || *it != id) return DeltaBuffer::kNotFound;
  return static_cast<size_t>(it - id_map.begin());
}

bool ShardHost::Owns(uint32_t id) const {
  return delta.Find(id) != DeltaBuffer::kNotFound ||
         BaseRow(id) != DeltaBuffer::kNotFound;
}

bool ShardHost::MarkDead(size_t row) {
  if (dead_rows_[row] != 0) return false;
  dead_rows_[row] = 1;
  ++dead_base_rows_;
  return true;
}

bool ShardHost::ApplyRemove(uint32_t id) {
  const size_t row = BaseRow(id);
  if (row != DeltaBuffer::kNotFound) return MarkDead(row);
  const size_t pos = delta.Find(id);
  if (pos == DeltaBuffer::kNotFound) return false;
  if (compact_watermark != kNoCompaction && pos < compact_watermark) {
    // A delta entry an in-flight compaction has already consumed (the
    // rebuild contains it): mask it. Erasing a consumed entry would
    // resurrect the point at install.
    return delta.tombstones.insert(id).second;
  }
  delta.EraseAt(pos);
  return true;
}

void CaptureCompaction(ShardHost* shard, CompactionPlan* plan) {
  SK_CHECK_EQ(shard->compact_watermark, ShardHost::kNoCompaction);
  plan->epoch = shard->epoch;
  plan->watermark = shard->delta.size();
  // Delta entries are tombstoned only while a compaction is in flight.
  SK_CHECK(shard->delta.tombstones.empty());
  const uint8_t* dead = shard->dead_rows();
  if (dead != nullptr) plan->dead_rows.assign(dead, dead + shard->base_rows());
  shard->compact_watermark = plan->watermark;

  // The new base: base survivors, then consumed live delta entries —
  // ascending stable-id order, because every delta id postdates (and
  // exceeds) every base id of its shard.
  const HostMatrix& base = shard->base;
  const size_t dims = base.cols();
  std::vector<size_t> base_survivors;
  for (size_t i = 0; i < base.rows(); ++i) {
    if (dead == nullptr || dead[i] == 0) base_survivors.push_back(i);
  }
  plan->points = HostMatrix(base_survivors.size() + plan->watermark, dims);
  plan->ids.reserve(plan->points.rows());
  size_t out = 0;
  for (size_t i : base_survivors) {
    std::memcpy(plan->points.mutable_row(out++), base.row(i),
                dims * sizeof(float));
    plan->ids.push_back(shard->BaseId(i));
  }
  for (size_t j = 0; j < plan->watermark; ++j) {
    std::memcpy(plan->points.mutable_row(out++), shard->delta.point(j),
                dims * sizeof(float));
    plan->ids.push_back(shard->delta.ids[j]);
  }
}

std::unique_ptr<ShardHost> RebuildCompacted(const CompactionPlan& plan,
                                            const gpusim::DeviceSpec& device,
                                            const TiOptions& options) {
  auto fresh = std::make_unique<ShardHost>(device, options);
  fresh->BuildCold(plan.points);
  // Offset 0 either way: ids that are literally 0..n-1 are back in
  // pristine form, and an explicit id map leaves the offset unused.
  const bool identity =
      !plan.ids.empty() && plan.ids.front() == 0 &&
      plan.ids.back() == static_cast<uint32_t>(plan.ids.size()) - 1;
  if (!identity) fresh->id_map = plan.ids;
  return fresh;
}

void CarryOverlayForward(const ShardHost& old_shard,
                         const CompactionPlan& plan, ShardHost* fresh) {
  for (size_t j = plan.watermark; j < old_shard.delta.size(); ++j) {
    fresh->delta.Append(old_shard.delta.ids[j], old_shard.delta.point(j));
  }
  // Every captured row removed since the capture is a row of the new
  // base: old base rows dead now but not then, and the tombstoned delta
  // entries (the capture saw none).
  const uint8_t* dead = old_shard.dead_rows();
  for (size_t i = 0; dead != nullptr && i < old_shard.base_rows(); ++i) {
    if (dead[i] != 0 && (plan.dead_rows.empty() || plan.dead_rows[i] == 0)) {
      fresh->ApplyRemove(old_shard.BaseId(i));
    }
  }
  for (const uint32_t id : old_shard.delta.tombstones) fresh->ApplyRemove(id);
}

std::unique_ptr<ShardHost> CompactNow(ShardHost* shard) {
  if (shard->OverlayEmpty() || shard->live_rows() == 0) return nullptr;
  CompactionPlan plan;
  CaptureCompaction(shard, &plan);
  std::unique_ptr<ShardHost> fresh =
      RebuildCompacted(plan, shard->dev.spec(), shard->engine.options());
  CarryOverlayForward(*shard, plan, fresh.get());
  return fresh;
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

}  // namespace sweetknn::core
