#include "core/sweet_knn.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ann/knn_graph.h"
#include "common/thread_pool.h"

namespace sweetknn {

namespace {

/// Rows per chunk of the offline jobs (SelfJoin / KnnGraph): small
/// enough to bound peak memory, large enough to amortize the scans.
constexpr size_t kJobChunkRows = 64;

/// Rows [begin, begin + kJobChunkRows) of `points`, clipped at the end:
/// one offline-job query chunk.
HostMatrix JobChunk(const HostMatrix& points, size_t begin) {
  const size_t rows = std::min(kJobChunkRows, points.rows() - begin);
  HostMatrix chunk(rows, points.cols());
  std::memcpy(chunk.mutable_data(), points.row(begin),
              rows * points.cols() * sizeof(float));
  return chunk;
}

}  // namespace

SweetKnnIndex::SweetKnnIndex(const HostMatrix& target,
                             const SweetKnn::Config& config)
    : SweetKnnIndex(config, static_cast<uint32_t>(target.rows())) {
  shard_->BuildCold(target);
}

SweetKnnIndex::SweetKnnIndex(const SweetKnn::Config& config, uint32_t next_id)
    : config_(config),
      shard_(std::make_unique<core::ShardHost>(config.device, config.options)),
      next_id_(next_id) {}

KnnResult SweetKnnIndex::Query(const HostMatrix& queries, int k,
                               const ann::SearchMode& /*mode*/,
                               core::KnnRunStats* stats) {
  return Query(queries, k, stats);
}

KnnResult SweetKnnIndex::Query(const HostMatrix& queries, int k,
                               core::KnnRunStats* stats) {
  SK_CHECK_EQ(queries.cols(), dims());
  // Both routes return bit-identical neighbor lists, so only wall-clock
  // and the stats differ: a host-routed batch reports empty KnnRunStats
  // — no simulated device ran.
  const int workers = config_.options.sim_threads > 0
                          ? config_.options.sim_threads
                          : common::SimThreadsFromEnv();
  core::KnnRunStats device_stats;
  core::ShardAnswer answer = shard_->SearchGroup(
      queries, k, config_.route, config_.options.metric, workers,
      &device_stats);
  if (stats != nullptr) *stats = std::move(device_stats);
  // One shard at offset 0: its answer is already the final top-k.
  return std::move(answer.result);
}

std::vector<Neighbor> SweetKnnIndex::Query(const std::vector<float>& point,
                                           int k) {
  SK_CHECK_EQ(point.size(), dims());
  HostMatrix one(1, dims());
  std::memcpy(one.mutable_row(0), point.data(), dims() * sizeof(float));
  const KnnResult result = Query(one, k);
  return std::vector<Neighbor>(result.row(0), result.row(0) + result.k());
}

RangeResult SweetKnnIndex::RadiusSearch(const HostMatrix& queries,
                                        float radius,
                                        core::RangeScanStats* stats) {
  SK_CHECK_EQ(queries.cols(), dims());
  core::RangeShardAnswer answer =
      shard_->RangeGroup(queries, radius, config_.options.metric);
  if (stats != nullptr) *stats = answer.stats;
  return std::move(answer.result);
}

std::vector<SelfJoinPair> SweetKnnIndex::SelfJoin(
    float radius, core::RangeScanStats* stats) {
  if (stats != nullptr) *stats = core::RangeScanStats{};
  std::vector<uint32_t> ids;
  HostMatrix points;
  ExportLive(&ids, &points);
  std::vector<SelfJoinPair> pairs;
  for (size_t begin = 0; begin < ids.size(); begin += kJobChunkRows) {
    core::RangeScanStats chunk_stats;
    const RangeResult matches =
        RadiusSearch(JobChunk(points, begin), radius, &chunk_stats);
    if (stats != nullptr) stats->Accumulate(chunk_stats);
    core::AppendSelfJoinPairs(matches, &ids[begin], &pairs);
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
    const KnnResult answer = Query(JobChunk(points, begin), k + 1);
    for (size_t q = 0; q < answer.num_queries(); ++q) {
      ann::KnnGraphRow(answer.row(q), k, out.ids[begin + q], &row);
      out.neighbors.SetRow(begin + q, row);
    }
  }
  return out;
}

void SweetKnnIndex::ExportLive(std::vector<uint32_t>* ids,
                               HostMatrix* points) const {
  shard_->ExportLive(ids, points);
}

uint32_t SweetKnnIndex::Insert(const std::vector<float>& point) {
  SK_CHECK_EQ(point.size(), dims());
  const uint32_t id = next_id_++;
  shard_->delta.Append(id, point.data());
  MaybeCompact();
  return id;
}

bool SweetKnnIndex::Remove(uint32_t id) {
  // Erasing a delta point shrinks the overlay; only a tombstone can
  // push it over the compaction threshold.
  const bool in_delta =
      shard_->delta.Find(id) != core::DeltaBuffer::kNotFound;
  if (!shard_->ApplyRemove(id)) return false;
  if (!in_delta) MaybeCompact();
  return true;
}

void SweetKnnIndex::MaybeCompact() {
  const double fraction = config_.compact_delta_fraction;
  if (fraction <= 0.0) return;
  const double overlay =
      static_cast<double>(delta_size() + tombstone_count());
  if (overlay > fraction * static_cast<double>(base_rows())) Compact();
}

void SweetKnnIndex::Compact() {
  std::unique_ptr<core::ShardHost> fresh = core::CompactNow(shard_.get());
  if (fresh == nullptr) return;
  shard_ = std::move(fresh);
  ++compactions_;
}

}  // namespace sweetknn
