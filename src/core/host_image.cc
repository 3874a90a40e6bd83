#include "core/host_image.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/topk.h"

namespace sweetknn::core {
namespace {

/// Query rows per ParallelFor slice.
constexpr size_t kQueryGrain = 8;

/// A cluster awaiting its level-1 test: (bound, cluster id), ordered by
/// bound then id so the visit order is deterministic.
using ClusterKey = std::pair<float, int>;

}  // namespace

/// Per-worker buffers, reused across the worker's query rows.
struct HostImage::Scratch {
  std::vector<float> dists;
  std::vector<float> center_dists;
  std::vector<ClusterKey> pending;
};

HostImage::HostImage(const HostMatrix& rows, TargetClusteringHost clustering)
    : clustering_(std::move(clustering)) {
  SK_CHECK_EQ(clustering_.member_ids.size(), rows.rows());
  rows_ = simd::PackedTargets::PackGather(rows.data(), rows.cols(),
                                          clustering_.member_ids.data(),
                                          rows.rows());
  centers_ = simd::PackedTargets::Pack(clustering_.centers.data(),
                                       clustering_.centers.rows(),
                                       clustering_.centers.cols());
}

void HostImage::CenterDistances(const float* query, simd::Dist dist,
                                float* out) const {
  simd::QueryDistances(query, centers_, dist, out);
}

std::pair<size_t, size_t> HostImage::Window(int c, float d_qc,
                                            float bound) const {
  const float* md = clustering_.member_dists.data();
  const float* begin = md + clustering_.member_offsets[c];
  const float* end = md + clustering_.member_offsets[c + 1];
  // Descending order: skip members above d_qc + bound, stop at the
  // first one below d_qc - bound.
  const float* first =
      std::lower_bound(begin, end, d_qc + bound, std::greater<float>());
  const float* last =
      std::upper_bound(first, end, d_qc - bound, std::greater<float>());
  return {static_cast<size_t>(first - md), static_cast<size_t>(last - md)};
}

void HostImage::ScoreWindow(const float* query, simd::Dist dist,
                            size_t first, size_t last, const uint8_t* dead,
                            TopK* heap, Scratch* scratch) const {
  // Only distances <= theta can enter; PushIfCloser settles ties on the
  // row index. The mask is read only for those few rows.
  float theta = heap->max();
  ScoreSpan(query, dist, first, last, scratch->dists.data(),
            [&](size_t p, float d) {
              if (d <= theta && (dead == nullptr || dead[row(p)] == 0) &&
                  heap->PushIfCloser(Neighbor{row(p), d})) {
                theta = heap->max();
              }
            });
}

void HostImage::KnnScan(const float* query, simd::Dist dist,
                        const uint8_t* dead, TopK* heap, Scratch* scratch,
                        RangeScanStats* stats) const {
  stats->total_pairs += n();
  if (single_window()) {
    ScoreWindow(query, dist, 0, n(), dead, heap, scratch);
    stats->candidates += n();
    return;
  }
  const TargetClusteringHost& tc = clustering_;
  float* d_qc = scratch->center_dists.data();
  CenterDistances(query, dist, d_qc);
  // Level 1 keys. One slack serves every cluster: RangePruneSlack grows
  // with its arguments, so the per-query maxima bound each cluster's own.
  std::vector<ClusterKey>& pending = scratch->pending;
  pending.clear();
  float max_d_qc = 0.0f;
  float max_radius = 0.0f;
  for (int c = 0; c < tc.num_clusters; ++c) {
    if (tc.member_offsets[c] == tc.member_offsets[c + 1]) continue;
    pending.emplace_back(d_qc[c] - tc.max_dist[c], c);
    max_d_qc = std::max(max_d_qc, d_qc[c]);
    max_radius = std::max(max_radius, tc.max_dist[c]);
  }
  // A min-heap: the scan usually stops after a few clusters, so popping
  // in order beats sorting all m.
  std::make_heap(pending.begin(), pending.end(), std::greater<>());
  uint64_t offered = 0;
  while (!pending.empty()) {
    std::pop_heap(pending.begin(), pending.end(), std::greater<>());
    const auto [level1, c] = pending.back();
    const float theta = heap->max();
    const float bound =
        theta + RangePruneSlack(theta, max_d_qc, max_radius);
    if (level1 > bound) {
      // Every cluster still pending has a level-1 bound at least this
      // large: none can hold a row closer than theta.
      stats->clusters_pruned += pending.size();
      break;
    }
    pending.pop_back();
    const auto [first, last] = Window(c, d_qc[c], bound);
    ScoreWindow(query, dist, first, last, dead, heap, scratch);
    offered += last - first;
  }
  stats->candidates += offered;
  stats->members_pruned += n() - offered;
}

KnnResult HostImage::Knn(const HostMatrix& queries, int k, simd::Dist dist,
                         int workers, RangeScanStats* stats,
                         const uint8_t* dead) const {
  SK_CHECK_EQ(queries.cols(), dims());
  SK_CHECK(dist != simd::Dist::kSquaredEuclidean)
      << "the TI bounds need a metric";
  KnnResult result(queries.rows(), k);
  std::vector<RangeScanStats> slices(
      stats != nullptr ? common::NumChunks(queries.rows(), kQueryGrain) : 0);
  common::ParallelForChunks(
      workers, queries.rows(), kQueryGrain,
      [&](size_t slice, size_t begin, size_t end) {
        Scratch scratch;
        scratch.dists.resize(std::min(n(), kScoreChunk));
        scratch.center_dists.resize(centers_.n());
        RangeScanStats local;
        for (size_t q = begin; q < end; ++q) {
          TopK heap(k);
          KnnScan(queries.row(q), dist, dead, &heap, &scratch, &local);
          result.SetRow(q, heap.Sorted());
        }
        if (stats != nullptr) slices[slice] = local;
      });
  for (const RangeScanStats& s : slices) stats->Accumulate(s);
  return result;
}

}  // namespace sweetknn::core
