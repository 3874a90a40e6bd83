#include "core/range_search.h"

#include <algorithm>

#include "common/logging.h"
#include "core/device_points.h"
#include "core/host_image.h"

namespace sweetknn::core {
namespace {

/// Appends to `row` every position in [first, last) of the image within
/// the closed ball, as (base row, distance). `dists` holds
/// min(n, HostImage::kScoreChunk) floats.
void CollectWindow(const float* query, const HostImage& image, size_t first,
                   size_t last, float radius, simd::Dist dist_kind,
                   float* dists, std::vector<Neighbor>* row) {
  image.ScoreSpan(query, dist_kind, first, last, dists,
                  [&](size_t p, float d) {
                    if (d <= radius) row->push_back(Neighbor{image.row(p), d});
                  });
}

}  // namespace

RangeResult FullRangeScan(const HostMatrix& queries, const HostImage& image,
                          float radius, simd::Dist dist_kind,
                          RangeScanStats* stats) {
  RangeResult result;
  const size_t n = image.n();
  std::vector<float> dists(std::min(n, HostImage::kScoreChunk));
  std::vector<Neighbor> row;
  for (size_t q = 0; q < queries.rows(); ++q) {
    row.clear();
    CollectWindow(queries.row(q), image, 0, n, radius, dist_kind,
                  dists.data(), &row);
    // Collected in member order; canonical rows sort by (distance, row).
    std::sort(row.begin(), row.end(), NeighborLess);
    result.AppendRow(row);
    if (stats != nullptr) {
      stats->candidates += n;
      stats->total_pairs += n;
    }
  }
  return result;
}

RangeResult TiRangeScan(const HostMatrix& queries, const HostImage& image,
                        float radius, simd::Dist dist_kind,
                        RangeScanStats* stats) {
  const size_t n = image.n();
  const TargetClusteringHost& clustering = image.clustering();
  const int m = clustering.num_clusters;
  RangeResult result;
  std::vector<float> center_dists(static_cast<size_t>(m));
  std::vector<float> dists(std::min(n, HostImage::kScoreChunk));
  std::vector<Neighbor> row;
  for (size_t q = 0; q < queries.rows(); ++q) {
    row.clear();
    image.CenterDistances(queries.row(q), dist_kind, center_dists.data());
    for (int c = 0; c < m; ++c) {
      const uint32_t begin = clustering.member_offsets[c];
      const uint32_t end = clustering.member_offsets[c + 1];
      if (begin == end) continue;
      const float d_qc = center_dists[static_cast<size_t>(c)];
      const float slack =
          RangePruneSlack(radius, d_qc, clustering.max_dist[c]);
      // Level 1: the whole cluster lies outside the ball.
      if (d_qc - clustering.max_dist[c] > radius + slack) {
        if (stats != nullptr) {
          stats->clusters_pruned += 1;
          stats->members_pruned += end - begin;
        }
        continue;
      }
      // Level 2: members with d(t, c) within radius + slack of d_qc.
      const auto [first, last] = image.Window(c, d_qc, radius + slack);
      if (stats != nullptr) {
        stats->candidates += last - first;
        stats->members_pruned += (end - begin) - (last - first);
      }
      CollectWindow(queries.row(q), image, first, last, radius, dist_kind,
                    dists.data(), &row);
    }
    std::sort(row.begin(), row.end(), NeighborLess);
    result.AppendRow(row);
    if (stats != nullptr) stats->total_pairs += n;
  }
  return result;
}

RangeResult RangeScanDelta(const DeltaBuffer& delta, const HostMatrix& queries,
                           float radius, Metric metric) {
  SK_CHECK_EQ(queries.cols(), delta.dims);
  RangeResult result;
  const simd::PackedTargets packed =
      simd::PackedTargets::Pack(delta.points.data(), delta.size(), delta.dims);
  std::vector<float> dists(delta.size());
  std::vector<Neighbor> row;
  for (size_t q = 0; q < queries.rows(); ++q) {
    row.clear();
    if (delta.size() > 0) {
      simd::QueryDistances(queries.row(q), packed, SimdDistFor(metric),
                           dists.data());
      for (size_t i = 0; i < delta.size(); ++i) {
        if (dists[i] > radius) continue;
        if (delta.tombstones.count(delta.ids[i]) != 0) continue;
        row.push_back(Neighbor{static_cast<uint32_t>(i), dists[i]});
      }
      std::sort(row.begin(), row.end(), NeighborLess);
    }
    result.AppendRow(row);
  }
  return result;
}

RangeResult MergeRangeShardAnswers(const std::vector<RangeShardAnswer>& answers,
                                   size_t num_queries) {
  RangeResult merged;
  std::vector<Neighbor> row;
  for (size_t q = 0; q < num_queries; ++q) {
    row.clear();
    for (const RangeShardAnswer& a : answers) {
      SK_CHECK_EQ(a.result.num_queries(), num_queries);
      row.insert(row.end(), a.result.begin(q), a.result.end(q));
    }
    std::sort(row.begin(), row.end(), NeighborLess);
    merged.AppendRow(row);
  }
  return merged;
}

}  // namespace sweetknn::core
