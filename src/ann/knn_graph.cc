#include "ann/knn_graph.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/matrix.h"
#include "common/thread_pool.h"

namespace sweetknn::ann {

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

KnnGraph BuildKnnGraph(const float* points, size_t rows, size_t dims,
                       simd::Dist dist, const GraphBuildParams& params,
                       std::vector<uint32_t> entry_points) {
  KnnGraph graph;
  if (rows == 0) return graph;
  const uint32_t n = static_cast<uint32_t>(rows);
  const uint32_t degree = std::max<uint32_t>(
      1, std::min<uint64_t>(params.degree, std::max<size_t>(rows - 1, 1)));
  const int workers =
      params.workers > 0 ? params.workers : common::HardwareThreads();

  // Row i of the join at k = degree + 1 holds i itself, unless
  // degree + 1 duplicates of it with smaller ids come first; KnnGraphRow
  // keeps the degree nearest others either way. Only the single-point
  // graph leaves a row short.
  HostMatrix base(rows, dims);
  std::copy(points, points + rows * dims, base.mutable_data());
  const KnnResult joined =
      simd::PackedKnn(base, simd::PackedTargets::Pack(points, rows, dims),
                      static_cast<int>(degree) + 1, dist, workers);
  SK_CHECK_EQ(joined.num_queries(), rows);
  graph.num_nodes = n;
  graph.degree = degree;
  graph.neighbors.assign(rows * degree, kInvalidNeighbor);
  std::vector<Neighbor> row;
  for (uint32_t i = 0; i < n; ++i) {
    KnnGraphRow(joined.row(i), static_cast<int>(degree), i, &row);
    for (size_t j = 0; j < row.size(); ++j) {
      graph.neighbors[static_cast<size_t>(i) * degree + j] = row[j].index;
    }
  }

  std::sort(entry_points.begin(), entry_points.end());
  entry_points.erase(std::unique(entry_points.begin(), entry_points.end()),
                     entry_points.end());
  while (!entry_points.empty() && entry_points.back() >= n) {
    entry_points.pop_back();
  }
  graph.entry_points = std::move(entry_points);
  return graph;
}

}  // namespace sweetknn::ann
