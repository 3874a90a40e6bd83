#include "ann/knn_graph.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/matrix.h"
#include "common/thread_pool.h"

namespace sweetknn::ann {

namespace {

std::mutex& ObserverMutex() {
  static std::mutex mutex;
  return mutex;
}

std::function<void(int)>& ObserverSlot() {
  static std::function<void(int)> observer;
  return observer;
}

void NotifyObserver(int workers) {
  std::lock_guard<std::mutex> lock(ObserverMutex());
  if (ObserverSlot()) ObserverSlot()(workers);
}

}  // namespace

void SetGraphBuildObserverForTest(std::function<void(int)> observer) {
  std::lock_guard<std::mutex> lock(ObserverMutex());
  ObserverSlot() = std::move(observer);
}

std::vector<size_t> KnnGraph::DegreeHistogram() const {
  if (empty()) return {};
  std::vector<size_t> hist(static_cast<size_t>(degree) + 1, 0);
  for (uint32_t node = 0; node < num_nodes; ++node) {
    const uint32_t* edges = row(node);
    uint32_t live = 0;
    while (live < degree && edges[live] != kInvalidNeighbor) ++live;
    ++hist[live];
  }
  return hist;
}

ReverseAdjacency BuildReverseAdjacency(const KnnGraph& graph) {
  ReverseAdjacency reverse;
  if (graph.empty()) return reverse;
  reverse.offsets.assign(static_cast<size_t>(graph.num_nodes) + 1, 0);
  for (uint32_t node = 0; node < graph.num_nodes; ++node) {
    const uint32_t* edges = graph.row(node);
    for (uint32_t e = 0; e < graph.degree; ++e) {
      if (edges[e] == kInvalidNeighbor) break;
      ++reverse.offsets[edges[e] + 1];
    }
  }
  for (size_t v = 1; v < reverse.offsets.size(); ++v) {
    reverse.offsets[v] += reverse.offsets[v - 1];
  }
  reverse.edges.resize(reverse.offsets.back());
  std::vector<uint32_t> fill(reverse.offsets.begin(),
                             reverse.offsets.end() - 1);
  for (uint32_t node = 0; node < graph.num_nodes; ++node) {
    const uint32_t* edges = graph.row(node);
    for (uint32_t e = 0; e < graph.degree; ++e) {
      if (edges[e] == kInvalidNeighbor) break;
      reverse.edges[fill[edges[e]]++] = node;
    }
  }
  return reverse;
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

KnnGraph KnnGraphFromSelfJoin(size_t rows, const GraphBuildParams& params,
                              std::vector<uint32_t> entry_points,
                              const SelfJoin& join) {
  KnnGraph graph;
  if (rows == 0) return graph;
  const uint32_t n = static_cast<uint32_t>(rows);
  const uint32_t degree = std::max<uint32_t>(
      1, std::min<uint64_t>(params.degree, std::max<size_t>(rows - 1, 1)));
  const int workers =
      params.workers > 0 ? params.workers : common::HardwareThreads();
  NotifyObserver(workers);

  // Row i of the join at k = degree + 1 holds i itself, unless
  // degree + 1 duplicates of it with smaller ids come first; KnnGraphRow
  // keeps the degree nearest others either way. Only the single-point
  // graph leaves a row short.
  const KnnResult joined = join(static_cast<int>(degree) + 1, workers);
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

  // Entry seeds: the caller's landmark picks, cleaned up; a strided
  // deterministic sample when none survive.
  std::sort(entry_points.begin(), entry_points.end());
  entry_points.erase(std::unique(entry_points.begin(), entry_points.end()),
                     entry_points.end());
  while (!entry_points.empty() && entry_points.back() >= n) {
    entry_points.pop_back();
  }
  if (entry_points.empty()) {
    const uint32_t count = std::min<uint32_t>(8, n);
    for (uint32_t j = 0; j < count; ++j) {
      entry_points.push_back(j * n / count);
    }
    entry_points.erase(
        std::unique(entry_points.begin(), entry_points.end()),
        entry_points.end());
  }
  graph.entry_points = std::move(entry_points);
  return graph;
}

KnnGraph BuildKnnGraph(const float* points, size_t rows, size_t dims,
                       simd::Dist dist, const GraphBuildParams& params,
                       std::vector<uint32_t> entry_points) {
  return KnnGraphFromSelfJoin(
      rows, params, std::move(entry_points), [&](int k, int workers) {
        HostMatrix base(rows, dims);
        std::copy(points, points + rows * dims, base.mutable_data());
        return simd::PackedKnn(
            base, simd::PackedTargets::Pack(points, rows, dims), k, dist,
            workers);
      });
}

}  // namespace sweetknn::ann
