#ifndef SWEETKNN_ANN_KNN_GRAPH_H_
#define SWEETKNN_ANN_KNN_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/knn_result.h"
#include "simd/simd_kernels.h"

namespace sweetknn::ann {

/// Build knobs of BuildKnnGraph.
struct GraphBuildParams {
  /// Out-degree of every node (edges kept per point). Clamped to
  /// max(1, min(degree, rows - 1)) at build time; the stored row stride
  /// stays the clamped degree, short rows pad with kInvalidNeighbor.
  uint32_t degree = 16;
  /// Host threads for the self-join; 0 = every hardware thread
  /// (common::HardwareThreads()). Never affects the result, only
  /// wall-clock.
  int workers = 0;
};

/// A directed kNN graph over a point set: `degree` edges per node toward
/// its nearest other points, as row ids of that set.
struct KnnGraph {
  uint32_t num_nodes = 0;
  uint32_t degree = 0;
  /// num_nodes * degree edges, row-major; each row ascending by
  /// (distance, id) with kInvalidNeighbor padding at the tail.
  std::vector<uint32_t> neighbors;
  /// The caller's entry seeds, sorted, deduplicated and in range.
  std::vector<uint32_t> entry_points;

  bool empty() const { return num_nodes == 0; }
  const uint32_t* row(uint32_t node) const {
    return neighbors.data() + static_cast<size_t>(node) * degree;
  }
};

/// One kNN-graph row of the point `self`, reduced from its own exact
/// top-(k+1) answer (`row`, k + 1 entries): the first entry naming
/// `self` is dropped — the extra slot absorbs the query point — and at
/// most k neighbors are kept. A point absent from its own top k+1
/// (duplicate-heavy sets) leaves the top k of the others intact, so the
/// row is the exact k nearest other points either way. BuildKnnGraph,
/// the serving KnnGraph job and SweetKnnIndex::KnnGraph build their rows
/// with it.
void KnnGraphRow(const Neighbor* row, int k, uint32_t self,
                 std::vector<Neighbor>* out);

/// The exact kNN graph of `points` (`rows` x `dims`, row-major) by
/// brute force: a simd::PackedKnn self-join at k = degree + 1 on
/// params.workers threads (every hardware thread when unset), each row
/// reduced with KnnGraphRow, so row i holds the degree nearest other
/// rows under (distance, id). `entry_points` is recorded after sorting,
/// deduplicating and dropping ids >= rows. `rows` may be 0 (an empty
/// graph).
KnnGraph BuildKnnGraph(const float* points, size_t rows, size_t dims,
                       simd::Dist dist, const GraphBuildParams& params,
                       std::vector<uint32_t> entry_points);

}  // namespace sweetknn::ann

#endif  // SWEETKNN_ANN_KNN_GRAPH_H_
