#ifndef SWEETKNN_ANN_ANN_INDEX_H_
#define SWEETKNN_ANN_ANN_INDEX_H_

#include <cstddef>
#include <utility>

#include "ann/graph_search.h"
#include "ann/knn_graph.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "simd/simd_kernels.h"

namespace sweetknn::ann {

/// The approximate tier over one frozen base point set: the points plus
/// their kNN graph, answering batches of queries by best-first graph
/// search. Covers base rows only — mutable-overlay deltas are scanned
/// exactly by the caller (ScanDelta) and merged downstream, and the
/// owner rebuilds this index whenever the base changes (compaction
/// install, cold build, snapshot restore): it builds the graph
/// (core::ShardHost::BuildGraph) and adopts it here.
class AnnIndex {
 public:
  AnnIndex() = default;

  /// Wraps a built graph (a fresh build or a snapshot's). The graph
  /// must cover exactly `points.rows()` nodes.
  static AnnIndex Adopt(const HostMatrix& points, simd::Dist dist,
                        KnnGraph graph);

  bool empty() const { return graph_.empty(); }
  size_t rows() const { return graph_.num_nodes; }
  const KnnGraph& graph() const { return graph_; }
  simd::Dist dist() const { return dist_; }

  /// Answers `queries` with the k nearest graph candidates per query,
  /// each query searched with candidate budget `ef` (clamped to >= k).
  /// Parallel over query rows (workers <= 0 = SimThreadsFromEnv());
  /// per-chunk stats are summed in chunk order, so both the result and
  /// the counters are bit-identical at any worker count. Short answers
  /// pad with {kInvalidNeighbor, inf} exactly like the exact kernels.
  KnnResult Search(const HostMatrix& queries, int k, int ef, int workers,
                   AnnSearchStats* stats) const;

 private:
  AnnIndex(HostMatrix points, simd::Dist dist, KnnGraph graph)
      : points_(std::move(points)),
        dist_(dist),
        graph_(std::move(graph)),
        reverse_(BuildReverseAdjacency(graph_)) {}

  HostMatrix points_;
  simd::Dist dist_ = simd::Dist::kEuclidean;
  KnnGraph graph_;
  /// Derived in-edge CSR (never persisted): search expands the union of
  /// out- and in-edges so fringe points with no in-links in the kNN rows
  /// stay reachable. Rebuilt here on every Adopt.
  ReverseAdjacency reverse_;
};

}  // namespace sweetknn::ann

#endif  // SWEETKNN_ANN_ANN_INDEX_H_
