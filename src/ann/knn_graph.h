#ifndef SWEETKNN_ANN_KNN_GRAPH_H_
#define SWEETKNN_ANN_KNN_GRAPH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/knn_result.h"
#include "simd/simd_kernels.h"

namespace sweetknn::ann {

/// Build knobs of the kNN graph (docs/approx.md).
struct GraphBuildParams {
  /// Out-degree of every node (edges kept per point). Clamped to
  /// max(1, min(degree, rows - 1)) at build time; the stored row stride
  /// stays the clamped degree, short rows pad with kInvalidNeighbor.
  uint32_t degree = 16;
  /// Host threads for the self-join; 0 = every hardware thread
  /// (common::HardwareThreads()). Never affects the result, only
  /// wall-clock. A build called inside a fork-join region (e.g. a shard
  /// fan-out) runs inline on one thread at any width.
  int workers = 0;
};

/// A directed kNN graph over a frozen base point set: `degree` edges per
/// node toward its nearest other points, plus the search entry seeds.
/// Node ids are local base rows — the same index space the exact
/// kernels report — so graph candidates merge through the existing
/// MergeMutableResults machinery unchanged.
struct KnnGraph {
  uint32_t num_nodes = 0;
  uint32_t degree = 0;
  /// num_nodes * degree edges, row-major; each row ascending by
  /// (distance, id) with kInvalidNeighbor padding at the tail.
  std::vector<uint32_t> neighbors;
  /// Search seeds: one per Step-1 landmark cluster (the member closest
  /// to each center), so best-first descent starts inside every region
  /// of the space.
  std::vector<uint32_t> entry_points;
  // Build provenance, persisted with the graph (.sksnap v3). The
  // self-join build writes 0 to both; files from the earlier NN-descent
  // build carry its round count and random seed, and adopt unchanged.
  uint32_t build_iters = 0;
  uint64_t build_seed = 0;

  bool empty() const { return num_nodes == 0; }
  const uint32_t* row(uint32_t node) const {
    return neighbors.data() + static_cast<size_t>(node) * degree;
  }
  /// hist[d] = number of nodes with exactly d live (non-padding) edges;
  /// size degree + 1. Empty for an empty graph.
  std::vector<size_t> DegreeHistogram() const;
};

/// In-edges of a KnnGraph in CSR form: node v's predecessors — every u
/// whose kNN row contains v — live in edges[offsets[v] .. offsets[v+1]),
/// ascending by u. A directed kNN graph starves fringe points of
/// in-edges (hubs soak them up), which makes those points unreachable by
/// forward-only best-first search at any budget; expanding the union of
/// out- and in-edges restores reachability. Derived, deterministic, and
/// cheap to rebuild, so it is NOT persisted — snapshots carry only the
/// kNN rows and adopters recompute this.
struct ReverseAdjacency {
  std::vector<uint32_t> offsets;  ///< num_nodes + 1 (empty when no graph).
  std::vector<uint32_t> edges;    ///< One entry per live graph edge.

  bool empty() const { return offsets.size() <= 1; }
  const uint32_t* row(uint32_t node, uint32_t* count) const {
    *count = offsets[node + 1] - offsets[node];
    return edges.data() + offsets[node];
  }
};

/// Builds the reverse adjacency by counting in-degrees and bucket-filling
/// in node order (so each bucket is already ascending by source id).
ReverseAdjacency BuildReverseAdjacency(const KnnGraph& graph);

/// The canonical scalar distance: single float accumulator, strictly
/// ascending dimensions — exactly core::AccessorDistance (and exactly
/// what every simd tier computes), so graph-candidate distances are
/// bit-comparable with the exact paths' through the shared merges.
inline float PointDistance(const float* a, const float* b, size_t dims,
                           simd::Dist dist) {
  float acc = 0.0f;
  if (dist == simd::Dist::kManhattan) {
    for (size_t j = 0; j < dims; ++j) acc += std::fabs(a[j] - b[j]);
    return acc;
  }
  for (size_t j = 0; j < dims; ++j) {
    const float diff = a[j] - b[j];
    acc += diff * diff;
  }
  return dist == simd::Dist::kEuclidean ? std::sqrt(acc) : acc;
}

/// One kNN-graph row of the point `self`, reduced from its own exact
/// top-(k+1) answer (`row`, k + 1 entries): the first entry naming
/// `self` is dropped — the extra slot absorbs the query point — and at
/// most k neighbors are kept. A point absent from its own top k+1
/// (duplicate-heavy sets) leaves the top k of the others intact, so the
/// row is the exact k nearest other points either way. The graph build
/// below, the serving KnnGraph job and SweetKnnIndex::KnnGraph build
/// their rows with it.
void KnnGraphRow(const Neighbor* row, int k, uint32_t self,
                 std::vector<Neighbor>* out);

/// An exact self-join of the base being built: the (k, workers) call
/// returns the k nearest base rows of every base row, in row order,
/// ascending by (distance, id), computed on up to `workers` threads.
using SelfJoin = std::function<KnnResult(int k, int workers)>;

/// Builds the exact kNN graph of a `rows`-point base from its self-join.
/// Clamps the degree (GraphBuildParams::degree), resolves the width
/// (params.workers, else every hardware thread), runs `join` at
/// k = degree + 1 and reduces every row with KnnGraphRow, so row i holds
/// the degree nearest other rows under (distance, id). `entry_points`
/// seeds the search: sorted, deduplicated, ids >= rows dropped, and a
/// deterministic strided sample when none survive. `rows` may be 0 (an
/// empty graph searches nothing; `join` is not called).
KnnGraph KnnGraphFromSelfJoin(size_t rows, const GraphBuildParams& params,
                              std::vector<uint32_t> entry_points,
                              const SelfJoin& join);

/// The clustering-free reference build: KnnGraphFromSelfJoin over a
/// brute-force simd::PackedKnn self-join of `points` (`rows` x `dims`,
/// row-major). Production bases build through their TI host scan
/// instead (core::ShardHost::BuildGraph); both give the same bytes.
KnnGraph BuildKnnGraph(const float* points, size_t rows, size_t dims,
                       simd::Dist dist, const GraphBuildParams& params,
                       std::vector<uint32_t> entry_points);

/// Test-only: observer invoked by every graph build with the worker
/// count it resolved (params.workers, or the hardware width when unset).
/// Thread-safe — builds may run concurrently on the host pool. Pass
/// nullptr to clear.
void SetGraphBuildObserverForTest(std::function<void(int)> observer);

}  // namespace sweetknn::ann

#endif  // SWEETKNN_ANN_KNN_GRAPH_H_
