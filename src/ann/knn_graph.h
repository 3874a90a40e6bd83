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

/// Build knobs of the NN-descent construction (docs/approx.md).
struct GraphBuildParams {
  /// Out-degree of every node (edges kept per point). Clamped to the
  /// point count minus one at build time; the stored row stride stays
  /// `degree`, short rows pad with kInvalidNeighbor.
  uint32_t degree = 16;
  /// NN-descent refinement rounds. The build usually converges earlier
  /// (see convergence_fraction) — this is the hard cap.
  uint32_t max_iters = 10;
  /// Stop once a round improves fewer than this fraction of all edges.
  double convergence_fraction = 0.002;
  /// Seed of the random initial neighborhoods. Per-node streams are
  /// SplitMix64(seed ^ node), so the build is bit-identical at any
  /// worker count.
  uint64_t seed = 0x5ee7a9c3u;
  /// Host threads for the init and refinement rounds; 0 = every
  /// hardware thread (common::HardwareThreads()). Never affects the
  /// result, only wall-clock. A build called inside a fork-join region
  /// (e.g. a shard fan-out) runs inline on one thread at any width.
  int workers = 0;
};

/// A directed kNN graph over a frozen base point set: `degree` edges per
/// node toward its (approximately) nearest neighbors, plus the search
/// entry seeds. Node ids are local base rows — the same index space the
/// exact kernels report — so graph candidates merge through the existing
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
  // Build provenance, persisted with the graph (.sksnap v3).
  uint32_t build_iters = 0;  ///< Refinement rounds the build actually ran.
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

/// Where one BuildKnnGraph call spent its time (host wall-clock) and how
/// much work each refinement round did. Observational only: collecting
/// it never changes the graph.
struct GraphBuildStats {
  struct Round {
    /// Distances scored: the node's deduplicated candidates, summed.
    uint64_t candidates = 0;
    /// Heap pushes accepted — the count the convergence rule reads.
    uint64_t accepted = 0;
    /// The local-join pass (collect the candidates, score them in place
    /// from the point base, heap updates).
    double seconds = 0.0;
  };
  double init_seconds = 0.0;     ///< Random initial neighborhoods.
  double reverse_seconds = 0.0;  ///< Reverse-list passes, all rounds.
  std::vector<Round> rounds;     ///< One entry per round run.
  double total_seconds = 0.0;    ///< The whole call.
};

/// Builds the kNN graph by synchronous NN-descent: random neighborhoods,
/// then rounds where every node offers itself the neighbors of its
/// (forward and reverse) neighbors, keeping the `degree` best under
/// (distance, id). Each round reads the previous round's adjacency
/// read-only and writes its own, parallelized over nodes with
/// ParallelForChunks — the result is bit-identical at any worker count.
///
/// `entry_points` seeds the search (invalid ids are dropped, duplicates
/// removed); when none survive, a deterministic strided sample is used.
/// `rows` may be 0 (an empty graph searches nothing). `stats`, when
/// non-null, receives the per-phase timings and per-round counters.
KnnGraph BuildKnnGraph(const float* points, size_t rows, size_t dims,
                       simd::Dist dist, const GraphBuildParams& params,
                       std::vector<uint32_t> entry_points,
                       GraphBuildStats* stats = nullptr);

/// Test-only: observer invoked by every BuildKnnGraph call with the
/// worker count it resolved (params.workers, or the hardware width when
/// unset). Thread-safe — builds may run concurrently on the host pool.
/// Pass nullptr to clear.
void SetGraphBuildObserverForTest(std::function<void(int)> observer);

}  // namespace sweetknn::ann

#endif  // SWEETKNN_ANN_KNN_GRAPH_H_
