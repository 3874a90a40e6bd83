#ifndef SWEETKNN_CORE_HOST_IMAGE_H_
#define SWEETKNN_CORE_HOST_IMAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/knn_result.h"
#include "common/matrix.h"
#include "core/clustering.h"
#include "core/range_search.h"
#include "simd/simd_kernels.h"

namespace sweetknn::core {

/// The host route's copy of one prepared base: its rows packed for the
/// SIMD kernels in *member order* — cluster by cluster, each cluster in
/// the Step-1 clustering's order of descending distance to its landmark
/// — plus the packed landmark centers and the clustering image itself.
/// Built once per base (cold build, warm restore, compaction) and then
/// read-only, so concurrent scans need no locking.
///
/// Member order turns every triangle-inequality window of the paper's
/// level-2 filter into one contiguous position range, which the tile
/// kernels score in a single call. A position p holds base row
/// row(p) = clustering().member_ids[p]; every scan reports base rows,
/// never positions.
class HostImage {
 public:
  /// Positions scored per kernel call by ScoreSpan: 4096 distances
  /// (16 KiB) stay L1-resident between the kernel and the caller's
  /// loop. Tile-aligned, so a span split into chunks stays aligned.
  static constexpr size_t kScoreChunk = 4096;
  static_assert(kScoreChunk % simd::kTileLanes == 0);

  HostImage() = default;
  /// Packs `rows` (the base, row-major) in the member order of
  /// `clustering`, the Step-1 clustering of exactly those rows.
  HostImage(const HostMatrix& rows, TargetClusteringHost clustering);

  size_t n() const { return rows_.n(); }
  size_t dims() const { return rows_.dims(); }
  const TargetClusteringHost& clustering() const { return clustering_; }
  /// The base row at member-order position `position`.
  uint32_t row(size_t position) const {
    return clustering_.member_ids[position];
  }

  /// The small-shard rule: when the clustering cannot fill one tile per
  /// cluster (m * kTileLanes > n), per-cluster windows cost more kernel
  /// calls than they save, so every scan skips the landmark pass and
  /// scores all n rows as one window. Read off the clustering; not an
  /// option.
  bool single_window() const {
    return static_cast<size_t>(clustering_.num_clusters) * simd::kTileLanes >
           n();
  }

  /// d(query, center_c) for every landmark c, through the same tile
  /// kernels as the rows (the bits only feed pruning bounds, which the
  /// slack covers).
  void CenterDistances(const float* query, simd::Dist dist, float* out) const;

  /// Positions [first, last) of cluster c's members t whose level-2
  /// lower bound |d_qc - d(t, c)| is at most `bound`. Members are sorted
  /// descending by d(t, c), so both edges are binary searches.
  std::pair<size_t, size_t> Window(int c, float d_qc, float bound) const;

  /// Calls fn(position, distance) for every position in [first, last)
  /// in ascending order, scoring the tile-aligned span that covers them
  /// with QueryDistances, kScoreChunk positions per call. `buffer` holds
  /// min(n(), kScoreChunk) floats.
  template <typename Fn>
  void ScoreSpan(const float* query, simd::Dist dist, size_t first,
                 size_t last, float* buffer, Fn&& fn) const {
    for (size_t begin = first - first % simd::kTileLanes; begin < last;
         begin += kScoreChunk) {
      const size_t end = std::min(last, begin + kScoreChunk);
      simd::QueryDistances(query, rows_, begin, end, dist, buffer);
      for (size_t p = std::max(begin, first); p < end; ++p) {
        fn(p, buffer[p - begin]);
      }
    }
  }

  /// Exact k nearest base rows of every query row — byte-identical to
  /// simd::PackedKnn over the row-order base — through the paper's two
  /// TI filters (PAPER.md §III). Per query: compute the m landmark
  /// distances; visit clusters in ascending level-1 bound
  /// d(q, c) - max_dist(c); stop once that bound exceeds theta + slack
  /// (theta = the current kth distance, slack = RangePruneSlack); score
  /// the cluster's level-2 window |d(q, c) - d(t, c)| <= theta + slack
  /// with one tile-aligned QueryDistances call; offer each window row to
  /// TopK. TopK keeps the k smallest under the total order NeighborLess
  /// whatever order it sees rows in, and the slack only ever admits
  /// extra rows, so the answer never depends on the pruning. Under the
  /// small-shard rule the whole base is one window. Parallel over query
  /// rows on up to `workers` threads (answers and counters are
  /// independent of the count). `dist` must be a metric (kEuclidean or
  /// kManhattan): squared distances break the triangle inequality.
  /// `stats` (optional) accumulates candidates = window rows scored,
  /// plus the level-1/level-2 pruning counters.
  ///
  /// `dead` (optional, n() bytes indexed by base row) masks rows out of
  /// the answer: a window row with dead[row] != 0 is scored but never
  /// offered to TopK, so theta is the kth *live* distance and both
  /// filters prune against it. The answer is the k smallest live rows,
  /// padded with kInvalidNeighbor when fewer than k are live.
  KnnResult Knn(const HostMatrix& queries, int k, simd::Dist dist,
                int workers, RangeScanStats* stats = nullptr,
                const uint8_t* dead = nullptr) const;

 private:
  struct Scratch;
  /// Offers the live rows among window positions [first, last) to
  /// `heap`.
  void ScoreWindow(const float* query, simd::Dist dist, size_t first,
                   size_t last, const uint8_t* dead, TopK* heap,
                   Scratch* scratch) const;
  /// One query's kNN scan into `heap`, counted into `stats`.
  void KnnScan(const float* query, simd::Dist dist, const uint8_t* dead,
               TopK* heap, Scratch* scratch, RangeScanStats* stats) const;

  simd::PackedTargets rows_;     ///< n rows, member order
  simd::PackedTargets centers_;  ///< m landmark centers
  TargetClusteringHost clustering_;
};

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_HOST_IMAGE_H_
