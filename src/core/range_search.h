#ifndef SWEETKNN_CORE_RANGE_SEARCH_H_
#define SWEETKNN_CORE_RANGE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/range_result.h"
#include "core/delta_overlay.h"
#include "core/options.h"
#include "simd/simd_kernels.h"

namespace sweetknn::core {

class HostImage;

/// Work counters of one host scan over a HostImage: a range scan
/// (docs/modalities.md) or the kNN scan (HostImage::Knn). The TI routes
/// report how much of the base the landmark bounds pruned away; the
/// full range scan evaluates every pair.
struct RangeScanStats {
  uint64_t candidates = 0;      ///< Pairs whose distance was evaluated.
  uint64_t total_pairs = 0;     ///< |Q| * base rows.
  uint64_t clusters_pruned = 0; ///< Level-1: whole clusters skipped.
  /// Rows never evaluated: members of level-1-pruned clusters plus
  /// members outside a surviving cluster's level-2 annulus.
  uint64_t members_pruned = 0;

  void Accumulate(const RangeScanStats& other) {
    candidates += other.candidates;
    total_pairs += other.total_pairs;
    clusters_pruned += other.clusters_pruned;
    members_pruned += other.members_pruned;
  }
};

/// All base rows within the closed ball distance(q, t) <= radius, for
/// every query row, by exhaustive scan over the image's packed rows:
/// chunked simd::QueryDistances (the canonical accumulation order) plus
/// the membership test. Matches are collected by position, mapped to
/// base rows, and sorted ascending under NeighborLess. No serving path
/// runs it: it is the exhaustive reference that tests and
/// bench/range_query measure TiRangeScan against.
RangeResult FullRangeScan(const HostMatrix& queries, const HostImage& image,
                          float radius, simd::Dist dist_kind,
                          RangeScanStats* stats = nullptr);

/// The same closed-ball membership, answered through the Step-1 landmark
/// clustering's triangle-inequality bounds (PAPER.md §III, repurposed
/// for range predicates; docs/modalities.md has the argument):
///
///  - level 1: cluster c is skipped when d(q, center_c) - max_dist_c
///    exceeds radius (+ a conservative float slack) — no member can be
///    within the ball;
///  - level 2: member t of a surviving cluster is skipped when
///    |d(q, center_c) - d(t, center_c)| exceeds radius (+ slack). The
///    image keeps each cluster's members contiguous and sorted
///    descending by distance-to-center, so the surviving members are one
///    window found by binary search (HostImage::Window).
///
/// Each window's exact distances come from one tile-aligned call of the
/// same kernels FullRangeScan runs, and the exact closed-ball test
/// decides membership — the slack only ever admits extra candidates, so
/// the result is bit-identical to FullRangeScan whatever the pruning
/// did.
RangeResult TiRangeScan(const HostMatrix& queries, const HostImage& image,
                        float radius, simd::Dist dist_kind,
                        RangeScanStats* stats = nullptr);

/// All non-tombstoned delta points within the closed ball, per query
/// row. Neighbor indices are positions into `delta.ids` (the caller maps
/// them to stable ids); position order equals id order, so tie-breaking
/// on position is tie-breaking on stable id. Same canonical distance
/// pipeline as ScanDelta.
RangeResult RangeScanDelta(const DeltaBuffer& delta, const HostMatrix& queries,
                           float radius, Metric metric);

/// One shard's complete contribution to a radius group, the range
/// counterpart of ShardAnswer. Unlike kNN answers there is no pristine
/// fast path: rows always carry stable ids (tombstones already masked,
/// id maps already applied, delta matches already merged in), so the
/// cross-shard merge never needs the shard's overlay. `result` rows are
/// each sorted ascending under NeighborLess on (distance, stable id).
/// Range answers carry no route: every shard runs TiRangeScan on the
/// host, and the serving metrics count each answer as one host route.
struct RangeShardAnswer {
  RangeResult result;
  double route_seconds = 0.0;  ///< Host wall-clock of this shard's scan.
  RangeScanStats stats;        ///< The TI scan's work counters.
};

/// Merges per-shard range answers into the global per-query match
/// lists. Every stable id lives in exactly one shard and every shard
/// reports its complete in-ball set, so the union is the global set;
/// re-sorting each pooled row under NeighborLess on (distance, stable
/// id) — a total order — makes the merged rows bit-identical to a
/// single-index scan over the same live points.
RangeResult MergeRangeShardAnswers(const std::vector<RangeShardAnswer>& answers,
                                   size_t num_queries);

/// The conservative float slack added to the TI pruning thresholds:
/// large enough to cover accumulated rounding in the center/member
/// distances, small enough that pruning still bites. Exactness never
/// depends on it (see TiRangeScan).
inline float RangePruneSlack(float radius, float a, float b) {
  return 1e-4f * (radius + a + b) + 1e-6f;
}

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_RANGE_SEARCH_H_
