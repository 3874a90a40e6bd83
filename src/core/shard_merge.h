#ifndef SWEETKNN_CORE_SHARD_MERGE_H_
#define SWEETKNN_CORE_SHARD_MERGE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/knn_result.h"
#include "core/options.h"

namespace sweetknn::core {

/// One input of MergeMutableResults: a per-source exact KNN result plus
/// how its local indices translate to stable ids and which of those ids
/// are dead. Sources are views; the caller keeps everything alive for
/// the duration of the merge.
struct MergeSource {
  /// Exact top-k' of this source's point set, rows ascending under
  /// NeighborLess on (distance, local index), padded with
  /// kInvalidNeighbor. k' may differ per source (see the over-query
  /// requirement on MergeMutableResults).
  const KnnResult* result = nullptr;
  /// Maps local index i to stable id id_map[i]. Must be strictly
  /// increasing so local-index tie-breaking equals stable-id
  /// tie-breaking. nullptr: stable id = local index + offset.
  const uint32_t* id_map = nullptr;
  uint32_t offset = 0;
  /// Stable ids deleted from this source but still physically present in
  /// it (masked out during the merge). nullptr = none.
  const std::unordered_set<uint32_t>* tombstones = nullptr;
};

/// Merges per-source exact KNN results — frozen base shards plus delta
/// buffers — into the exact global top-k over the union of the sources'
/// *live* points, with neighbor indices remapped to stable ids.
///
/// Exactness requires each source's result to survive its own masking:
/// a source with t tombstoned rows must be queried at k' >= k + t, so
/// that after dropping the (at most t) dead entries it still contributes
/// its top-k live points. Every live global top-k point then appears in
/// exactly one source's surviving list, and the k smallest of the pooled
/// survivors under NeighborLess on (distance, stable id) are exactly the
/// global top-k; since every id_map is strictly increasing, that order
/// is the one a cold-built index over the live points in ascending-id
/// order would produce — the merged rows are bit-identical to it.
KnnResult MergeMutableResults(const std::vector<MergeSource>& sources,
                              int k);

/// One shard's complete contribution to a same-k query group, in the
/// transport-free form both shard backends produce: the in-process
/// threads (KnnService) and the remote shard-worker processes hand the
/// router the same struct, so the final merge is one code path whichever
/// side of a socket the shard ran on.
///
/// A pristine shard (no overlay, identity ids) reports its raw engine /
/// host-kernel result: indices local to the slice, stable id = local
/// index + `offset`. A mutated shard reports its own exact live top-k
/// with stable ids already substituted (the shard-local
/// MergeMutableResults over its over-queried base and its delta scan).
/// The run-stat fields are the flattened subset the serving layer
/// aggregates; a host-routed shard ran no simulated device and reports
/// zeros with device_routed = false.
struct ShardAnswer {
  bool pristine = true;
  KnnResult result;     ///< k columns; see above for index semantics.
  uint32_t offset = 0;  ///< First stable id of a pristine slice.

  bool device_routed = true;
  double sim_time_s = 0.0;
  double level1_s = 0.0;      ///< Simulated level-1 kernel seconds.
  double level2_s = 0.0;      ///< Simulated level-2 kernel seconds.
  double transfer_s = 0.0;    ///< Simulated PCIe transfer seconds.
  double preprocess_s = 0.0;  ///< Everything else (upload, clustering).
  uint64_t distance_calcs = 0;
  uint64_t total_pairs = 0;
  Level2Filter filter_used = Level2Filter::kFull;
  KnearestsPlacement placement_used = KnearestsPlacement::kGlobal;
  int threads_per_query = 1;
  /// Host wall-clock of this shard's scan (route latency observation).
  double route_seconds = 0.0;
};

/// Merges per-shard answers into the exact global top-k.
///
/// A pristine answer's slice starts at stable id `offset` and its rows
/// are the exact top-k of that slice (ascending under NeighborLess,
/// padded with kInvalidNeighbor when the slice has fewer than k rows).
/// Every global top-k neighbor lives in exactly one slice and appears in
/// that slice's top-k, so the k smallest entries of the union (after the
/// offset remap) are exactly the global top-k; NeighborLess is a total
/// order (distance, then index), so the merged rows are bit-identical to
/// a single-engine run over the whole target set. A mutated answer's
/// rows are already that shard's exact live top-k under (distance,
/// stable id), every stable id lives in exactly one shard, and pooling
/// the per-shard lists and keeping the k smallest under the same total
/// order is exactly the flat MergeMutableResults over all base + delta
/// sources — so the merged rows are bit-identical to the in-process
/// single-merge path, which is itself fuzz-proven against brute force.
KnnResult MergeShardAnswers(const std::vector<ShardAnswer>& answers, int k);

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_SHARD_MERGE_H_
