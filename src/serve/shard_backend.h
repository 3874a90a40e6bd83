#ifndef SWEETKNN_SERVE_SHARD_BACKEND_H_
#define SWEETKNN_SERVE_SHARD_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "ann/ann_index.h"
#include "ann/search_mode.h"
#include "common/matrix.h"
#include "common/range_result.h"
#include "core/delta_overlay.h"
#include "core/range_search.h"
#include "core/options.h"
#include "core/route_planner.h"
#include "core/shard_merge.h"
#include "core/ti_knn_gpu.h"
#include "gpusim/device.h"
#include "simd/simd_kernels.h"
#include "store/snapshot.h"

namespace sweetknn::serve {

/// One target-set shard: a simulated device with a prepared TiKnnEngine
/// index, the pre-packed host-route copy of the same base, and the
/// mutation overlay. This is the transport-free unit both shard backends
/// host — KnnService's in-process threads and the shard-worker processes
/// hold the identical object, so a query group answered locally and one
/// answered over a socket run exactly the same code against exactly the
/// same state (the basis of the cluster-vs-local bit-identity harness).
///
/// Thread model: the host is externally synchronized. KnnService guards
/// every access with index_mutex_; a ShardWorker serves its requests
/// from one thread.
struct ShardHost {
  /// No active compaction on this shard (see compact_watermark).
  static constexpr size_t kNoCompaction = static_cast<size_t>(-1);

  explicit ShardHost(const gpusim::DeviceSpec& spec,
                     const core::TiOptions& options)
      : dev(spec), engine(&dev, options) {}

  gpusim::Device dev;
  core::TiKnnEngine engine;
  /// The frozen base pre-packed for the vectorized host route; holds
  /// exactly the bytes PrepareTarget/RestoreTarget uploaded. Replaced
  /// together with the engine (compaction installs, swaps).
  simd::PackedTargets packed_base;
  uint32_t offset = 0;  ///< First global target row of this slice.
  /// Base row -> stable id, strictly increasing; empty = identity
  /// shifted by `offset`.
  std::vector<uint32_t> id_map;
  /// Inserts since the base was clustered, plus tombstoned ids.
  core::DeltaBuffer delta;
  /// The approximate tier over the same frozen base (empty unless
  /// ConfigureAnn enabled it). Rebuilt wherever the base is: BuildCold,
  /// RestoreBase (adopting a snapshot's persisted graph when present),
  /// RebuildCompacted. Never covers the delta — SearchGroup's side scan
  /// and merge handle that exactly.
  ann::AnnIndex ann;
  /// Install ticket: bumped (from the owner's epoch counter) whenever
  /// the shard object is created or replaced. A compactor that captured
  /// an older epoch must abandon its install.
  uint64_t epoch = 0;
  /// While a compaction is in flight: how many delta entries the
  /// compactor captured. Removes of captured entries tombstone instead
  /// of erasing (the rebuild already contains them); the suffix past
  /// the watermark stays freely mutable.
  size_t compact_watermark = kNoCompaction;

  bool Pristine() const { return delta.Pristine() && id_map.empty(); }
  uint32_t BaseId(size_t i) const {
    return id_map.empty() ? offset + static_cast<uint32_t>(i) : id_map[i];
  }
  size_t base_rows() const { return base_rows_; }
  void set_base_rows(size_t n) { base_rows_ = n; }
  size_t live_rows() const {
    return base_rows_ - delta.tombstones.size() + delta.size();
  }

  /// Opts this shard into the ANN tier. Call before BuildCold /
  /// RestoreBase; the graph is built (or adopted) there. When
  /// `params.workers` is unset (<= 0), `fallback_workers` — the host's
  /// configured parallelism — fills it in, so graph builds stop silently
  /// falling back to the SWEETKNN_SIM_THREADS environment default.
  void ConfigureAnn(bool enabled, const ann::GraphBuildParams& params,
                    int fallback_workers = 0) {
    ann_enabled_ = enabled;
    ann_params_ = params;
    if (ann_params_.workers <= 0 && fallback_workers > 0) {
      ann_params_.workers = fallback_workers;
    }
  }
  bool ann_enabled() const { return ann_enabled_; }
  const ann::GraphBuildParams& ann_params() const { return ann_params_; }

  /// Cold build: PrepareTarget (upload + Step-1 landmark clustering)
  /// over this shard's slice, plus the packed host-route copy.
  void BuildCold(const HostMatrix& slice);

  /// Warm start: re-materializes the prepared index from a snapshot's
  /// bytes without re-clustering, plus the packed host-route copy.
  void RestoreBase(const HostMatrix& target,
                   const core::TargetClusteringHost& clustering);

  /// Adopts a snapshot's geometry and overlay fields (offset, id map,
  /// delta, tombstones). Does NOT restore the engine — call RestoreBase
  /// with the snapshot's target afterwards (KnnService batches the
  /// restores onto the host pool).
  void AdoptOverlay(const store::IndexSnapshot& snap);

  /// Answers one same-k query group from this shard: the complete,
  /// exact contribution the final MergeShardAnswers needs, whichever
  /// side of a socket this host lives on.
  ///
  /// A pristine shard runs its base at k and reports local indices
  /// (pristine answer, stable id = index + offset at merge time). A
  /// mutated shard over-queries its base at k + |tombstones| (masking
  /// can then never starve the top k), side-scans its delta, and merges
  /// the two locally through MergeMutableResults — reporting its exact
  /// live top-k with stable ids substituted. Either way the answer's
  /// pooled contribution is bit-identical to the flat single-process
  /// merge; see MergeShardAnswers.
  ///
  /// `route` picks the base-scan path (the caller's planner decides, so
  /// decision order stays deterministic); both routes answer
  /// bit-identically. Host-routed scans report no simulated-device
  /// stats (device_routed = false).
  ///
  /// `mode` selects the base-scan backend per group: an effectively
  /// approx mode (and a built graph) answers the base from the ANN tier
  /// under the mode's candidate budget — still over-queried for
  /// tombstones, still merged exactly with the delta scan — and reports
  /// the graph-search work counters on the answer. Exact modes (the
  /// default) are untouched.
  core::ShardAnswer SearchGroup(const HostMatrix& queries, int k,
                                core::QueryRoute route, core::Metric metric,
                                const ann::SearchMode& mode =
                                    ann::SearchMode::Exact());

  /// Answers one same-radius range group from this shard: every live
  /// point within the closed ball of each query row, as stable ids
  /// (tombstones masked, delta matches merged in — see
  /// core::RangeShardAnswer). `route` picks the TI-pruned scan
  /// (kDevice) or the exhaustive host scan (kHost); both answer
  /// bit-identically and neither touches the simulated device.
  core::RangeShardAnswer RangeGroup(const HostMatrix& queries, float radius,
                                    core::QueryRoute route,
                                    core::Metric metric);

  /// This shard's live points and their stable ids, ascending id order
  /// (base survivors then delta — every delta id postdates the base).
  /// The query source of the offline jobs; the caller merges shards.
  void ExportLive(std::vector<uint32_t>* ids, HostMatrix* points) const;

  /// True when stable id `id` lives in this shard (base row —
  /// tombstoned or not — or delta entry).
  bool Owns(uint32_t id) const;

  /// Removes stable id `id` from this shard: erases a free delta entry
  /// physically, tombstones a base row or a compaction-consumed delta
  /// entry (erasing a consumed entry would resurrect the point at
  /// install). Returns false — with no state change — when the id is
  /// not here or already removed.
  bool ApplyRemove(uint32_t id);

  /// Exports the prepared index as a snapshot, normalizing the overlay
  /// (delta entries tombstoned mid-compaction are dropped outright,
  /// restoring the file invariant that tombstones name base rows only).
  /// `next_id` is the owner's id-allocator watermark, recorded in
  /// mutated snapshots.
  store::IndexSnapshot Export(const std::string& dataset_name,
                              const std::string& builder,
                              uint32_t shard_index, uint32_t shard_count,
                              const std::string& options_fingerprint,
                              const std::string& device_fingerprint,
                              uint32_t next_id) const;

 private:
  /// The host image of the engine's Step-1 clustering, exported lazily
  /// for the TI range scans and cached until the base is replaced
  /// (BuildCold / RestoreBase; compaction installs a fresh ShardHost).
  const core::TargetClusteringHost& CachedClustering();

  size_t base_rows_ = 0;
  bool ann_enabled_ = false;
  ann::GraphBuildParams ann_params_;
  /// A snapshot's persisted graph, parked by AdoptOverlay until
  /// RestoreBase has the points to pair it with.
  ann::KnnGraph pending_graph_;
  std::unique_ptr<core::TargetClusteringHost> clustering_cache_;
};

/// Everything a compaction captures under the owner's lock before
/// rebuilding off-lock (docs/mutability.md).
struct CompactionPlan {
  int shard = -1;
  uint64_t epoch = 0;    ///< Shard epoch at capture.
  size_t watermark = 0;  ///< Delta entries consumed by the plan.
  HostMatrix points;     ///< Survivors + consumed delta, id order.
  std::vector<uint32_t> ids;  ///< Stable ids of `points` rows.
  /// Tombstones at capture (already excluded from `points`).
  std::unordered_set<uint32_t> captured_tombstones;
};

/// Capture step of the compaction protocol: snapshots the shard's live
/// points (base survivors, then consumed live delta entries — ascending
/// stable-id order) into `plan` and marks the watermark on the shard.
/// Caller must hold the lock that guards `shard` and must have checked
/// that the shard is compactable (no compaction in flight, non-pristine
/// overlay, live_rows > 0).
void CaptureCompaction(ShardHost* shard, int shard_index,
                       CompactionPlan* plan);

/// Rebuild step, safe to run off-lock: a fresh simulated device (so the
/// adaptive scheme sees the same free memory a cold build would) and a
/// full Step-1 clustering over the captured points. Captured ids that
/// are literally 0..n-1 restore pristine form (no id map); otherwise the
/// plan's ids become the new base's id map. `options` should carry the
/// owner's effective shard options (sim_threads = 1). When the owner
/// serves the ANN tier, pass its config so the fresh base gets a fresh
/// graph at install.
std::unique_ptr<ShardHost> RebuildCompacted(
    const CompactionPlan& plan, const gpusim::DeviceSpec& device,
    const core::TiOptions& options, size_t dims, bool ann_enabled = false,
    const ann::GraphBuildParams& ann_params = ann::GraphBuildParams{});

/// Pools per-part live exports (ShardHost::ExportLive of each shard, or
/// of each worker over its shards) into one globally ascending stable-id
/// order: parts interleave in id space (inserts route by id % S). The
/// query source of both backends' live-set jobs.
void MergeLiveExports(const std::vector<std::vector<uint32_t>>& part_ids,
                      const std::vector<HostMatrix>& part_points, size_t dims,
                      std::vector<uint32_t>* ids, HostMatrix* points);

/// One kNN-graph row of the live point `self`, reduced from the merged
/// top-(k+1) answer to its own query (`row`, k + 1 entries): the first
/// entry naming `self` is dropped — the extra slot absorbs the query
/// point — and at most k neighbors are kept, the exact k nearest other
/// live points. Both backends' KnnGraph jobs build their rows with it.
void KnnGraphRow(const Neighbor* row, int k, uint32_t self,
                 std::vector<Neighbor>* out);

/// Self-join reduction of one range chunk: query row q, the live point
/// with stable id ids[q], keeps its in-ball matches with ids above its
/// own — each unordered pair lands exactly once (on its smaller id),
/// self-matches drop, exact duplicates survive (distinct ids). Both
/// backends' SelfJoin jobs reduce through it.
void AppendSelfJoinPairs(const RangeResult& matches, const uint32_t* ids,
                         std::vector<SelfJoinPair>* pairs);

/// Install-time carry-over: mutations that landed on `old_shard` while
/// the rebuild ran move onto `fresh` — the delta suffix past the
/// watermark verbatim (its entries are never tombstoned; removes past
/// the watermark erase physically), and removes of captured rows as
/// tombstones of the new base. Caller holds the lock and has already
/// verified old_shard.epoch == plan.epoch.
void CarryOverlayForward(const ShardHost& old_shard,
                         const CompactionPlan& plan, ShardHost* fresh);

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_SHARD_BACKEND_H_
