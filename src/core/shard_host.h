#ifndef SWEETKNN_CORE_SHARD_HOST_H_
#define SWEETKNN_CORE_SHARD_HOST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/range_result.h"
#include "core/delta_overlay.h"
#include "core/host_image.h"
#include "core/range_search.h"
#include "core/options.h"
#include "core/shard_merge.h"
#include "core/ti_knn_gpu.h"
#include "gpusim/device.h"

namespace sweetknn::store {
struct IndexSnapshot;
}  // namespace sweetknn::store

namespace sweetknn::core {

/// One mutable target-set shard: the frozen base and its Step-1
/// clustering, computed on the host, the host route's image of them,
/// the mutation overlay, and a simulated device whose TiKnnEngine is
/// prepared over the same base only when a device-routed group first
/// reaches the shard. This is the only implementation of the overlay:
/// KnnService's in-process threads and the shard-worker processes hold
/// the identical object, so a query group answered locally and one
/// answered over a socket run exactly the same code against exactly the
/// same state (the basis of the cluster-vs-local bit-identity harness),
/// and SweetKnnIndex is one of them at offset 0.
///
/// Thread model: the host is externally synchronized. KnnService guards
/// every access with the tenant's index mutex; a ShardWorker serves its
/// requests from one thread; SweetKnnIndex is not thread-safe.
struct ShardHost {
  /// No active compaction on this shard (see compact_watermark).
  static constexpr size_t kNoCompaction = static_cast<size_t>(-1);

  explicit ShardHost(const gpusim::DeviceSpec& spec, const TiOptions& options)
      : dev(spec), engine(&dev, options) {}

  gpusim::Device dev;
  /// The paper's engine over `base` on `dev`. Until the first
  /// device-routed SearchGroup it is unprepared: no kernel has run and
  /// `dev` holds no allocation.
  TiKnnEngine engine;
  /// The frozen base rows, row-major in base-row order.
  HostMatrix base;
  /// The frozen base in member order plus its Step-1 clustering, for
  /// the host routes. Replaced together with `base` (compaction
  /// installs, swaps).
  HostImage image;
  uint32_t offset = 0;  ///< First global target row of this slice.
  /// Base row -> stable id, strictly increasing; empty = identity
  /// shifted by `offset`.
  std::vector<uint32_t> id_map;
  /// Inserts since the base was clustered (its tombstones: see
  /// ApplyRemove).
  DeltaBuffer delta;
  /// Install ticket: bumped (from the owner's epoch counter) whenever
  /// the shard object is created or replaced. A compactor that captured
  /// an older epoch must abandon its install.
  uint64_t epoch = 0;
  /// While a compaction is in flight: how many delta entries the
  /// compactor captured. Removes of captured entries tombstone instead
  /// of erasing (the rebuild already contains them); the suffix past
  /// the watermark stays freely mutable.
  size_t compact_watermark = kNoCompaction;

  /// No delta point and no removed row.
  bool OverlayEmpty() const {
    return delta.size() == 0 && dead_base_rows_ == 0;
  }
  bool Pristine() const { return OverlayEmpty() && id_map.empty(); }
  uint32_t BaseId(size_t i) const {
    return id_map.empty() ? offset + static_cast<uint32_t>(i) : id_map[i];
  }
  /// The base row holding stable id `id`, or DeltaBuffer::kNotFound.
  size_t BaseRow(uint32_t id) const;
  /// Base row -> nonzero when that row is removed, or nullptr when no
  /// base row is: the only record of removed base rows. The host routes
  /// skip them inside their scans; the device route masks them in the
  /// merge. Not persisted: Export writes their ids, AdoptOverlay marks
  /// them again.
  const uint8_t* dead_rows() const {
    return dead_base_rows_ == 0 ? nullptr : dead_rows_.data();
  }
  /// Removed base rows plus tombstoned delta entries.
  size_t tombstone_count() const {
    return dead_base_rows_ + delta.tombstones.size();
  }
  size_t base_rows() const { return base_rows_; }
  /// Sets the base geometry, with no row removed.
  void set_base_rows(size_t n) {
    base_rows_ = n;
    dead_rows_.assign(n, 0);
    dead_base_rows_ = 0;
  }
  size_t live_rows() const {
    return base_rows_ - tombstone_count() + delta.size();
  }

  /// Cold build: keeps `slice` as the base and runs Step 1 over it on
  /// the host (BuildTargetClusteringOnHost) for the host image. The
  /// first device-routed group later runs PrepareTarget, which clusters
  /// the base once more on the simulated device, and checks that both
  /// clusterings hold the same bytes.
  void BuildCold(const HostMatrix& slice);

  /// Warm start: keeps a snapshot's base and builds the host image from
  /// its clustering, without re-clustering. The first device-routed
  /// group later uploads both (RestoreTarget).
  void RestoreBase(const HostMatrix& target,
                   const TargetClusteringHost& clustering);

  /// Adopts a snapshot's geometry and overlay fields (offset, id map,
  /// delta, and its tombstones as dead_rows). Does not restore the
  /// engine — call RestoreBase with the snapshot's target afterwards
  /// (KnnService batches the restores onto the host pool). Defined in
  /// src/store/index_io.cc; link sweetknn_store.
  void AdoptOverlay(const store::IndexSnapshot& snap);

  /// Answers one same-k query group from this shard: the complete,
  /// exact contribution the final MergeShardAnswers needs, whichever
  /// side of a socket this host lives on.
  ///
  /// A pristine shard runs its base at k and reports local indices
  /// (pristine answer, stable id = index + offset at merge time). A
  /// mutated shard scans its base for the k nearest live rows,
  /// side-scans its delta, and merges the two locally through
  /// MergeMutableResults — reporting its exact live top-k with stable
  /// ids substituted. The host route skips dead_rows inside its TI scan
  /// at k, so theta is the kth live distance; the device route
  /// over-queries at k + tombstone_count() (masking can then never
  /// starve the top k) and the merge masks dead_rows, because masking
  /// inside the simulated kernels would change the paper's clock. Either
  /// way the answer's pooled contribution is bit-identical to the flat
  /// single-process merge; see MergeShardAnswers.
  ///
  /// `route` picks the base-scan path; both routes answer
  /// bit-identically. The first device-routed group prepares the engine
  /// (inside route_seconds); its stats, like every later group's, fold
  /// in the preparation's simulated time, exactly as an engine prepared
  /// at build time would report. Host-routed scans report no
  /// simulated-device stats; their distance_calcs / total_pairs count
  /// the host image's TI scan instead (rows offered / |Q| * n).
  ///
  /// `workers` is the host route's width (1 on the serving backends,
  /// whose shard fan-out is already the parallel axis). `device_stats`,
  /// when set, receives the device run's full KnnRunStats (empty on the
  /// host route).
  ShardAnswer SearchGroup(const HostMatrix& queries, int k, QueryRoute route,
                          Metric metric, int workers = 1,
                          KnnRunStats* device_stats = nullptr);

  /// Answers one same-radius range group from this shard: every live
  /// point within the closed ball of each query row, as stable ids
  /// (tombstones masked, delta matches merged in — see
  /// RangeShardAnswer). The base scan is always TiRangeScan over the
  /// host image: no route, no simulated device.
  RangeShardAnswer RangeGroup(const HostMatrix& queries, float radius,
                              Metric metric);

  /// This shard's live points and their stable ids, ascending id order
  /// (base survivors then delta — every delta id postdates the base).
  /// The query source of the offline jobs; the caller merges shards.
  void ExportLive(std::vector<uint32_t>* ids, HostMatrix* points) const;

  /// True when stable id `id` lives in this shard (base row —
  /// tombstoned or not — or delta entry).
  bool Owns(uint32_t id) const;

  /// Removes stable id `id` from this shard: marks a base row in
  /// dead_rows, erases a free delta entry physically, and tombstones a
  /// compaction-consumed delta entry in delta.tombstones (erasing it
  /// would resurrect the point at install). Returns false — with no
  /// state change — when the id is not here or already removed.
  bool ApplyRemove(uint32_t id);

  /// Exports the prepared index as a snapshot, normalizing the overlay
  /// (delta entries tombstoned mid-compaction are dropped outright,
  /// restoring the file invariant that tombstones name base rows only).
  /// `next_id` is the owner's id-allocator watermark, recorded in
  /// mutated snapshots. The fingerprints are this shard's engine options
  /// and device. Defined in src/store/index_io.cc; link sweetknn_store.
  store::IndexSnapshot Export(const std::string& dataset_name,
                              const std::string& builder,
                              uint32_t shard_index, uint32_t shard_count,
                              uint32_t next_id) const;

 private:
  /// Prepares `engine` over `base` on the first device route: a cold
  /// base runs PrepareTarget and checks the device's clustering against
  /// the image's; a restored base runs RestoreTarget.
  void PrepareDevice();
  /// Marks base row `row` removed; false when it already was.
  bool MarkDead(size_t row);

  size_t base_rows_ = 0;
  /// One byte per base row (see dead_rows()), sized by set_base_rows.
  std::vector<uint8_t> dead_rows_;
  size_t dead_base_rows_ = 0;
  /// How the base was built, and so how PrepareDevice prepares it.
  enum class DeviceState { kEmpty, kCold, kRestored, kPrepared };
  DeviceState device_state_ = DeviceState::kEmpty;
};

/// Everything a compaction captures under the owner's lock before
/// rebuilding off-lock (docs/mutability.md).
struct CompactionPlan {
  uint64_t epoch = 0;    ///< Shard epoch at capture.
  size_t watermark = 0;  ///< Delta entries consumed by the plan.
  HostMatrix points;     ///< Survivors + consumed delta, id order.
  std::vector<uint32_t> ids;  ///< Stable ids of `points` rows.
  /// The shard's dead-row mask at capture (those rows are already
  /// excluded from `points`); empty when no row was removed.
  std::vector<uint8_t> dead_rows;
};

/// Capture step of the compaction protocol: snapshots the shard's live
/// points (base survivors, then consumed live delta entries — ascending
/// stable-id order) into `plan` and marks the watermark on the shard.
/// Caller must hold the lock that guards `shard` and must have checked
/// that the shard is compactable (no compaction in flight, non-pristine
/// overlay, live_rows > 0).
void CaptureCompaction(ShardHost* shard, CompactionPlan* plan);

/// Rebuild step, safe to run off-lock: a fresh shard cold-built over the
/// captured points (a full Step-1 clustering on the host; its device
/// stays unprepared until a device route reaches it). Captured ids that
/// are literally 0..n-1 restore pristine form (no id map); otherwise the
/// plan's ids become the new base's id map. `options` should carry the
/// owner's effective shard options.
std::unique_ptr<ShardHost> RebuildCompacted(const CompactionPlan& plan,
                                            const gpusim::DeviceSpec& device,
                                            const TiOptions& options);

/// Install-time carry-over: mutations that landed on `old_shard` while
/// the rebuild ran move onto `fresh` — the delta suffix past the
/// watermark verbatim (its entries are never tombstoned; removes past
/// the watermark erase physically), and removes of captured rows as
/// tombstones of the new base, marked in its dead_rows through the id
/// map RebuildCompacted set. Caller holds the lock and has already
/// verified old_shard.epoch == plan.epoch.
void CarryOverlayForward(const ShardHost& old_shard,
                         const CompactionPlan& plan, ShardHost* fresh);

/// The whole protocol in one synchronous step, for owners that serve
/// nothing beside the rebuild (a ShardWorker, SweetKnnIndex): capture,
/// rebuild under the shard's own device and options, and the
/// carry-over, which is necessarily empty. Returns the
/// replacement, or null when there is nothing to fold: an empty overlay
/// (an id-mapped base without one is already compacted — the test
/// KnnService's compactor applies too), or no live point (an empty base
/// cannot be clustered; the overlay keeps masking). The old shard, and
/// its engine's buffers in its own device, live until the owner drops
/// it.
std::unique_ptr<ShardHost> CompactNow(ShardHost* shard);

/// Self-join reduction of one range chunk: query row q, the live point
/// with stable id ids[q], keeps its in-ball matches with ids above its
/// own — each unordered pair lands exactly once (on its smaller id),
/// self-matches drop, exact duplicates survive (distinct ids). The
/// serving SelfJoin job and SweetKnnIndex::SelfJoin reduce through it.
void AppendSelfJoinPairs(const RangeResult& matches, const uint32_t* ids,
                         std::vector<SelfJoinPair>* pairs);

}  // namespace sweetknn::core

#endif  // SWEETKNN_CORE_SHARD_HOST_H_
