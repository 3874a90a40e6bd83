#ifndef SWEETKNN_CORE_SWEET_KNN_H_
#define SWEETKNN_CORE_SWEET_KNN_H_

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ann/search_mode.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/host_image.h"
#include "core/options.h"
#include "core/range_search.h"
#include "core/route_planner.h"
#include "core/shard_host.h"
#include "core/ti_knn_gpu.h"
#include "gpusim/device.h"

namespace sweetknn {

/// The library's front door: Sweet KNN with an owned simulated device.
///
///   sweetknn::SweetKnn knn;
///   KnnResult result = knn.SelfJoin(points, /*k=*/20);
///
/// For baseline comparisons or custom devices, construct with a Config;
/// for fine-grained control (re-using clusterings across k values), use
/// core::TiKnnEngine directly.
class SweetKnn {
 public:
  struct Config {
    gpusim::DeviceSpec device = gpusim::DeviceSpec::TeslaK20c();
    core::TiOptions options = core::TiOptions::Sweet();
    /// SweetKnnIndex only: auto-compact when the overlay (delta points +
    /// tombstones) exceeds this fraction of the base rows. <= 0 disables
    /// auto-compaction (Compact() stays available).
    double compact_delta_fraction = 0.25;
    /// SweetKnnIndex only: routing of each exact kNN batch between the
    /// simulated-GPU TI engine and the host route's TI scan over the
    /// base's HostImage (docs/performance.md). The default runs every
    /// batch on the host. Both routes answer bit-identically;
    /// force-device runs the paper's engine (and is what stats-asserting
    /// callers should pin, since host-routed batches report no
    /// simulated-device stats). Radius searches take no route.
    core::PlannerConfig planner;
  };

  SweetKnn() : SweetKnn(Config{}) {}
  explicit SweetKnn(const Config& config)
      : device_(config.device), options_(config.options) {}

  SweetKnn(const SweetKnn&) = delete;
  SweetKnn& operator=(const SweetKnn&) = delete;

  /// KNN join: the k nearest points of `target` for every row of `query`.
  KnnResult Join(const HostMatrix& query, const HostMatrix& target, int k,
                 core::KnnRunStats* stats = nullptr) {
    return core::TiKnnEngine::RunOnce(&device_, query, target, k, options_,
                                      stats);
  }

  /// Self-join (query set == target set), the setting of the paper's
  /// experiments. Note each point finds itself as its nearest neighbor.
  KnnResult SelfJoin(const HostMatrix& points, int k,
                     core::KnnRunStats* stats = nullptr) {
    return Join(points, points, k, stats);
  }

  /// Single-query convenience: the k nearest targets of one point.
  std::vector<Neighbor> Search(const HostMatrix& target,
                               const std::vector<float>& query_point, int k) {
    SK_CHECK_EQ(query_point.size(), target.cols());
    HostMatrix query(1, target.cols());
    std::memcpy(query.mutable_row(0), query_point.data(),
                target.cols() * sizeof(float));
    const KnnResult result = Join(query, target, k);
    return std::vector<Neighbor>(result.row(0), result.row(0) + result.k());
  }

  gpusim::Device& device() { return device_; }
  const core::TiOptions& options() const { return options_; }

 private:
  gpusim::Device device_;
  core::TiOptions options_;
};

/// A prebuilt index over a target set: the target-side clustering (the
/// expensive part of Step 1) is built once, then arbitrary query batches
/// run against it.
///
///   sweetknn::SweetKnnIndex index(gallery);
///   KnnResult r1 = index.Query(batch1, 10);
///   KnnResult r2 = index.Query(batch2, 10);
///
/// The target set is mutable: Insert/Remove buffer changes in a delta
/// overlay (new points served by an exact brute-force side scan, deleted
/// rows masked by stable id at merge time) without touching the frozen
/// base, and Compact() — run automatically once the overlay exceeds
/// Config::compact_delta_fraction of the base — folds the overlay into a
/// freshly clustered base. Answers are exact at every point: a mutated
/// index answers bit-identically to a cold-built index over the
/// surviving point set arranged in ascending stable-id order (the
/// mutation-differential fuzz suite proves this; docs/mutability.md has
/// the argument). The index is one core::ShardHost at offset 0 — the
/// same shard code both serving backends run — plus a route planner and
/// the id allocator.
///
/// Rows are named by stable ids: the initial target's rows get ids
/// 0..rows-1, every Insert allocates the next id, and ids are never
/// reused. Query results report stable ids.
///
/// Not thread-safe; serve::KnnService is the concurrent front-end.
class SweetKnnIndex {
 public:
  explicit SweetKnnIndex(const HostMatrix& target,
                         const SweetKnn::Config& config = {});

  SweetKnnIndex(const SweetKnnIndex&) = delete;
  SweetKnnIndex& operator=(const SweetKnnIndex&) = delete;

  /// The k nearest live points for every query row, as stable ids. When
  /// tombstones exist, the base engine is over-queried at
  /// k + |tombstones| so that masking can never starve the top-k.
  KnnResult Query(const HostMatrix& queries, int k,
                  core::KnnRunStats* stats = nullptr);

  /// Mode-selected query: every mode runs the exact path above and
  /// returns its bytes (recall 1.0 meets any approximate target;
  /// docs/approx.md).
  KnnResult Query(const HostMatrix& queries, int k,
                  const ann::SearchMode& mode,
                  core::KnnRunStats* stats = nullptr);

  /// Single-point convenience.
  std::vector<Neighbor> Query(const std::vector<float>& point, int k);

  // -- Range modalities (docs/modalities.md) --------------------------

  /// Every live point within the closed ball distance <= radius of each
  /// query row, as stable ids, each row sorted ascending under
  /// NeighborLess on (distance, id). The base scan is the TI-pruned
  /// host scan reusing the Step-1 landmark bounds (core::TiRangeScan,
  /// bit-identical to the exhaustive core::FullRangeScan). It takes no
  /// planner decision and never touches the simulated device, so kNN
  /// routes, stats and the adaptive state are unperturbed. `stats`
  /// (optional) reports the base-scan work/pruning counters.
  RangeResult RadiusSearch(const HostMatrix& queries, float radius,
                           core::RangeScanStats* stats = nullptr);

  /// Every unordered pair of live points within the closed ball, each
  /// emitted once as (a, b, distance) with a < b, ordered by ascending
  /// a then (distance, b). Runs as chunked RadiusSearch over the live
  /// points (so pruning, routing, and overlay handling are the same
  /// fuzz-proven path), keeping matches with id > query id — which also
  /// excludes self-matches while keeping distinct duplicate points.
  std::vector<SelfJoinPair> SelfJoin(float radius,
                                     core::RangeScanStats* stats = nullptr);

  /// The exact kNN graph over the live points: row i of `neighbors`
  /// holds the k nearest live points of ids[i], excluding itself,
  /// padded with kInvalidNeighbor when fewer than k other points exist.
  /// Built as chunked Query(chunk, k + 1) with the self entry dropped:
  /// a point absent from its own top k+1 (duplicate-heavy sets) leaves
  /// the top k of the others intact, so the graph is exact either way.
  struct KnnGraphResult {
    std::vector<uint32_t> ids;  ///< Live stable ids, ascending.
    KnnResult neighbors;        ///< ids.size() rows of k stable-id entries.
  };
  KnnGraphResult KnnGraph(int k);

  /// The live points and their stable ids, ascending id order (the
  /// query source of the offline jobs).
  void ExportLive(std::vector<uint32_t>* ids, HostMatrix* points) const;

  /// Adds a point; returns its stable id. The point lands in the delta
  /// buffer and is served exactly from the next Query on. May trigger
  /// auto-compaction (see Config::compact_delta_fraction).
  uint32_t Insert(const std::vector<float>& point);

  /// Deletes the point with this stable id. Delta-resident points are
  /// erased in place; base rows are tombstoned until the next
  /// compaction. Returns false if the id was never live or already
  /// removed. Removing every point is allowed — queries then answer all
  /// padding. May trigger auto-compaction.
  bool Remove(uint32_t id);

  /// Folds the overlay into a fresh base: survivors of the old base plus
  /// the delta points, arranged in ascending stable-id order, get a
  /// from-scratch Step-1 clustering on a fresh simulated device (so the
  /// adaptive scheme sees exactly the allocation state of a cold build).
  /// No-op when the overlay is empty or no points survive.
  void Compact();

  /// Persists the index (target points + target clustering + overlay +
  /// configuration fingerprints) to `path` in the src/store snapshot
  /// format; a pristine (never-mutated) index writes the backward-
  /// compatible v1 format, a mutated one v2. `dataset_name` is recorded
  /// as provenance. Defined in src/store/index_io.cc; link
  /// sweetknn_store to use it.
  Status Save(const std::string& path,
              const std::string& dataset_name = "") const;

  /// Restores an index persisted by Save — including any delta/tombstone
  /// overlay — skipping the Step-1 landmark clustering. The snapshot
  /// must have been built under the same options and device spec as
  /// `config` (fingerprint-checked); a warm-loaded index answers every
  /// query bit-identically to the index that was saved. Defined in
  /// src/store/index_io.cc; link sweetknn_store to use it.
  static Result<std::unique_ptr<SweetKnnIndex>> Load(
      const std::string& path, const SweetKnn::Config& config = {});

  /// Live points: base rows minus tombstones plus delta points.
  size_t size() const { return shard_->live_rows(); }
  size_t dims() const { return shard_->delta.dims; }
  /// Rows in the frozen TI-clustered base (including tombstoned ones).
  size_t base_rows() const { return shard_->base_rows(); }
  size_t delta_size() const { return shard_->delta.size(); }
  size_t tombstone_count() const { return shard_->delta.tombstones.size(); }
  /// The next stable id Insert will allocate.
  uint32_t next_id() const { return next_id_; }
  /// Compactions run so far (auto or manual).
  uint64_t compactions() const { return compactions_; }
  /// True when the index has no overlay and answers straight from the
  /// base (a never-mutated or freshly compacted-to-identity index).
  bool pristine() const { return shard_->Pristine(); }

  gpusim::Device& device() { return shard_->dev; }
  const core::TiKnnEngine& engine() const { return shard_->engine; }
  /// The host route's image of the frozen base (rebuilt with it).
  const core::HostImage& host_image() const { return shard_->image; }
  /// The batch router (live mode switch; route counters).
  core::RoutePlanner& planner() { return planner_; }
  const core::RoutePlanner& planner() const { return planner_; }

 private:
  /// An index whose shard (offset 0) is configured for `config` but
  /// holds no base yet: the public constructor builds it cold, Load
  /// restores it from a snapshot.
  SweetKnnIndex(const SweetKnn::Config& config, uint32_t next_id);

  void MaybeCompact();

  SweetKnn::Config config_;
  /// The frozen base, its engine, host image and overlay.
  /// Replaced wholesale by Compact.
  std::unique_ptr<core::ShardHost> shard_;
  core::RoutePlanner planner_;
  uint32_t next_id_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace sweetknn

#endif  // SWEETKNN_CORE_SWEET_KNN_H_
