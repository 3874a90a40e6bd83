#ifndef SWEETKNN_SERVE_KNN_SERVICE_H_
#define SWEETKNN_SERVE_KNN_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ann/search_mode.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/metrics.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/shard_merge.h"
#include "serve/front_end.h"
#include "serve/index_manager.h"
#include "store/snapshot.h"

namespace sweetknn::serve {

/// A concurrent batched KNN serving front-end over sharded
/// TiKnnEngine indexes — the "many users, many datasets" code path of
/// the ROADMAP's north star.
///
/// The service is multi-tenant: an IndexManager hosts any number of
/// named indexes (the constructor's target becomes the "default"
/// tenant; CreateIndex/DropIndex add and remove others at runtime),
/// each sharded, mutable, and snapshot-able independently. Client
/// threads call Search/JoinBatch concurrently — with a CallOptions
/// naming a tenant and optionally carrying a deadline — and requests
/// land in a weighted-fair admission scheduler (serve/scheduler.h):
/// per-tenant sub-queues drained in deficit-round-robin order, so a
/// flooding tenant cannot starve the others, and an optional
/// max_queue_depth bound sheds overload with kUnavailable instead of
/// letting tail latency grow without bound. Admission, micro-batching
/// and the exact merge live in the serving FrontEnd (serve/front_end.h)
/// the cluster Router shares; this class is its in-process transport:
/// each group fans out over the tenant's shards on the shared host
/// thread pool, and the merged answers are bit-identical to a
/// single-engine RunOnce over that tenant's unsharded target set.
///
/// Every target set is mutable while serving: Insert/Remove buffer
/// changes in per-shard delta overlays (new points served by an exact
/// brute-force side scan merged through MergeMutableResults, deleted ids
/// tombstone-masked), and a background compactor folds over-threshold
/// overlays into freshly clustered bases off the serving path —
/// queries never block on a compaction, and every answer reflects one
/// consistent index state (mutations and swaps are serialized with
/// query groups on the tenant's index mutex). Rows are named by stable
/// ids per tenant: the initial rows get 0..rows-1 and Insert allocates
/// upward.
///
///   KnnService service(gallery, {.num_shards = 4});
///   service.CreateIndex("faces", faces_matrix, /*weight=*/4.0);
///   // from many threads:
///   std::vector<Neighbor> nn = service.Search(point, /*k=*/10).value();
///   auto fnn = service.Search(point, 10, ann::SearchMode::Exact(),
///                             {.tenant = "faces"});
///
/// Lock order (to keep the TSan suites meaningful): a tenant's index
/// mutex may be held while taking compact_mutex_ or the manager's map
/// mutex (never the reverse); two tenants' index mutexes are never held
/// together; cache_mutex_ never nests with any of them.
class KnnService : private ShardTransport {
 public:
  explicit KnnService(const HostMatrix& target,
                      const ServiceConfig& config = {});
  ~KnnService();

  KnnService(const KnnService&) = delete;
  KnnService& operator=(const KnnService&) = delete;

  /// Adopts a complete shard snapshot set — including any mutation
  /// overlays (.sksnap v2) — as a new service's default tenant. The
  /// number of shards comes from the file set (config.num_shards is
  /// ignored); the fingerprints must match `config`. This is how a
  /// mutated service warm-starts exactly: SaveSnapshots + FromSnapshots
  /// round-trips every answer bit-identically.
  static Result<std::unique_ptr<KnnService>> FromSnapshots(
      const std::string& dir, const ServiceConfig& config = {});

  // -- Index management (multi-tenancy; see docs/serving.md) ----------

  /// Creates a named index over `target` with the given fair-share
  /// weight. The index is built off to the side (cold, or warm from
  /// "<snapshot_dir>/<name>/" when the bytes match) and published
  /// atomically: no query sees it half-built. InvalidArgument on a
  /// malformed or duplicate name; Unavailable when shutting down. Must
  /// not be called from a host-pool worker thread.
  Status CreateIndex(const std::string& name, const HostMatrix& target,
                     double weight = 1.0);

  /// Removes a named index. In-flight and queued requests naming it
  /// complete with NotFound; its shards die with the last reference.
  /// The default tenant cannot be dropped.
  Status DropIndex(const std::string& name);

  /// Live index names, lexicographic (always includes "default").
  std::vector<std::string> ListIndexes() const;

  /// Updates a tenant's fair-share weight (takes effect on the next
  /// scheduler round). NotFound when unknown.
  Status SetIndexWeight(const std::string& name, double weight);

  // -- Queries --------------------------------------------------------

  /// The exact k nearest target rows of one query point. Every `mode`
  /// is served exactly — approximate requests batch, cache, and answer
  /// identically to exact ones (docs/approx.md). Targets opts.tenant
  /// (NotFound when unknown) and honors opts.timeout (kDeadlineExceeded
  /// when it expires in the queue). InvalidArgument when the point does
  /// not have the tenant's dims or k <= 0. Thread-safe; blocks until the
  /// request's micro-batch has been served (or a cache hit answers
  /// immediately). Returns Unavailable — without aborting and without
  /// side effects — if the request raced a concurrent Shutdown() (counted
  /// in stats().rejected_requests) or was shed by the max_queue_depth
  /// bound (counted in stats().shed_requests).
  Result<std::vector<Neighbor>> Search(
      const std::vector<float>& query_point, int k,
      const ann::SearchMode& mode = ann::SearchMode::Exact(),
      const CallOptions& opts = {});

  /// The k nearest target rows for every row of `queries`, as one
  /// request (the rows always ride in the same micro-batch and the row
  /// order is preserved). Same modes, options, and failures as Search,
  /// plus InvalidArgument for an empty batch.
  Result<KnnResult> JoinBatch(
      const HostMatrix& queries, int k,
      const ann::SearchMode& mode = ann::SearchMode::Exact(),
      const CallOptions& opts = {});

  /// Every live point within the closed ball of each query row, as one
  /// request through the admission queue (variable-cardinality rows;
  /// see common/range_result.h). Answers are bit-identical across
  /// routes, SIMD tiers, and shard counts. Thread-safe; blocks
  /// until served; Unavailable on shutdown/shed and InvalidArgument on a
  /// malformed batch like JoinBatch, and InvalidArgument for a negative
  /// radius.
  Result<RangeResult> RadiusSearch(const HostMatrix& queries, float radius,
                                   const CallOptions& opts = {});

  // -- Offline jobs (docs/modalities.md) ------------------------------
  // Thin forwards to the front-end's job engine (FrontEnd::SubmitJob and
  // friends), after resolving the tenant: NotFound for an unknown one.

  Result<uint64_t> SubmitJob(const JobSpec& spec);
  Result<JobProgress> PollJob(uint64_t job_id) const;
  Status CancelJob(uint64_t job_id);
  Result<JobOutput> TakeJobResult(uint64_t job_id);
  Result<std::vector<SelfJoinPair>> SelfJoin(float radius,
                                             const CallOptions& opts = {});
  Result<JobOutput> KnnGraph(int k, const CallOptions& opts = {});

  // -- Mutations ------------------------------------------------------

  /// Adds a point to the serving set; returns its stable id. The point
  /// is served exactly from the next admitted query group on.
  /// Thread-safe; never blocks on a compaction. Returns Unavailable
  /// when racing a Shutdown(), InvalidArgument when the point does not
  /// have the tenant's dims.
  Result<uint32_t> Insert(const std::vector<float>& point,
                          const CallOptions& opts = {});

  /// Insert for many rows under one lock acquisition; returns their
  /// stable ids in row order. InvalidArgument for an empty batch.
  Result<std::vector<uint32_t>> InsertBatch(const HostMatrix& points,
                                            const CallOptions& opts = {});

  /// Deletes the point with this stable id. Returns true if it was
  /// live, false if unknown or already removed; Unavailable when racing
  /// a Shutdown(). Removing every point is allowed — queries then
  /// answer all padding.
  Result<bool> Remove(uint32_t id, const CallOptions& opts = {});

  /// Synchronously folds one shard's overlay into a freshly clustered
  /// base (same protocol as the background compactor: capture under the
  /// lock, rebuild off-lock, install behind the in-flight group).
  /// Returns Unavailable if a competing compaction or swap superseded
  /// the rebuild; Ok when installed or when there was nothing to do;
  /// InvalidArgument for a shard index out of range.
  Status CompactShard(int shard);
  Status CompactShard(const std::string& tenant, int shard);
  /// CompactShard over every shard, stopping at the first error.
  Status CompactAll();
  Status CompactAll(const std::string& tenant);

  /// Rejects new requests and mutations, drains everything already
  /// admitted, and joins the dispatcher and the compactor. Idempotent;
  /// also run by the destructor. Every future admitted before the
  /// shutdown still resolves with its answer.
  void Shutdown();

  /// Persists every tenant's shards into `dir` (created if missing):
  /// the default tenant's as "shard-<s>-of-<n>.sksnap" at the root —
  /// byte-identical to the single-tenant layout — and each named
  /// tenant's under "<dir>/<tenant>/". Waits for in-flight micro-
  /// batches per tenant; safe to call while clients keep submitting.
  Status SaveSnapshots(const std::string& dir);
  /// Persists one tenant's shards into `dir` (at the root).
  Status SaveSnapshots(const std::string& tenant, const std::string& dir);

  /// Hot-swap: loads a complete shard set from `dir` (v1 or v2),
  /// re-materializes the replacement engines off to the side, then
  /// swaps them in behind the in-flight micro-batch, bumps the index
  /// generation, and clears the result cache. Every request is answered
  /// entirely by one index generation — never a mix — and answers
  /// computed against the old generation can never repopulate the cache
  /// after the swap. Pending (uncompacted) mutations of the old
  /// generation are replaced wholesale along with it. The set must have
  /// the tenant's shard count, dims, and the service's options/device
  /// fingerprints; on any failure the live index stays untouched and
  /// the error is returned. Must not be called from a host-pool worker
  /// thread (it runs its own fork-join region).
  Status SwapIndex(const std::string& dir);
  Status SwapIndex(const std::string& tenant, const std::string& dir);

  /// The cumulative counters: a read-only view over the registry.
  ServiceStats stats() const;

  /// The service's metrics registry: latency histograms (queue wait,
  /// batch assembly, shard fan-out, merge, end-to-end), per-stage
  /// simulated-time counters, adaptive-decision counts,
  /// mutation/compaction counters, and the per-tenant labeled series
  /// (sweetknn_tenant_*{tenant="x"}). See docs/serving.md, "Metrics".
  const common::MetricsRegistry& metrics() const { return metrics_; }
  /// Registry exports with the queue-depth/peak/tenant-count gauges
  /// refreshed first. The queue-depth gauge is computed from the live
  /// scheduler size at export time only — it is never Set on the
  /// submit/dispatch paths, where two racing writers used to be able
  /// to publish a stale depth.
  std::string ExportMetricsJson() const;
  std::string ExportMetricsText() const;

  /// Test-only: invoked on the client thread after a cache-miss Search
  /// has computed its answer, immediately before the result-cache
  /// insert. Set it before any traffic; used to force the
  /// swap-vs-insert interleaving deterministically.
  void SetPreCacheInsertHookForTest(std::function<void()> hook) {
    pre_cache_insert_hook_ = std::move(hook);
  }

  /// Test-only: see FrontEnd::SetPreDispatchHookForTest.
  void SetPreDispatchHookForTest(std::function<void()> hook) {
    front_end_.SetPreDispatchHookForTest(std::move(hook));
  }

  /// The route of kNN groups dispatched from now on (the live switch of
  /// ServiceConfig::route; the registry's sweetknn_planner_* series
  /// count each shard scan under its route). Thread-safe.
  void set_route(core::QueryRoute route) { front_end_.set_route(route); }

  /// Shards of the default tenant (named tenants may clamp lower).
  int num_shards() const { return config_.num_shards; }
  /// Live rows of the default tenant: base minus tombstones plus delta.
  size_t target_rows() const;
  /// Live rows of a named tenant; NotFound when unknown.
  Result<size_t> target_rows(const std::string& tenant) const;
  size_t dims() const { return dims_; }
  const ServiceConfig& config() const { return config_; }

 private:
  /// No active compaction on this shard.
  static constexpr size_t kNoCompaction = core::ShardHost::kNoCompaction;

  /// The per-shard state lives in the transport-free core::ShardHost
  /// (core/shard_host.h) so the in-process backend here, the
  /// shard-worker processes (serve/shard_worker.h) and SweetKnnIndex
  /// host the identical object — queries answered locally and over a
  /// socket run the same code against the same state.
  using Shard = core::ShardHost;

  /// Snapshot-set adoption (FromSnapshots).
  struct AdoptTag {};
  KnnService(AdoptTag, std::vector<store::IndexSnapshot> snapshots,
             const ServiceConfig& config);

  /// Registers the service's own series (index, mutation, cache) and
  /// caches the pointers; the front-end registers the rest.
  void InitMetrics();
  /// Publishes the constructor's default tenant, then starts the
  /// front-end and (if configured) the compactor.
  void Open(std::shared_ptr<TenantIndex> tenant);

  /// "<snapshot_dir>/<name>/" for named tenants, the root for the
  /// default tenant, "" when snapshots are not configured.
  std::string TenantSnapshotDir(const std::string& name) const;

  /// The tenant, or NotFound. Never nullptr on Ok.
  Result<std::shared_ptr<TenantIndex>> ResolveTenant(
      const std::string& name) const;

  /// A shard-less tenant with its snapshot directory and labeled series
  /// (the front-end's request series plus the live-rows gauge).
  std::shared_ptr<TenantIndex> NewTenant(const std::string& name,
                                         size_t dims, int num_shards);
  /// Builds a complete tenant off to the side: contiguous slices,
  /// per-shard engines (warm from its snapshot directory when it
  /// matches, cold otherwise), id allocator, labeled metrics. Publishing
  /// it is the caller's job (IndexManager::Install + scheduler weight).
  std::shared_ptr<TenantIndex> BuildTenant(const std::string& name,
                                           const HostMatrix& target);

  // ShardTransport: the in-process fan-out over the host pool.
  Status SearchGroup(const TenantIndex& tenant, const HostMatrix& queries,
                     int k, core::QueryRoute route,
                     std::vector<core::ShardAnswer>* answers,
                     double* fanout_seconds) override;
  Status RangeGroup(const TenantIndex& tenant, const HostMatrix& queries,
                    float radius,
                    std::vector<core::RangeShardAnswer>* answers,
                    double* fanout_seconds) override;
  /// Per-shard ShardHost::ExportLive under the tenant's index mutex,
  /// merged off the lock.
  Status ExportLive(const TenantIndex& tenant, std::vector<uint32_t>* ids,
                    HostMatrix* points) override;

  /// The background compactor: sleeps until a mutation pushes some shard
  /// over the threshold (or Shutdown), then rebuilds candidates one at a
  /// time across every tenant.
  void CompactorLoop();
  /// First over-threshold shard of this tenant with no compaction in
  /// flight, or -1.
  int PickCompactionCandidate(TenantIndex* tenant);
  /// Capture -> rebuild (off-lock) -> install for one shard. See
  /// docs/mutability.md for the protocol.
  Status CompactShardInternal(TenantIndex* tenant, int s);
  /// Overlay fraction check for one shard. Caller holds the tenant's
  /// index mutex.
  bool OverThreshold(const Shard& shard) const;
  /// Wakes the compactor if `shard` warrants it. Caller holds the
  /// owning tenant's index mutex.
  void MaybeScheduleCompaction(const Shard& shard);
  /// Shard of `tenant` owning stable id `id`, or -1. Caller holds the
  /// tenant's index mutex.
  int OwningShard(const TenantIndex& tenant, uint32_t id) const;
  /// Marks answers computed before now as stale for the cache; the
  /// clear runs separately (ClearCache) after the index lock drops.
  void BumpCacheEpoch();
  void ClearCache();
  /// Mirrors one tenant's overlay sizes into its atomics and per-tenant
  /// gauge. Caller holds the tenant's index mutex.
  void UpdateOverlayGaugesLocked(TenantIndex* tenant);
  /// Re-sums the cross-tenant overlay gauges from the atomics (no
  /// index mutex needed).
  void RefreshGlobalOverlayGauges();

  /// Loads and fully validates "<dir>/shard-<s>-of-<num_shards>.sksnap"
  /// for every shard (files read in parallel on the host pool): shard
  /// geometry, dims (0 = adopt the files' dims), and the options/device
  /// fingerprints of `config`. Pristine sets must tile the target
  /// contiguously; sets with mutation overlays (only accepted when
  /// `allow_overlay`) are instead checked for globally unique stable
  /// ids. Nothing about the live service changes.
  static Result<std::vector<store::IndexSnapshot>> LoadShardSet(
      const std::string& dir, int num_shards, const ServiceConfig& config,
      size_t dims, bool allow_overlay);

  /// A replacement shard set materialized off to the side, ready to
  /// install. Epochs are assigned at install time (under the tenant's
  /// index mutex).
  struct ShardSet {
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<uint32_t> offsets;
    size_t live_rows = 0;
    uint32_t next_id = 0;
  };
  /// Materializes shards from validated snapshots (RestoreBase in
  /// parallel on the host pool). Touches nothing of the live service.
  ShardSet BuildShardsFromSnapshots(
      std::vector<store::IndexSnapshot> snapshots) const;

  /// Exports one shard of `tenant`, normalizing the overlay (delta
  /// entries tombstoned mid-compaction are dropped outright). Caller
  /// holds the tenant's index mutex.
  store::IndexSnapshot ExportShard(const TenantIndex& tenant, int s) const;

  Status SaveTenantSnapshots(TenantIndex* tenant, const std::string& dir);
  Status SwapIndexInternal(TenantIndex* tenant, const std::string& dir);

  // LRU result cache (single-row Search results), guarded by cache_mutex_
  // and shared across tenants. Keys are tenant-prefixed, so two tenants'
  // answers for the same point bytes never collide. Every mode is served
  // exactly, so keys carry none.
  static std::string CacheKey(const std::string& tenant, const float* row,
                              size_t dims, int k);
  bool CacheLookup(const std::string& key, std::vector<Neighbor>* out);
  /// Inserts unless `epoch` (captured before the query ran) is no
  /// longer the live cache epoch — a swap, mutation, or compaction
  /// completed in between, and the value would resurrect stale
  /// neighbors into the fresh cache.
  void CacheInsert(const std::string& key, std::vector<Neighbor> value,
                   uint64_t epoch);

  ServiceConfig config_;
  size_t dims_ = 0;  ///< Default tenant's dims (legacy accessor).

  /// The named indexes. Each TenantIndex carries its own index mutex
  /// (the per-tenant successor of the old service-wide index_mutex_).
  IndexManager manager_;
  /// The constructor's tenant; pinned so the legacy single-tenant API
  /// never pays a map lookup.
  std::shared_ptr<TenantIndex> default_tenant_;

  /// Source of shard epochs (see Shard::epoch), shared by every tenant.
  std::atomic<uint64_t> epoch_counter_{0};
  /// Bumped by every completed SwapIndex; surfaced as a gauge.
  std::atomic<uint64_t> index_generation_{0};
  /// Bumped by every index change that invalidates computed answers:
  /// swaps, mutations, compaction installs, drops. Cache inserts tagged
  /// with an older epoch are dropped (see CacheInsert).
  std::atomic<uint64_t> cache_epoch_{0};

  common::MetricsRegistry metrics_;
  // Cached registry pointers (stable for the registry's lifetime).
  common::Counter* m_cache_lookups_ = nullptr;
  common::Counter* m_cache_hits_ = nullptr;
  common::Counter* m_cache_stale_drops_ = nullptr;
  common::Counter* m_warm_started_shards_ = nullptr;
  common::Counter* m_index_swaps_ = nullptr;
  common::Counter* m_inserts_ = nullptr;
  common::Counter* m_removes_ = nullptr;
  common::Counter* m_remove_misses_ = nullptr;
  common::Counter* m_compactions_ = nullptr;
  common::Counter* m_compaction_aborts_ = nullptr;
  common::Counter* m_compacted_rows_ = nullptr;
  common::Histogram* m_compaction_seconds_ = nullptr;
  common::Gauge* m_tenants_ = nullptr;
  common::Gauge* m_index_generation_ = nullptr;
  common::Gauge* m_delta_points_ = nullptr;
  common::Gauge* m_tombstones_ = nullptr;
  common::Gauge* m_live_rows_ = nullptr;

  /// Declared after metrics_, which it registers into.
  FrontEnd front_end_;

  /// Compactor wake-up state. compact_mutex_ may be taken while holding
  /// a tenant's index mutex (mutations scheduling work), never the
  /// reverse — the compactor drops it before touching any index.
  std::mutex compact_mutex_;
  std::condition_variable compact_cv_;
  bool compact_pending_ = false;
  bool compactor_stop_ = false;
  std::thread compactor_;
  /// Set by Shutdown before the queue closes; mutations check it.
  std::atomic<bool> stopping_{false};

  std::function<void()> pre_cache_insert_hook_;

  std::mutex cache_mutex_;
  std::list<std::string> lru_;  // front = most recent
  struct CacheEntry {
    std::list<std::string>::iterator lru_pos;
    std::vector<Neighbor> neighbors;
  };
  std::unordered_map<std::string, CacheEntry> cache_;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_KNN_SERVICE_H_
