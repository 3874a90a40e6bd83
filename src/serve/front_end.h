#ifndef SWEETKNN_SERVE_FRONT_END_H_
#define SWEETKNN_SERVE_FRONT_END_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ann/search_mode.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/metrics.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/options.h"
#include "core/range_search.h"
#include "core/route_planner.h"
#include "core/shard_merge.h"
#include "gpusim/device.h"
#include "serve/index_manager.h"
#include "serve/scheduler.h"

namespace sweetknn::serve {

/// Knobs of the serving layer.
struct ServiceConfig {
  /// Target-set shards per index, each a simulated device with its own
  /// prepared TiKnnEngine index. Clamped per index to its target row
  /// count.
  int num_shards = 2;
  /// Micro-batching: the dispatcher coalesces admitted requests of one
  /// tenant until a batch holds this many query rows ...
  int max_batch_size = 64;
  /// ... or this much wall-clock has passed since the batch's first
  /// request, whichever comes first.
  std::chrono::microseconds max_batch_wait{500};
  /// LRU result-cache entries, keyed on (tenant, k, query row bytes).
  /// 0 = off. Serves single-row Search() requests only.
  size_t cache_capacity = 0;
  /// Load shedding: total admitted-but-undispatched requests, summed
  /// over every tenant, beyond which Search/JoinBatch are bounced with
  /// kUnavailable instead of growing the queue (and its tail latency)
  /// without limit. Shed requests are counted in stats().shed_requests
  /// and the sweetknn_shed_requests_total counter. 0 = unbounded (the
  /// legacy behavior).
  size_t max_queue_depth = 0;
  /// Cost units (query rows) a weight-1.0 tenant earns per round of the
  /// weighted-fair scheduler (see serve/scheduler.h). 0 = use
  /// max_batch_size, so one round roughly funds one micro-batch.
  size_t fair_quantum = 0;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::TeslaK20c();
  core::TiOptions options = core::TiOptions::Sweet();
  /// If non-empty, warm start: restore each shard's prepared index from
  /// "<snapshot_dir>/shard-<s>-of-<n>.sksnap" instead of running the
  /// Step-1 landmark clustering. The snapshots must match the service's
  /// options/device fingerprints, shard geometry, and the target bytes
  /// passed to the constructor (which also means they must be pristine —
  /// adopt mutated snapshots with FromSnapshots instead); on any
  /// mismatch or load failure the service logs a warning and cold-builds
  /// every shard (check stats().warm_started_shards to see which path
  /// ran). Named tenants created with CreateIndex warm-start from
  /// "<snapshot_dir>/<tenant>/" the same way.
  std::string snapshot_dir;
  /// Dataset name recorded as provenance in snapshots written by
  /// SaveSnapshots.
  std::string dataset_name;
  /// Mutability (docs/mutability.md): a shard is scheduled for
  /// compaction once its overlay (delta points + tombstones) exceeds
  /// this fraction of its frozen base rows. <= 0 disables the threshold
  /// (CompactShard/CompactAll stay available).
  double compact_delta_fraction = 0.25;
  /// Run the background compactor thread, which rebuilds over-threshold
  /// shards off the serving path. false = compaction happens only via
  /// explicit CompactShard/CompactAll calls (deterministic; tests use
  /// this).
  bool auto_compact = true;
  /// Cost-based routing of each query group's per-shard base scan
  /// between the shard's simulated-GPU TI engine and the vectorized
  /// host kernels (docs/performance.md). Both routes answer bit-
  /// identically; host-routed shard runs report no simulated-device
  /// stats (sim-time counters, filter/placement decisions), so tests
  /// asserting those pin mode = kForceDevice. SWEETKNN_PLANNER
  /// ("auto" | "device" | "host") overrides the mode at construction.
  core::PlannerConfig planner;
  /// Build the approximate kNN-graph tier on every shard (and rebuild it
  /// at each compaction install), enabling SearchMode::Approx requests
  /// (docs/approx.md). Exact traffic — and every service built without
  /// this — is completely unaffected.
  bool enable_ann = false;
  /// NN-descent build knobs for the ANN tier. When ann_params.workers
  /// is 0, graph builds use options.sim_threads (the service's
  /// configured parallelism) before falling back to SWEETKNN_SIM_THREADS.
  ann::GraphBuildParams ann_params;
  /// Recall self-measurement: every Nth approx group is also answered
  /// exactly (under the same lock, against the same index state) and the
  /// observed recall@k lands in the sweetknn_ann_recall_estimate
  /// histogram. 0 disables the probe; small N is for tests/benchmarks —
  /// each probe costs one exact group.
  int ann_recall_probe_interval = 0;
};

/// Per-call options of every query and mutation entry point; the
/// defaulted CallOptions{} means the default tenant and no deadline.
struct CallOptions {
  /// The named index the call targets (see CreateIndex). Unknown names
  /// fail with NotFound.
  std::string tenant = kDefaultTenant;
  /// Queries only: relative deadline, measured from admission. A
  /// request still queued when it expires completes with
  /// kDeadlineExceeded without ever touching the shards. 0 = none.
  std::chrono::microseconds timeout{0};
};

/// Service-level counters, all cumulative since construction: a
/// read-only view over the metrics registry (FrontEnd::Stats), which
/// also carries the richer view — latency histograms, per-stage sim
/// time, compaction timings, and the per-tenant labeled series.
struct ServiceStats {
  uint64_t requests = 0;        ///< Search/JoinBatch calls admitted.
  uint64_t queries = 0;         ///< Query rows answered (incl. cache hits).
  /// Search/JoinBatch calls rejected because the service was shutting
  /// down (never admitted, not counted in requests).
  uint64_t rejected_requests = 0;
  /// Search/JoinBatch calls bounced with kUnavailable by the
  /// max_queue_depth admission bound (never admitted).
  uint64_t shed_requests = 0;
  /// Admitted requests whose deadline expired while queued; completed
  /// with kDeadlineExceeded without touching the shards.
  uint64_t deadline_exceeded = 0;
  /// Micro-batches dispatched by the batching loop (one per coalescing
  /// window, regardless of how many distinct k values it held).
  uint64_t batches = 0;
  /// Same-k groups run through the shard engines. A mixed-k micro-batch
  /// produces several engine groups, so engine_groups >= batches.
  uint64_t engine_groups = 0;
  uint64_t batched_queries = 0; ///< Query rows that went through engines.
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  /// Result-cache inserts dropped because an index swap, mutation, or
  /// compaction completed after the answer was computed (the
  /// stale-insert guard).
  uint64_t cache_stale_drops = 0;
  uint64_t peak_queue_depth = 0;  ///< Admission-queue high-water mark.
  /// Simulated device time summed over every shard of every batch (the
  /// throughput cost: total device-seconds consumed).
  double total_sim_time_s = 0.0;
  /// Per-batch max over shards, summed over batches (the latency cost:
  /// shards run concurrently, a batch completes with its slowest shard).
  double critical_sim_time_s = 0.0;
  /// Level-2 distance computations summed over shards.
  uint64_t distance_calcs = 0;
  /// Shards restored from snapshots at construction (0 = cold build).
  uint64_t warm_started_shards = 0;
  /// Completed SwapIndex calls.
  uint64_t index_swaps = 0;
  /// Points admitted through Insert/InsertBatch.
  uint64_t inserts = 0;
  /// Successful Remove calls.
  uint64_t removes = 0;
  /// Remove calls naming an id that was never live or already removed.
  uint64_t remove_misses = 0;
  /// Shard compactions installed (background or explicit).
  uint64_t compactions = 0;
  /// Compactions abandoned because a SwapIndex (or competing install)
  /// replaced the shard while the rebuild ran off-lock.
  uint64_t compaction_aborts = 0;
  /// Current overlay size, summed over every tenant's shards (gauges,
  /// not cumulative).
  uint64_t delta_points = 0;
  uint64_t tombstones = 0;
  /// Approximate tier: engine groups / query rows answered through the
  /// ANN graph search (a subset of engine_groups / batched_queries).
  uint64_t approx_groups = 0;
  uint64_t approx_queries = 0;
  /// Range modality: same-radius groups run through the shards, query
  /// rows in them, and in-ball matches returned.
  uint64_t range_groups = 0;
  uint64_t range_queries = 0;
  uint64_t range_matches = 0;
  /// Offline jobs by terminal state (submitted >= the other three +
  /// still-active jobs).
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_cancelled = 0;
  uint64_t jobs_failed = 0;

  /// Mean fraction of max_batch_size filled per dispatched micro-batch
  /// (> 1 is possible when one JoinBatch request exceeds max_batch_size).
  double BatchOccupancy(int max_batch_size) const {
    if (batches == 0 || max_batch_size <= 0) return 0.0;
    return static_cast<double>(batched_queries) /
           (static_cast<double>(batches) *
            static_cast<double>(max_batch_size));
  }
  double MeanBatchSize() const {
    if (batches == 0) return 0.0;
    return static_cast<double>(batched_queries) /
           static_cast<double>(batches);
  }
  /// Critical-path device time amortized over every batched query row —
  /// the number micro-batching drives down.
  double AmortizedSimTimePerQuery() const {
    if (batched_queries == 0) return 0.0;
    return critical_sim_time_s / static_cast<double>(batched_queries);
  }
};

/// Where a group's shards run — the one difference between the backends:
/// host-pool threads (KnnService) or shard-worker processes over RPC
/// (Router), both running the transport-free ShardHost code. Each method
/// answers one group of one tenant against one index state (never
/// straddling a mutation, install, swap, or failover); a non-Ok status
/// fails the whole group. Called from the dispatcher thread only.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Every shard's answer to one same-(k, mode) group, indexed by shard;
  /// `exact`, when non-null (the recall probe), also gets the exact
  /// answers from the same index state. `fanout_seconds` is the primary
  /// fan-out's wall-clock, without lock wait or probe.
  virtual Status SearchGroup(const TenantIndex& tenant,
                             const HostMatrix& queries, int k,
                             const ann::SearchMode& mode,
                             std::vector<core::ShardAnswer>* answers,
                             std::vector<core::ShardAnswer>* exact,
                             double* fanout_seconds) = 0;

  /// Range answers that pool into each query row's global in-ball set
  /// (per shard, or per host over its shards).
  virtual Status RangeGroup(const TenantIndex& tenant,
                            const HostMatrix& queries, float radius,
                            std::vector<core::RangeShardAnswer>* answers,
                            double* fanout_seconds) = 0;
};

/// The serving front-end both backends own: weighted-fair admission
/// (shedding, deadlines, dropped tenants), micro-batching, (k, mode) and
/// radius grouping, the exact merge of the transport's answers, the
/// recall probe, per-request slicing, and the request/stage series.
/// Knn/Range/CountCacheHit are thread-safe; one dispatcher thread drains
/// the scheduler and calls the transport with no front-end lock held.
class FrontEnd {
 public:
  /// Registers its series on `metrics`; both pointers outlive it.
  FrontEnd(const ServiceConfig& config, ShardTransport* transport,
           common::MetricsRegistry* metrics);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Starts the dispatcher thread.
  void Start();
  /// Rejects new requests, serves everything already admitted, and joins
  /// the dispatcher. Idempotent.
  void Shutdown();

  /// Registers the tenant's labeled request series (TenantLabel(name)).
  void RegisterTenant(TenantIndex* tenant);
  /// Scheduler weight of a tenant (creates its sub-queue).
  void SetWeight(const std::string& tenant, double weight);
  /// Lets the scheduler drop a removed tenant's empty sub-queue.
  void Forget(const std::string& tenant);

  /// Admits one kNN request of num_rows rows and blocks until served.
  /// Unavailable when shut down or shed (both counted); DeadlineExceeded
  /// when `timeout` (0 = none) expires in the queue; NotFound when the
  /// tenant is dropped meanwhile; else the transport's group status.
  Result<KnnResult> Knn(std::shared_ptr<TenantIndex> tenant,
                        std::vector<float> rows, size_t num_rows, int k,
                        const ann::SearchMode& mode,
                        std::chrono::microseconds timeout);
  /// The range twin of Knn: groups on radius instead of (k, mode).
  Result<RangeResult> Range(std::shared_ptr<TenantIndex> tenant,
                            std::vector<float> rows, size_t num_rows,
                            float radius, std::chrono::microseconds timeout);

  /// Counts a one-row request the result cache answered.
  void CountCacheHit(TenantIndex* tenant, double seconds);
  /// Records one planner route decision of a shard scan.
  void ObserveRoute(bool device_routed, double seconds);

  /// Every ServiceStats counter read from the registry by series name
  /// (absent series read 0), plus the peak queue depth; the overlay
  /// gauges are the backend's to fill.
  ServiceStats Stats() const;
  /// Sets the queue-depth gauges from the live scheduler — at export
  /// time only: racing writers on the hot path could publish stale depths.
  void RefreshGauges() const;

  /// Test-only: runs on the dispatcher thread after it dequeues each
  /// micro-batch's first request, with no lock held, so tests can park
  /// the dispatcher. Safe to set at any time.
  void SetPreDispatchHookForTest(std::function<void()> hook);

 private:
  struct Request {
    /// The index this request targets; pinned so a concurrent DropIndex
    /// can never pull the shards out from under a queued request.
    std::shared_ptr<TenantIndex> tenant;
    std::vector<float> rows;  ///< num_rows * dims query coordinates.
    size_t num_rows = 0;
    int k = 0;
    /// Normalized at admission, so grouping treats approx(recall 1.0)
    /// and exact as the same traffic.
    ann::SearchMode mode;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point admit_time;
    std::promise<Result<KnnResult>> promise;
    /// Range requests (is_range) group on radius instead of (k, mode)
    /// and resolve range_promise; k/mode/promise are unused for them.
    bool is_range = false;
    float radius = 0.0f;
    std::promise<Result<RangeResult>> range_promise;
  };
  using RequestPtr = std::unique_ptr<Request>;

  void InitMetrics();
  /// Queue submit + accounting; on Ok the request's future resolves (the
  /// dispatcher drains everything admitted before the close).
  Status Admit(RequestPtr request, std::chrono::microseconds timeout);
  void DispatchLoop();
  /// Resolves whichever promise the request carries with `status`.
  static void FailRequest(Request* request, Status status);
  /// Completes a popped request without touching the shards when its
  /// tenant was dropped (NotFound) or its deadline expired while queued
  /// (DeadlineExceeded). True = the request was consumed.
  bool FailFast(RequestPtr* request);
  /// Concatenates a group's query rows in admission order.
  static HostMatrix GatherRows(const std::vector<RequestPtr>& group);
  /// Runs one same-(k, mode) group through the transport, merges, and
  /// fulfills its promises; RunRangeGroup is the radius twin.
  void RunGroup(std::vector<RequestPtr> group);
  void RunRangeGroup(std::vector<RequestPtr> group);
  void ObserveLatency(const Request& request);
  /// Folds one group's shard answers into the registry; host-routed
  /// shards ran no device, so they add no sim time or decisions.
  void RecordGroupStats(const std::vector<core::ShardAnswer>& answers,
                        size_t rows);

  const ServiceConfig config_;
  ShardTransport* const transport_;
  common::MetricsRegistry* const metrics_;
  FairScheduler<RequestPtr> queue_;

  /// Approx groups seen by the dispatcher (recall-probe cadence).
  /// Dispatcher-thread only.
  uint64_t approx_group_counter_ = 0;

  /// Guarded by hook_mutex_ (the dispatcher copies it per batch, so a
  /// test may install it while traffic is flowing).
  std::mutex hook_mutex_;
  std::function<void()> pre_dispatch_hook_;

  // Cached registry pointers (stable for the registry's lifetime).
  common::Counter* m_requests_ = nullptr;
  common::Counter* m_queries_ = nullptr;
  common::Counter* m_rejected_ = nullptr;
  common::Counter* m_shed_requests_ = nullptr;
  common::Counter* m_deadline_exceeded_ = nullptr;
  common::Counter* m_batches_ = nullptr;
  common::Counter* m_engine_groups_ = nullptr;
  common::Counter* m_batched_queries_ = nullptr;
  common::Counter* m_distance_calcs_ = nullptr;
  common::Counter* m_sim_level1_ = nullptr;
  common::Counter* m_sim_level2_ = nullptr;
  common::Counter* m_sim_transfer_ = nullptr;
  common::Counter* m_sim_preprocess_ = nullptr;
  common::Counter* m_sim_total_ = nullptr;
  common::Counter* m_sim_critical_ = nullptr;
  common::Counter* m_filter_full_ = nullptr;
  common::Counter* m_filter_partial_ = nullptr;
  common::Counter* m_placement_global_ = nullptr;
  common::Counter* m_placement_shared_ = nullptr;
  common::Counter* m_placement_registers_ = nullptr;
  common::Counter* m_planner_device_routes_ = nullptr;
  common::Counter* m_planner_host_routes_ = nullptr;
  common::Histogram* m_route_device_seconds_ = nullptr;
  common::Histogram* m_route_host_seconds_ = nullptr;
  common::Histogram* m_threads_per_query_ = nullptr;
  common::Histogram* m_queue_wait_ = nullptr;
  common::Histogram* m_batch_assembly_ = nullptr;
  common::Histogram* m_shard_fanout_ = nullptr;
  common::Histogram* m_merge_ = nullptr;
  common::Histogram* m_request_latency_ = nullptr;
  common::Histogram* m_batch_rows_ = nullptr;
  common::Counter* m_range_groups_ = nullptr;
  common::Counter* m_range_queries_ = nullptr;
  common::Counter* m_range_matches_ = nullptr;
  common::Counter* m_approx_groups_ = nullptr;
  common::Counter* m_approx_queries_ = nullptr;
  common::Counter* m_ann_hops_ = nullptr;
  common::Counter* m_ann_candidates_ = nullptr;
  common::Counter* m_recall_probes_ = nullptr;
  common::Histogram* m_recall_estimate_ = nullptr;
  common::Gauge* m_queue_depth_ = nullptr;
  common::Gauge* m_peak_queue_depth_ = nullptr;

  /// Declared last: it uses every member above.
  std::thread dispatcher_;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_FRONT_END_H_
