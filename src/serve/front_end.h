#ifndef SWEETKNN_SERVE_FRONT_END_H_
#define SWEETKNN_SERVE_FRONT_END_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ann/knn_graph.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/metrics.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/options.h"
#include "core/range_search.h"
#include "core/shard_merge.h"
#include "gpusim/device.h"
#include "serve/index_manager.h"
#include "serve/scheduler.h"

namespace sweetknn::serve {

/// Knobs of the serving layer.
struct ServiceConfig {
  /// Target-set shards per index, each a core::ShardHost with its own
  /// host image and simulated device. Clamped per index to its target
  /// row count.
  int num_shards = 2;
  /// Micro-batching: the dispatcher drains one tenant's queued requests
  /// into a batch while it holds fewer than this many query rows, and
  /// closes the batch when the queue runs dry; it never waits.
  int max_batch_size = 64;
  /// Ignored; kept only so e2ebench/e2e_bench.cc, which assigns it, compiles.
  std::chrono::microseconds max_batch_wait{0};
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
  /// The route of every exact kNN group's per-shard base scan: the
  /// shard's simulated-GPU TI engine or the host route's TI scan
  /// (docs/performance.md). Both routes answer bit-identically;
  /// host-routed shard runs report no simulated-device stats (sim-time
  /// counters, filter/placement decisions), so tests asserting those
  /// set kDevice. KnnService::set_route switches it live. Range groups
  /// take no route: every shard runs its TI range scan on the host.
  core::QueryRoute route = core::QueryRoute::kHost;
  /// Ignored; kept only so e2ebench/e2e_bench.cc, which assigns it,
  /// compiles. Every search mode is served exactly (docs/approx.md).
  bool enable_ann = false;
  /// Ignored by the service, like enable_ann; e2ebench/e2e_bench.cc
  /// passes it to its ann::BuildKnnGraph probe.
  ann::GraphBuildParams ann_params;
};

/// The three offline modalities both backends run as long-running jobs
/// (docs/modalities.md). Radius jobs carry their own query rows;
/// self-join and kNN-graph jobs run over the tenant's live set as
/// snapshotted at job start.
enum class JobKind { kRadiusSearch, kSelfJoin, kKnnGraph };

/// Job lifecycle: kPending (queued behind earlier jobs) -> kRunning ->
/// one of kDone / kCancelled / kFailed. CancelJob flips the cancel
/// flag; the job thread honors it between chunks, so a cancel lands
/// within one chunk's worth of work.
enum class JobState { kPending, kRunning, kDone, kCancelled, kFailed };

/// What SubmitJob takes. `chunk_rows` bounds how many query rows each
/// admitted chunk carries — chunks ride the same weighted-fair admission
/// queue as point lookups, so a job never monopolizes the dispatcher
/// and a mid-job CancelJob takes effect at the next chunk boundary.
struct JobSpec {
  JobKind kind = JobKind::kRadiusSearch;
  /// Closed-ball radius (kRadiusSearch / kSelfJoin).
  float radius = 0.0f;
  /// Neighbors per node (kKnnGraph).
  int k = 0;
  /// Query rows (kRadiusSearch only; the other kinds query the live set).
  HostMatrix queries;
  /// Query rows per admitted chunk (clamped to >= 1).
  size_t chunk_rows = 64;
  std::string tenant = kDefaultTenant;
};

/// PollJob's answer.
struct JobProgress {
  JobState state = JobState::kPending;
  uint64_t total_rows = 0;  ///< Query rows the job will run.
  uint64_t done_rows = 0;   ///< Query rows completed so far.
  std::string error;        ///< Set when state == kFailed.
};

/// A finished job's result (TakeJobResult). Which fields are populated
/// depends on the kind; `query_ids` gives the stable id behind each
/// result row for the live-set kinds.
struct JobOutput {
  JobKind kind = JobKind::kRadiusSearch;
  /// kSelfJoin / kKnnGraph: stable ids of the snapshot rows, ascending.
  std::vector<uint32_t> query_ids;
  /// kRadiusSearch: row q = matches of input query q.
  RangeResult range;
  /// kSelfJoin: each unordered live pair within the radius exactly once
  /// (a < b), ascending (a, distance, b).
  std::vector<SelfJoinPair> pairs;
  /// kKnnGraph: row i = exact k nearest live points of query_ids[i],
  /// excluding itself.
  KnnResult graph;
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
  /// Micro-batches dispatched by the batching loop (one per drain of a
  /// tenant's queue, regardless of how many distinct k values it held).
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
/// (Router), both running the transport-free core::ShardHost code. Each
/// method answers one request of one tenant against one index state
/// (never straddling a mutation, install, swap, or failover); a non-Ok
/// status fails the whole request. The group methods are called from the
/// dispatcher thread only, ExportLive from the job thread.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Every shard's answer to one same-k group, indexed by shard, each
  /// base scan on `route`. `fanout_seconds` is the fan-out's
  /// wall-clock, without lock wait.
  virtual Status SearchGroup(const TenantIndex& tenant,
                             const HostMatrix& queries, int k,
                             core::QueryRoute route,
                             std::vector<core::ShardAnswer>* answers,
                             double* fanout_seconds) = 0;

  /// Range answers that pool into each query row's global in-ball set
  /// (per shard).
  virtual Status RangeGroup(const TenantIndex& tenant,
                            const HostMatrix& queries, float radius,
                            std::vector<core::RangeShardAnswer>* answers,
                            double* fanout_seconds) = 0;

  /// The tenant's live points and their stable ids, globally ascending
  /// by id: the query source of the live-set jobs.
  virtual Status ExportLive(const TenantIndex& tenant,
                            std::vector<uint32_t>* ids,
                            HostMatrix* points) = 0;
};

/// Argument checks of the client entry points both backends share
/// (Search, JoinBatch, RadiusSearch, Insert), run before a request
/// touches a queue or an index, so a malformed call returns
/// InvalidArgument instead of aborting the serving process — the answers
/// a shard worker gives the same inputs on the wire. `what` names the
/// call in the message. CheckPoints: at least one row, of `dims` columns.
Status CheckPoints(const char* what, size_t rows, size_t cols, size_t dims);
/// k > 0.
Status CheckK(const char* what, int k);
/// radius >= 0 (NaN fails).
Status CheckRadius(const char* what, float radius);

/// Pools per-part live exports (core::ShardHost::ExportLive of each
/// shard, or of each worker over its shards) into one globally ascending
/// stable-id order: parts interleave in id space (inserts route by
/// id % S). Both transports' ExportLive end here.
void MergeLiveExports(const std::vector<std::vector<uint32_t>>& part_ids,
                      const std::vector<HostMatrix>& part_points, size_t dims,
                      std::vector<uint32_t>* ids, HostMatrix* points);

/// The serving front-end both backends own: weighted-fair admission
/// (shedding, deadlines, dropped tenants), micro-batching, k and radius
/// grouping, the kNN route, the exact merge of the transport's answers,
/// per-request slicing, the offline-job engine, and the
/// request/stage/route/job series. Every public method is thread-safe;
/// one dispatcher thread drains the scheduler and calls the transport
/// with no front-end lock held.
class FrontEnd {
 public:
  /// Registers its series on `metrics`; both pointers outlive it.
  FrontEnd(const ServiceConfig& config, ShardTransport* transport,
           common::MetricsRegistry* metrics);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Starts the dispatcher and the job thread.
  void Start();
  /// Fails queued and running jobs, rejects new requests, serves
  /// everything already admitted, and joins both threads. Idempotent.
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
                        std::chrono::microseconds timeout);
  /// The range twin of Knn: groups on radius instead of k.
  Result<RangeResult> Range(std::shared_ptr<TenantIndex> tenant,
                            std::vector<float> rows, size_t num_rows,
                            float radius, std::chrono::microseconds timeout);

  /// Counts a one-row request the result cache answered.
  void CountCacheHit(TenantIndex* tenant, double seconds);

  /// The route of kNN groups dispatched from now on (the live switch of
  /// ServiceConfig::route; tests and the fuzz harnesses flip it).
  void set_route(core::QueryRoute route) { route_.store(route); }

  // -- Offline jobs (docs/modalities.md) ------------------------------
  // The backends resolve spec.tenant / CallOptions::tenant and forward.

  /// Enqueues a long-running job on `tenant`; returns its id at once.
  /// Jobs run one at a time on the job thread, chunked through the same
  /// weighted-fair admission queue as point lookups. Unavailable when
  /// shut down; InvalidArgument on a malformed spec (kRadiusSearch
  /// without queries or with the wrong dims, a negative radius, kKnnGraph
  /// with k <= 0).
  Result<uint64_t> SubmitJob(std::shared_ptr<TenantIndex> tenant,
                             const JobSpec& spec);
  /// The job's state and progress. NotFound for an unknown (or already
  /// taken) id.
  Result<JobProgress> PollJob(uint64_t job_id) const;
  /// Requests cancellation. Takes effect at the next chunk boundary
  /// (kPending jobs cancel before running at all); terminal jobs are
  /// left as they ended. NotFound for an unknown id.
  Status CancelJob(uint64_t job_id);
  /// Takes any terminal job and erases it (poll/take of the id fail with
  /// NotFound afterwards): a kDone job's output, or why it has none.
  /// InvalidArgument while the job is pending or running.
  Result<JobOutput> TakeJobResult(uint64_t job_id);
  /// Synchronous self-join (submit + wait + take): every unordered live
  /// pair within the closed radius, exactly once (a < b).
  Result<std::vector<SelfJoinPair>> SelfJoin(
      std::shared_ptr<TenantIndex> tenant, float radius);
  /// Synchronous exact kNN graph over the live set: output.query_ids
  /// pairs with output.graph rows.
  Result<JobOutput> KnnGraph(std::shared_ptr<TenantIndex> tenant, int k);

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
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point admit_time;
    std::promise<Result<KnnResult>> promise;
    /// Range requests (is_range) group on radius instead of k and
    /// resolve range_promise; k/promise are unused for them.
    bool is_range = false;
    float radius = 0.0f;
    std::promise<Result<RangeResult>> range_promise;
  };
  using RequestPtr = std::unique_ptr<Request>;

  /// One queued/running offline job (jobs_mutex_ guards everything but
  /// `cancel`, and the job thread's private use of `output` while
  /// kRunning).
  struct Job {
    uint64_t id = 0;
    JobSpec spec;
    std::shared_ptr<TenantIndex> tenant;
    JobState state = JobState::kPending;
    uint64_t total_rows = 0;
    uint64_t done_rows = 0;
    std::string error;
    /// The status that killed a kFailed job (the synchronous wrappers
    /// propagate it verbatim).
    Status fail_status = Status::Ok();
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point submit_time;
    JobOutput output;
  };

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
  /// Runs one same-k group through the transport, merges, and fulfills
  /// its promises; RunRangeGroup is the radius twin.
  void RunGroup(std::vector<RequestPtr> group);
  void RunRangeGroup(std::vector<RequestPtr> group);
  /// Counts one shard scan under its route.
  void ObserveRoute(core::QueryRoute route, double seconds);
  void ObserveLatency(const Request& request);
  /// Folds one group's shard answers, each scanned on `route`, into the
  /// registry: every shard counts under its route, and host-routed
  /// shards ran no device, so they add no sim time or decisions — only
  /// their host-scan work counter.
  void RecordGroupStats(const std::vector<core::ShardAnswer>& answers,
                        core::QueryRoute route, size_t rows);

  /// The job thread: runs queued jobs one at a time; at shutdown fails
  /// what is still pending.
  void JobLoop();
  /// Executes one job end to end (live-set export, chunk loop, cancel
  /// and shutdown checks) with no lock held; publishes progress and the
  /// terminal state under jobs_mutex_.
  void RunJob(Job* job);
  /// Marks the job terminal and updates the job series.
  void FinishJob(Job* job, JobState state, Status status = Status::Ok());
  /// Jobs pending or running. Caller holds jobs_mutex_.
  size_t ActiveJobsLocked() const;
  /// A taken terminal job's output (kDone) or why it has none.
  static Result<JobOutput> JobOutcome(Job* job);
  /// Blocks until the job is terminal, then takes it — the synchronous
  /// wrappers' tail.
  Result<JobOutput> WaitAndTake(uint64_t job_id);

  const ServiceConfig config_;
  ShardTransport* const transport_;
  common::MetricsRegistry* const metrics_;
  FairScheduler<RequestPtr> queue_;
  /// Read once per kNN group by the dispatcher.
  std::atomic<core::QueryRoute> route_;

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
  common::Counter* m_host_distance_calcs_ = nullptr;
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
  common::Gauge* m_queue_depth_ = nullptr;
  common::Gauge* m_peak_queue_depth_ = nullptr;
  common::Counter* m_jobs_submitted_ = nullptr;
  common::Counter* m_jobs_completed_ = nullptr;
  common::Counter* m_jobs_cancelled_ = nullptr;
  common::Counter* m_jobs_failed_ = nullptr;
  common::Histogram* m_job_seconds_ = nullptr;
  common::Gauge* m_active_jobs_ = nullptr;

  /// Offline-job state. jobs_mutex_ is a leaf lock: never held while
  /// admitting a chunk or calling the transport. `jobs_stop_` is written
  /// under it and read lock-free at chunk boundaries.
  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::unordered_map<uint64_t, std::unique_ptr<Job>> jobs_;
  std::deque<uint64_t> pending_jobs_;  // FIFO by submit order
  uint64_t next_job_id_ = 1;
  std::atomic<bool> jobs_stop_{false};

  /// Declared last: they use every member above.
  std::thread dispatcher_;
  std::thread job_thread_;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_FRONT_END_H_
