#ifndef SWEETKNN_SERVE_ROUTER_H_
#define SWEETKNN_SERVE_ROUTER_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ann/search_mode.h"
#include "common/blocking_queue.h"
#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/metrics.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/wire.h"
#include "serve/front_end.h"

namespace sweetknn::serve {

/// Knobs of the cluster front-end (docs/distributed.md).
struct RouterConfig {
  /// The serving knobs shared with the in-process backend: num_shards,
  /// the front-end's (micro-batching, max_queue_depth, route),
  /// options/device, and dataset_name. cache_capacity, snapshot_dir,
  /// auto_compact and compact_delta_fraction are ignored (the router has
  /// no result cache and compacts only explicitly).
  ServiceConfig service;
  /// Worker processes. Clamped to [1, num_shards]; shard s's primary is
  /// worker s % num_workers.
  int num_workers = 2;
  /// Extra copies of each shard on distinct workers (clamped to
  /// num_workers - 1). With replicas >= 1 a worker death fails over:
  /// the replica is promoted and the group retried, bit-identically.
  int replicas = 0;
  /// Per-RPC budget (send + reply). A worker that misses it is declared
  /// dead — SIGSTOP wedges and SIGKILLs look the same from here.
  std::chrono::milliseconds rpc_timeout{10000};
  /// Budget for prepare RPCs (cold builds cluster the whole slice) and
  /// for replica catch-up (save + adopt a snapshot).
  std::chrono::milliseconds prepare_timeout{120000};
  /// The worker executable, exec'd as
  /// "<worker_binary> shard-worker --socket=<path>". Tests and the CLI
  /// pass the sweetknn_cli binary.
  std::string worker_binary;
  /// Sockets and catch-up snapshots live here; created (and removed at
  /// Shutdown) when empty: a fresh directory under TMPDIR.
  std::string work_dir;
  /// Named index this cluster serves. Rides every prepare and query
  /// frame; workers record it at prepare time and reject queries naming
  /// a different one (one tenant per cluster today; docs/serving.md).
  std::string tenant = kDefaultTenant;
};

/// Router::stats(): the front-end's counters, the same read-only
/// registry view KnnService::stats() returns, plus the failure-path
/// counters the cluster adds.
struct ClusterStats : ServiceStats {
  /// Workers declared dead (timeout, transport error, or bad reply).
  uint64_t worker_deaths = 0;
  /// RPCs that missed their deadline.
  uint64_t rpc_timeouts = 0;
  /// Fan-outs (kNN and range groups, live-set exports) re-sent after a
  /// failover.
  uint64_t retried_groups = 0;
  /// Replicas re-established by RestoreReplication.
  uint64_t replicas_restored = 0;
};

/// The multi-process cluster backend: KnnService's serving FrontEnd over
/// shard-worker processes instead of in-process threads — the router is
/// its RPC transport (docs/distributed.md).
///
/// Start() spawns num_workers worker processes, connects to each over a
/// unix socket, and cold-builds the same contiguous target slices
/// KnnService would build, placing shard s's primary on worker s % W and
/// its replicas on the following workers. Each kNN group fans out one
/// Query RPC per primary worker, each range group one RangeQuery RPC, and
/// the front-end merges the per-shard answers exactly as in process, so
/// cluster answers are bit-identical to a local KnnService over the same
/// target and mutation sequence (tests/integration/
/// cluster_differential_test.cc proves this byte for byte, across worker
/// counts and through worker kills). Offline jobs run on the front-end's
/// job engine, as in process: asynchronous, cancellable, and chunked
/// through the fair queue. The cluster serves one index, config.tenant;
/// CallOptions and JobSpec name it or the default tenant.
///
/// Mutations mirror KnnService's semantics: Insert allocates stable ids
/// upward and lands id on shard id % S; Remove resolves its owner
/// deterministically (initial rows by slice, inserted rows by modulo);
/// both are applied to the primary and every replica of the shard, so
/// replicas track primaries exactly. CompactShard runs the same
/// capture/rebuild/install protocol on every host of the shard.
///
/// Failure handling: every RPC carries rpc_timeout. A worker that times
/// out, drops its connection, or answers garbage is declared dead
/// (SIGKILLed for good measure); its primaries fail over to their
/// replicas and the in-flight fan-out (a kNN or range group, or a job's
/// live-set export) is re-sent — callers just see the answer, a little
/// later. A shard with no live host left fails requests with
/// Unavailable. RestoreReplication() re-establishes missing replicas on
/// surviving workers via snapshot catch-up (primary exports a .sksnap,
/// the new host adopts it).
///
/// Thread model: every public method is thread-safe. mutex_ serializes
/// fan-outs, mutations, and topology changes (failover, catch-up) — one
/// consistent cluster state per answer, like a tenant's index mutex in
/// KnnService.
class Router : private ShardTransport {
 public:
  /// Spawns and prepares the cluster. On any spawn/connect/prepare
  /// failure every already-started worker is torn down and the error
  /// returned.
  static Result<std::unique_ptr<Router>> Start(const HostMatrix& target,
                                               const RouterConfig& config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// As KnnService::Search (every mode is served exactly), plus
  /// Unavailable when a shard has no live host.
  Result<std::vector<Neighbor>> Search(
      const std::vector<float>& query_point, int k,
      const ann::SearchMode& mode = ann::SearchMode::Exact(),
      const CallOptions& opts = {});
  /// As KnnService::JoinBatch.
  Result<KnnResult> JoinBatch(
      const HostMatrix& queries, int k,
      const ann::SearchMode& mode = ann::SearchMode::Exact(),
      const CallOptions& opts = {});
  /// As KnnService::RadiusSearch; each radius group is one RangeQuery
  /// RPC per primary worker.
  Result<RangeResult> RadiusSearch(const HostMatrix& queries, float radius,
                                   const CallOptions& opts = {});

  // -- Offline jobs (docs/modalities.md): as KnnService's, forwarded to
  // the front-end's job engine. The live-set kinds snapshot the cluster
  // through one ExportLive fan-out at job start.
  Result<uint64_t> SubmitJob(const JobSpec& spec);
  Result<JobProgress> PollJob(uint64_t job_id) const;
  Status CancelJob(uint64_t job_id);
  Result<JobOutput> TakeJobResult(uint64_t job_id);
  Result<std::vector<SelfJoinPair>> SelfJoin(float radius,
                                             const CallOptions& opts = {});
  Result<JobOutput> KnnGraph(int k, const CallOptions& opts = {});

  /// Adds a point; returns its stable id (same allocation sequence as
  /// KnnService::Insert). Applied to the shard's primary and replicas.
  /// InvalidArgument when the point does not have the cluster's dims.
  Result<uint32_t> Insert(const std::vector<float>& point);
  /// Deletes a stable id. True if it was live, false if unknown or
  /// already removed.
  Result<bool> Remove(uint32_t id);

  /// Synchronously folds shard `shard`'s overlay into a fresh base on
  /// every host of the shard.
  Status CompactShard(int shard);
  Status CompactAll();

  /// Re-establishes missing replicas (after worker deaths) on surviving
  /// workers: the primary exports a snapshot into work_dir, the new host
  /// adopts it. First probes every worker still marked alive with a
  /// Health RPC under rpc_timeout and declares those that fail dead, so
  /// a worker that died since its last call is not counted as a host.
  /// No-op for shards already at full replication; error if a shard has
  /// no live host left to catch up from.
  Status RestoreReplication();

  /// Rejects new work, drains admitted requests, stops every worker
  /// (Shutdown RPC, then waitpid with a SIGKILL fallback), and removes
  /// the work directory if this router created it. Idempotent; also run
  /// by the destructor.
  void Shutdown();

  /// The cumulative counters: a read-only view over the registry.
  ClusterStats stats() const;
  /// Cluster metrics: the front-end's series under the in-process names
  /// (sweetknn_requests_total, sweetknn_queue_wait_seconds, ...; the
  /// per-shard sim-time and route series from the workers' answers), the mutation counters, and the cluster's own
  /// failure-path and per-worker series ("sweetknn_router_worker<w>_..."
  /// — RPC latency histogram, RPC and failure counters, liveness gauge).
  const common::MetricsRegistry& metrics() const { return metrics_; }
  /// Registry export with the queue-depth gauges refreshed first.
  std::string ExportMetricsJson() const;

  /// Test-only: see FrontEnd::SetPreDispatchHookForTest.
  void SetPreDispatchHookForTest(std::function<void()> hook) {
    front_end_.SetPreDispatchHookForTest(std::move(hook));
  }

  int num_shards() const { return num_shards_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  size_t dims() const { return dims_; }
  size_t target_rows() const;
  /// False once the router has declared worker `w` dead.
  bool worker_alive(int w) const;
  /// The worker's process id — tests kill/SIGSTOP it to drive failover.
  pid_t worker_pid(int w) const;
  /// Asks worker `w` for the names of the indexes it hosts (the
  /// kListIndexes RPC) — the wire-level counterpart of
  /// KnnService::ListIndexes.
  Result<std::vector<std::string>> ListWorkerIndexes(int w);

 private:
  /// One in-flight RPC's resolution, pushed by the worker's IO thread.
  struct RpcReply {
    int worker = -1;
    net::Frame frame;
    Status status;  ///< Transport-level; the frame may still be kError.
  };
  using ReplyQueue = common::BlockingQueue<RpcReply>;

  /// One pending RPC in a worker's outbox.
  struct Call {
    uint32_t type = 0;
    std::string payload;
    std::chrono::milliseconds timeout{0};
    std::shared_ptr<ReplyQueue> reply_to;
  };

  /// One worker process: its pipe to the world. The IO thread drains the
  /// outbox strictly in order — the protocol is synchronous
  /// request/reply per connection, so the first transport failure (or
  /// timeout) poisons the channel: the connection closes and every later
  /// call fails fast. A poisoned channel never desynchronizes (a late
  /// reply to call N can never be taken for a reply to call N+1).
  class WorkerChannel {
   public:
    WorkerChannel(int index, pid_t pid, net::Connection conn,
                  common::Histogram* rpc_seconds, common::Counter* rpcs,
                  common::Counter* failures);
    ~WorkerChannel();

    /// Enqueues an RPC; the reply (or its failure) lands in
    /// `call.reply_to`. False once the channel is closed for shutdown.
    bool Submit(Call call);
    /// Poisons the channel from outside (failover): pending and future
    /// calls fail with Unavailable, the socket closes (unblocking any
    /// in-flight poll).
    void Poison();
    /// Stops accepting calls, drains the outbox (failing what's left),
    /// and joins the IO thread.
    void Join();

    int index() const { return index_; }
    pid_t pid() const { return pid_; }

   private:
    void IoLoop();

    const int index_;
    const pid_t pid_;
    net::Connection conn_;
    std::atomic<bool> poisoned_{false};
    common::BlockingQueue<Call> outbox_;
    common::Histogram* rpc_seconds_;
    common::Counter* rpcs_;
    common::Counter* failures_;
    std::thread io_;
  };

  Router(const RouterConfig& config, size_t dims, size_t rows);

  void InitMetrics();

  /// Spawn + connect + prepare, factored out of Start(). On error the
  /// caller tears the router down.
  Status Bootstrap(const HostMatrix& target);
  Result<pid_t> SpawnWorker(const std::string& socket_path) const;

  /// The cluster's one tenant for `name` (its own name or the default
  /// tenant's), or NotFound.
  Result<std::shared_ptr<TenantIndex>> ResolveTenant(
      const std::string& name) const;

  // ShardTransport: the RPC fan-out, under mutex_ for the whole request.
  Status SearchGroup(const TenantIndex& tenant, const HostMatrix& queries,
                     int k, core::QueryRoute route,
                     std::vector<core::ShardAnswer>* answers,
                     double* fanout_seconds) override;
  Status RangeGroup(const TenantIndex& tenant, const HostMatrix& queries,
                    float radius,
                    std::vector<core::RangeShardAnswer>* answers,
                    double* fanout_seconds) override;
  Status ExportLive(const TenantIndex& tenant, std::vector<uint32_t>* ids,
                    HostMatrix* points) override;

  /// One fan-out request: `encode` builds the payload asking a worker
  /// for its primary shards; `absorb` takes in that worker's reply
  /// payload for those shards (a non-Ok status fails the worker).
  using EncodeFn =
      std::function<std::string(const std::vector<uint32_t>& shards)>;
  using AbsorbFn = std::function<Status(const std::string& payload,
                                        const std::vector<uint32_t>& shards)>;
  /// Sends `type` to every primary worker, failing over and retrying
  /// until every worker of the placement answered `reply_type` or a
  /// shard has no live host. Every shard is covered exactly once per
  /// attempt, so per-shard state `absorb` writes is complete on Ok.
  /// Caller holds mutex_.
  Status FanoutLocked(net::MsgType type, net::MsgType reply_type,
                      const EncodeFn& encode, const AbsorbFn& absorb);
  /// One fan-out attempt over the current placement. True when every
  /// worker answered and was absorbed; otherwise records the workers to
  /// declare dead in `failed`. Caller holds mutex_.
  bool TryFanout(net::MsgType type, net::MsgType reply_type,
                 const EncodeFn& encode, const AbsorbFn& absorb,
                 std::vector<int>* failed);

  /// Sends one RPC to worker `w` and waits for its reply frame,
  /// expecting `expect_type` (or kError, decoded into the Status).
  /// Caller holds mutex_ for placement-dependent calls.
  Result<net::Frame> CallWorker(int w, net::MsgType type,
                                std::string payload,
                                std::chrono::milliseconds timeout,
                                net::MsgType expect_type);

  /// The reply's frame when it is the expected type; its transport
  /// status, decoded Error frame, or IoError otherwise.
  static Result<net::Frame> ReplyFrame(RpcReply reply,
                                       net::MsgType expect_type);

  /// Declares a worker dead: poisons its channel, SIGKILLs the process,
  /// promotes replicas of its primaries, drops it from replica lists.
  /// Caller holds mutex_.
  void MarkWorkerDeadLocked(int w, const std::string& why);

  /// Bumps the RPC-timeout counter. Called both when the
  /// router-side reply wait expires and when a channel IO thread
  /// reports DeadlineExceeded for an individual call (the channel
  /// enforces the same deadline and usually loses the race by less).
  void NoteRpcTimeout();

  /// Every live host of shard `s`, primary first. Caller holds mutex_.
  std::vector<int> ShardHostsLocked(int s) const;
  /// Deterministic owner of stable id `id` (initial rows by slice,
  /// inserted rows by modulo) — no broadcast needed. Caller holds mutex_.
  int OwningShardLocked(uint32_t id) const;

  /// Applies one mutation RPC to every live host of shard `s`, marking
  /// failed hosts dead. Returns the primary's reply, or Unavailable when
  /// no host is left. Caller holds mutex_.
  Result<net::Frame> MutateShardLocked(int s, net::MsgType type,
                                       const std::string& payload,
                                       net::MsgType expect_type);

  /// The fan-out plan: (worker, its primary shards), ascending by
  /// worker, every shard covered exactly once. Unavailable when a shard
  /// has no live host. Caller holds mutex_.
  Result<std::vector<std::pair<int, std::vector<uint32_t>>>>
  PrimaryPlanLocked() const;

  RouterConfig config_;
  size_t dims_ = 0;
  int num_shards_ = 0;
  /// First global row of each initial slice (Remove's owner lookup).
  std::vector<uint32_t> shard_offsets_;
  /// Rows the constructor's target held (ids 0..n0-1 are slice-owned).
  uint32_t initial_rows_ = 0;
  bool own_work_dir_ = false;

  /// Guards placement (primary_, replicas_, alive_), next_id_,
  /// target_rows_, and serializes query groups with mutations and
  /// failovers — the cluster's index_mutex_.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<WorkerChannel>> workers_;
  std::vector<bool> alive_;
  std::vector<int> primary_;                ///< shard -> worker, -1 = lost
  std::vector<std::vector<int>> replicas_;  ///< shard -> replica workers
  uint32_t next_id_ = 0;
  size_t target_rows_ = 0;
  uint64_t catchup_counter_ = 0;  ///< names catch-up snapshot files

  /// Set under mutex_ by Shutdown; mutations refuse after it.
  bool shut_down_ = false;

  common::MetricsRegistry metrics_;
  common::Counter* m_inserts_ = nullptr;
  common::Counter* m_removes_ = nullptr;
  common::Counter* m_remove_misses_ = nullptr;
  common::Counter* m_compactions_ = nullptr;
  common::Counter* m_worker_deaths_ = nullptr;
  common::Counter* m_rpc_timeouts_ = nullptr;
  common::Counter* m_retried_groups_ = nullptr;
  common::Counter* m_replicas_restored_ = nullptr;
  common::Gauge* m_workers_alive_ = nullptr;
  // Per-worker series, indexed by worker ("sweetknn_router_worker<w>_...").
  std::vector<common::Histogram*> m_worker_rpc_seconds_;
  std::vector<common::Counter*> m_worker_rpcs_;
  std::vector<common::Counter*> m_worker_failures_;
  std::vector<common::Gauge*> m_worker_alive_;

  /// The cluster's one index as the front-end sees it: name, dims, and
  /// its labeled request series (the shards live in the workers).
  std::shared_ptr<TenantIndex> tenant_;
  /// Declared after metrics_, which it registers into.
  FrontEnd front_end_;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_ROUTER_H_
