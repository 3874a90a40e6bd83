#include "serve/router.h"

#include <errno.h>
#include <signal.h>
#include <spawn.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "net/socket.h"
#include "net/wire.h"
#include "store/snapshot.h"

extern char** environ;

namespace sweetknn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Budget for the initial connect to a freshly spawned worker (the
/// Connect retries while the socket file does not exist yet).
constexpr std::chrono::seconds kConnectTimeout{10};
/// Best-effort budget for the clean Shutdown RPC per worker.
constexpr std::chrono::seconds kShutdownRpcTimeout{2};
/// How long Shutdown waits for a worker to exit before SIGKILLing it.
constexpr std::chrono::seconds kReapTimeout{2};

/// Waits for `pid` to exit; escalates to SIGKILL after kReapTimeout.
void ReapWorker(pid_t pid) {
  const SteadyClock::time_point deadline = SteadyClock::now() + kReapTimeout;
  int wstatus = 0;
  for (;;) {
    const pid_t r = waitpid(pid, &wstatus, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return;
    if (SteadyClock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &wstatus, 0);
}

}  // namespace

// --- WorkerChannel -----------------------------------------------------------

Router::WorkerChannel::WorkerChannel(int index, pid_t pid,
                                     net::Connection conn,
                                     common::Histogram* rpc_seconds,
                                     common::Counter* rpcs,
                                     common::Counter* failures)
    : index_(index),
      pid_(pid),
      conn_(std::move(conn)),
      rpc_seconds_(rpc_seconds),
      rpcs_(rpcs),
      failures_(failures),
      io_(&WorkerChannel::IoLoop, this) {}

Router::WorkerChannel::~WorkerChannel() { Join(); }

bool Router::WorkerChannel::Submit(Call call) {
  return outbox_.Push(std::move(call));
}

void Router::WorkerChannel::Poison() {
  poisoned_.store(true, std::memory_order_release);
  conn_.Close();  // unblocks an in-flight poll on the IO thread
}

void Router::WorkerChannel::Join() {
  outbox_.Close();
  if (io_.joinable()) io_.join();
}

void Router::WorkerChannel::IoLoop() {
  Call call;
  while (outbox_.WaitPop(&call)) {
    RpcReply reply;
    reply.worker = index_;
    if (poisoned_.load(std::memory_order_acquire)) {
      reply.status = Status::Unavailable(
          "worker " + std::to_string(index_) + ": channel poisoned");
    } else {
      const SteadyClock::time_point start = SteadyClock::now();
      const SteadyClock::time_point deadline = start + call.timeout;
      Status status = net::SendFrame(conn_, call.type, call.payload, deadline);
      if (status.ok()) {
        Result<net::Frame> frame = net::RecvFrame(conn_, deadline);
        if (frame.ok()) {
          reply.frame = std::move(frame).value();
        } else {
          status = frame.status();
        }
      }
      rpcs_->Increment();
      rpc_seconds_->Observe(SecondsBetween(start, SteadyClock::now()));
      if (!status.ok()) {
        // The protocol is strictly request/reply in order: one failed or
        // timed-out exchange leaves the stream unusable (a late reply
        // could be taken for the next call's), so the first failure
        // poisons the channel for good.
        failures_->Increment();
        reply.status = status;
        poisoned_.store(true, std::memory_order_release);
        conn_.Close();
      }
    }
    if (call.reply_to) call.reply_to->Push(std::move(reply));
  }
}

// --- Construction ------------------------------------------------------------

Router::Router(const RouterConfig& config, size_t dims, size_t rows)
    : config_(config),
      dims_(dims),
      initial_rows_(static_cast<uint32_t>(rows)),
      next_id_(static_cast<uint32_t>(rows)),
      target_rows_(rows),
      front_end_(config.service, this, &metrics_) {
  num_shards_ = std::clamp(config_.service.num_shards, 1,
                           static_cast<int>(rows));
  config_.service.num_shards = num_shards_;
  config_.num_workers = std::clamp(config_.num_workers, 1, num_shards_);
  config_.replicas =
      std::clamp(config_.replicas, 0, config_.num_workers - 1);
  InitMetrics();
  tenant_ = std::make_shared<TenantIndex>();
  tenant_->name = config_.tenant;
  tenant_->dims = dims_;
  tenant_->num_shards = num_shards_;
  front_end_.RegisterTenant(tenant_.get());
  front_end_.SetWeight(config_.tenant, 1.0);
}

Result<std::unique_ptr<Router>> Router::Start(const HostMatrix& target,
                                              const RouterConfig& config) {
  if (target.empty()) {
    return Status::InvalidArgument("Router needs a non-empty target set");
  }
  if (config.worker_binary.empty()) {
    return Status::InvalidArgument(
        "RouterConfig.worker_binary must name the shard-worker executable");
  }
  if (config.service.max_batch_size <= 0) {
    return Status::InvalidArgument("max_batch_size must be > 0");
  }
  std::unique_ptr<Router> router(
      new Router(config, target.cols(), target.rows()));
  const Status boot = router->Bootstrap(target);
  if (!boot.ok()) {
    router->Shutdown();
    return boot;
  }
  router->front_end_.Start();
  return router;
}

Router::~Router() { Shutdown(); }

void Router::InitMetrics() {
  // The mutation counters share the in-process names: the front-end's
  // registry view reads them for stats() on both backends.
  m_inserts_ = metrics_.GetCounter("sweetknn_inserts_total",
                                   "Points admitted through Insert");
  m_removes_ = metrics_.GetCounter("sweetknn_removes_total",
                                   "Successful Remove calls");
  m_remove_misses_ = metrics_.GetCounter(
      "sweetknn_remove_misses_total",
      "Remove calls naming an unknown or already-removed id");
  m_compactions_ = metrics_.GetCounter(
      "sweetknn_compactions_total",
      "Shard compactions applied across the cluster");
  m_worker_deaths_ = metrics_.GetCounter(
      "sweetknn_router_worker_deaths_total",
      "Workers declared dead (timeout, transport error, or bad reply)");
  m_rpc_timeouts_ = metrics_.GetCounter(
      "sweetknn_router_rpc_timeouts_total", "RPCs that missed rpc_timeout");
  m_retried_groups_ = metrics_.GetCounter(
      "sweetknn_router_retried_groups_total",
      "Fan-outs (kNN and range groups, live-set exports) re-sent after a "
      "failover");
  m_replicas_restored_ = metrics_.GetCounter(
      "sweetknn_router_replicas_restored_total",
      "Replicas re-established by snapshot catch-up");
  m_workers_alive_ = metrics_.GetGauge("sweetknn_router_workers_alive",
                                       "Live worker processes");
  for (int w = 0; w < config_.num_workers; ++w) {
    const std::string prefix =
        "sweetknn_router_worker" + std::to_string(w) + "_";
    m_worker_rpc_seconds_.push_back(metrics_.GetHistogram(
        prefix + "rpc_seconds", "RPC round-trip latency to this worker",
        common::LatencyBucketsSeconds()));
    m_worker_rpcs_.push_back(metrics_.GetCounter(
        prefix + "rpcs_total", "RPCs issued to this worker"));
    m_worker_failures_.push_back(metrics_.GetCounter(
        prefix + "rpc_failures_total",
        "RPCs to this worker that failed or timed out"));
    m_worker_alive_.push_back(metrics_.GetGauge(
        prefix + "alive", "1 while this worker is considered live"));
  }
}

Result<pid_t> Router::SpawnWorker(const std::string& socket_path) const {
  const std::string socket_arg = "--socket=" + socket_path;
  std::vector<char*> argv;
  std::string binary = config_.worker_binary;
  std::string command = "shard-worker";
  std::string arg = socket_arg;
  argv.push_back(binary.data());
  argv.push_back(command.data());
  argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, config_.worker_binary.c_str(),
                             /*file_actions=*/nullptr, /*attrp=*/nullptr,
                             argv.data(), environ);
  if (rc != 0) {
    return Status::IoError("cannot spawn " + config_.worker_binary + ": " +
                           std::strerror(rc));
  }
  return pid;
}

Status Router::Bootstrap(const HostMatrix& target) {
  // Work directory: sockets + catch-up snapshots.
  if (config_.work_dir.empty()) {
    std::string tmpl = "/tmp/sweetknn-cluster-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      return Status::IoError(std::string("mkdtemp failed: ") +
                             std::strerror(errno));
    }
    config_.work_dir = tmpl;
    own_work_dir_ = true;
  } else {
    std::error_code ec;
    std::filesystem::create_directories(config_.work_dir, ec);
    if (ec) {
      return Status::IoError("cannot create work dir " + config_.work_dir +
                             ": " + ec.message());
    }
  }

  // Spawn and connect the workers.
  const int num_workers = config_.num_workers;
  for (int w = 0; w < num_workers; ++w) {
    const std::string socket_path =
        config_.work_dir + "/worker-" + std::to_string(w) + ".sock";
    Result<pid_t> pid = SpawnWorker(socket_path);
    SK_RETURN_IF_ERROR(pid.status());
    Result<net::Connection> conn = net::Connection::Connect(
        socket_path, SteadyClock::now() + kConnectTimeout);
    if (!conn.ok()) {
      ReapWorker(pid.value());
      return Status::Unavailable(
          "worker " + std::to_string(w) +
          " never came up: " + conn.status().ToString());
    }
    workers_.push_back(std::make_unique<WorkerChannel>(
        w, pid.value(), std::move(conn).value(),
        m_worker_rpc_seconds_[static_cast<size_t>(w)],
        m_worker_rpcs_[static_cast<size_t>(w)],
        m_worker_failures_[static_cast<size_t>(w)]));
    alive_.push_back(true);
    m_worker_alive_[static_cast<size_t>(w)]->Set(1.0);
  }
  m_workers_alive_->Set(static_cast<double>(num_workers));

  // Placement: shard s's primary is worker s % W, its replicas the next
  // `replicas` workers around the ring (distinct because replicas < W).
  primary_.resize(static_cast<size_t>(num_shards_));
  replicas_.resize(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    primary_[static_cast<size_t>(s)] = s % num_workers;
    for (int r = 1; r <= config_.replicas; ++r) {
      replicas_[static_cast<size_t>(s)].push_back((s + r) % num_workers);
    }
  }

  // The same contiguous slices KnnService builds, cold-built on every
  // host of each shard. All prepares are submitted up front (workers
  // cluster their slices concurrently), then the acks collected.
  const size_t base = target.rows() / static_cast<size_t>(num_shards_);
  const size_t rem = target.rows() % static_cast<size_t>(num_shards_);
  auto replies = std::make_shared<ReplyQueue>();
  int outstanding = 0;
  size_t offset = 0;
  for (int s = 0; s < num_shards_; ++s) {
    const size_t rows = base + (static_cast<size_t>(s) < rem ? 1 : 0);
    net::PrepareColdRequest req;
    req.shard_index = static_cast<uint32_t>(s);
    req.offset = offset;
    req.slice = HostMatrix(rows, dims_);
    std::memcpy(req.slice.mutable_data(), target.row(offset),
                rows * dims_ * sizeof(float));
    req.options = config_.service.options;
    req.device = config_.service.device;
    req.tenant = config_.tenant;
    shard_offsets_.push_back(static_cast<uint32_t>(offset));
    offset += rows;
    const std::string payload = net::EncodePrepareCold(req);
    for (const int host : ShardHostsLocked(s)) {
      Call call;
      call.type = static_cast<uint32_t>(net::MsgType::kPrepareCold);
      call.payload = payload;
      call.timeout = config_.prepare_timeout;
      call.reply_to = replies;
      workers_[static_cast<size_t>(host)]->Submit(std::move(call));
      ++outstanding;
    }
  }
  const SteadyClock::time_point deadline =
      SteadyClock::now() + config_.prepare_timeout;
  for (int i = 0; i < outstanding; ++i) {
    RpcReply reply;
    switch (replies->WaitPopUntil(&reply, deadline)) {
      case common::PopResult::kItem:
        break;
      case common::PopResult::kTimeout:
        return Status::DeadlineExceeded("cluster prepare timed out");
      case common::PopResult::kClosed:
        return Status::Unavailable("router shut down during prepare");
    }
    SK_RETURN_IF_ERROR(
        ReplyFrame(std::move(reply), net::MsgType::kAck).status());
  }
  return Status::Ok();
}

// --- RPC plumbing ------------------------------------------------------------

Result<net::Frame> Router::CallWorker(int w, net::MsgType type,
                                      std::string payload,
                                      std::chrono::milliseconds timeout,
                                      net::MsgType expect_type) {
  auto replies = std::make_shared<ReplyQueue>();
  Call call;
  call.type = static_cast<uint32_t>(type);
  call.payload = std::move(payload);
  call.timeout = timeout;
  call.reply_to = replies;
  if (!workers_[static_cast<size_t>(w)]->Submit(std::move(call))) {
    return Status::Unavailable("worker " + std::to_string(w) +
                               " is shut down");
  }
  RpcReply reply;
  switch (replies->WaitPopUntil(&reply, SteadyClock::now() + timeout)) {
    case common::PopResult::kItem:
      break;
    case common::PopResult::kTimeout:
      // Genuinely no answer inside the budget: the worker is slow or
      // wedged. Counts toward the failover health accounting.
      NoteRpcTimeout();
      return Status::DeadlineExceeded("worker " + std::to_string(w) +
                                      " RPC timed out");
    case common::PopResult::kClosed:
      // Shutdown, not sickness — do not charge an RPC timeout.
      return Status::Unavailable("worker " + std::to_string(w) +
                                 " channel closed");
  }
  if (reply.status.code() == StatusCode::kDeadlineExceeded) {
    NoteRpcTimeout();
  }
  return ReplyFrame(std::move(reply), expect_type);
}

Result<net::Frame> Router::ReplyFrame(RpcReply reply,
                                      net::MsgType expect_type) {
  SK_RETURN_IF_ERROR(reply.status);
  if (reply.frame.type == static_cast<uint32_t>(net::MsgType::kError)) {
    return net::DecodeError(reply.frame.payload);
  }
  if (reply.frame.type != static_cast<uint32_t>(expect_type)) {
    return Status::IoError("worker " + std::to_string(reply.worker) +
                           " replied with unexpected type " +
                           std::to_string(reply.frame.type));
  }
  return std::move(reply.frame);
}

void Router::NoteRpcTimeout() { m_rpc_timeouts_->Increment(); }

void Router::MarkWorkerDeadLocked(int w, const std::string& why) {
  const auto idx = static_cast<size_t>(w);
  if (!alive_[idx]) return;
  SK_LOG(Warning) << "Router: declaring worker " << w << " dead (" << why
                  << ")";
  alive_[idx] = false;
  workers_[idx]->Poison();
  // A wedged (e.g. SIGSTOPped) worker still holds its socket and pid;
  // make the death real so a later restart of the shard cannot race it.
  kill(workers_[idx]->pid(), SIGKILL);
  m_worker_alive_[idx]->Set(0.0);
  m_workers_alive_->Add(-1.0);
  m_worker_deaths_->Increment();
  for (int s = 0; s < num_shards_; ++s) {
    const auto sidx = static_cast<size_t>(s);
    std::vector<int>& reps = replicas_[sidx];
    if (primary_[sidx] == w) {
      // Promote the first live replica; with none, the shard is lost
      // until RestoreReplication (or forever without replicas).
      primary_[sidx] = -1;
      for (size_t r = 0; r < reps.size(); ++r) {
        if (alive_[static_cast<size_t>(reps[r])]) {
          primary_[sidx] = reps[r];
          reps.erase(reps.begin() + static_cast<long>(r));
          break;
        }
      }
    }
    reps.erase(std::remove(reps.begin(), reps.end(), w), reps.end());
  }
}

std::vector<int> Router::ShardHostsLocked(int s) const {
  const auto sidx = static_cast<size_t>(s);
  std::vector<int> hosts;
  if (primary_[sidx] >= 0 && alive_[static_cast<size_t>(primary_[sidx])]) {
    hosts.push_back(primary_[sidx]);
  }
  for (const int r : replicas_[sidx]) {
    if (alive_[static_cast<size_t>(r)]) hosts.push_back(r);
  }
  return hosts;
}

int Router::OwningShardLocked(uint32_t id) const {
  if (id < initial_rows_) {
    // Initial rows live where the constructor sliced them; compactions
    // never move an id across shards.
    const auto it = std::upper_bound(shard_offsets_.begin(),
                                     shard_offsets_.end(), id);
    return static_cast<int>(it - shard_offsets_.begin()) - 1;
  }
  // Inserted rows land on shard id % S, same as KnnService::InsertBatch.
  return static_cast<int>(id % static_cast<uint32_t>(num_shards_));
}

Result<net::Frame> Router::MutateShardLocked(int s, net::MsgType type,
                                             const std::string& payload,
                                             net::MsgType expect_type) {
  const std::chrono::milliseconds timeout =
      type == net::MsgType::kCompact ? config_.prepare_timeout
                                     : config_.rpc_timeout;
  // Snapshot the hosts first: marking one dead rewrites the placement.
  const std::vector<int> hosts = ShardHostsLocked(s);
  if (hosts.empty()) {
    return Status::Unavailable("shard " + std::to_string(s) +
                               " has no live host");
  }
  Result<net::Frame> first = Status::Unavailable("no host answered");
  bool have_reply = false;
  for (const int host : hosts) {
    Result<net::Frame> reply = CallWorker(host, type, payload, timeout,
                                          expect_type);
    if (reply.ok()) {
      if (!have_reply) {
        first = std::move(reply);
        have_reply = true;
      }
    } else if (reply.status().code() == StatusCode::kDeadlineExceeded ||
               reply.status().code() == StatusCode::kUnavailable) {
      // Transport-level death; application errors (InvalidArgument,
      // NotFound) are real answers and must not trigger failover.
      MarkWorkerDeadLocked(host, reply.status().ToString());
    } else if (!have_reply) {
      first = std::move(reply);
      have_reply = true;
    }
  }
  return first;
}

// --- Queries: the front-end over the RPC transport -------------------------

Result<std::shared_ptr<TenantIndex>> Router::ResolveTenant(
    const std::string& name) const {
  if (name == config_.tenant || name == kDefaultTenant) return tenant_;
  return Status::NotFound("no index named '" + name +
                          "' (this cluster serves '" + config_.tenant + "')");
}

Result<std::vector<Neighbor>> Router::Search(
    const std::vector<float>& query_point, int k,
    const ann::SearchMode& /*mode*/, const CallOptions& opts) {
  SK_RETURN_IF_ERROR(CheckPoints("Search", 1, query_point.size(), dims_));
  SK_RETURN_IF_ERROR(CheckK("Search", k));
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(opts.tenant);
  if (!tenant.ok()) return tenant.status();
  Result<KnnResult> result = front_end_.Knn(
      std::move(tenant).value(), query_point, 1, k, opts.timeout);
  if (!result.ok()) return result.status();
  const KnnResult& answer = result.value();
  return std::vector<Neighbor>(answer.row(0), answer.row(0) + answer.k());
}

Result<KnnResult> Router::JoinBatch(const HostMatrix& queries, int k,
                                    const ann::SearchMode& /*mode*/,
                                    const CallOptions& opts) {
  SK_RETURN_IF_ERROR(
      CheckPoints("JoinBatch", queries.rows(), queries.cols(), dims_));
  SK_RETURN_IF_ERROR(CheckK("JoinBatch", k));
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(opts.tenant);
  if (!tenant.ok()) return tenant.status();
  return front_end_.Knn(std::move(tenant).value(), queries.storage(),
                        queries.rows(), k, opts.timeout);
}

Result<RangeResult> Router::RadiusSearch(const HostMatrix& queries,
                                         float radius,
                                         const CallOptions& opts) {
  SK_RETURN_IF_ERROR(
      CheckPoints("RadiusSearch", queries.rows(), queries.cols(), dims_));
  SK_RETURN_IF_ERROR(CheckRadius("RadiusSearch", radius));
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(opts.tenant);
  if (!tenant.ok()) return tenant.status();
  return front_end_.Range(std::move(tenant).value(), queries.storage(),
                          queries.rows(), radius, opts.timeout);
}

// --- Offline jobs: the front-end's engine (docs/modalities.md) -------------

Result<uint64_t> Router::SubmitJob(const JobSpec& spec) {
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(spec.tenant);
  if (!tenant.ok()) return tenant.status();
  return front_end_.SubmitJob(std::move(tenant).value(), spec);
}

Result<JobProgress> Router::PollJob(uint64_t job_id) const {
  return front_end_.PollJob(job_id);
}

Status Router::CancelJob(uint64_t job_id) {
  return front_end_.CancelJob(job_id);
}

Result<JobOutput> Router::TakeJobResult(uint64_t job_id) {
  return front_end_.TakeJobResult(job_id);
}

Result<std::vector<SelfJoinPair>> Router::SelfJoin(float radius,
                                                   const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(opts.tenant);
  if (!tenant.ok()) return tenant.status();
  return front_end_.SelfJoin(std::move(tenant).value(), radius);
}

Result<JobOutput> Router::KnnGraph(int k, const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(opts.tenant);
  if (!tenant.ok()) return tenant.status();
  return front_end_.KnnGraph(std::move(tenant).value(), k);
}

// --- The fan-out: one request per primary worker, with failover ------------

Result<std::vector<std::pair<int, std::vector<uint32_t>>>>
Router::PrimaryPlanLocked() const {
  std::vector<std::pair<int, std::vector<uint32_t>>> plan;
  for (int s = 0; s < num_shards_; ++s) {
    const int p = primary_[static_cast<size_t>(s)];
    if (p < 0 || !alive_[static_cast<size_t>(p)]) {
      return Status::Unavailable("shard " + std::to_string(s) +
                                 " has no live host; cluster cannot answer");
    }
    auto it = std::find_if(plan.begin(), plan.end(),
                           [p](const auto& e) { return e.first == p; });
    if (it == plan.end()) {
      plan.emplace_back(p, std::vector<uint32_t>{static_cast<uint32_t>(s)});
    } else {
      it->second.push_back(static_cast<uint32_t>(s));
    }
  }
  std::sort(plan.begin(), plan.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return plan;
}

bool Router::TryFanout(net::MsgType type, net::MsgType reply_type,
                       const EncodeFn& encode, const AbsorbFn& absorb,
                       std::vector<int>* failed) {
  Result<std::vector<std::pair<int, std::vector<uint32_t>>>> plan =
      PrimaryPlanLocked();
  if (!plan.ok()) return false;
  auto replies = std::make_shared<ReplyQueue>();
  // The shard list each pending worker was asked for, by worker.
  std::vector<const std::vector<uint32_t>*> pending(workers_.size(), nullptr);
  int outstanding = 0;
  for (const auto& [w, shards] : plan.value()) {
    Call call;
    call.type = static_cast<uint32_t>(type);
    call.payload = encode(shards);
    call.timeout = config_.rpc_timeout;
    call.reply_to = replies;
    if (!workers_[static_cast<size_t>(w)]->Submit(std::move(call))) {
      failed->push_back(w);
      continue;
    }
    pending[static_cast<size_t>(w)] = &shards;
    ++outstanding;
  }
  if (!failed->empty()) return false;

  const SteadyClock::time_point deadline =
      SteadyClock::now() + config_.rpc_timeout;
  bool ok = true;
  for (int i = 0; i < outstanding; ++i) {
    RpcReply reply;
    const common::PopResult got = replies->WaitPopUntil(&reply, deadline);
    if (got != common::PopResult::kItem) {
      // kTimeout: whoever has not answered by now is wedged or gone —
      // that is a health event. kClosed: the reply channel was torn
      // down under us (shutdown); the stragglers still failed this
      // fan-out, but it is not a worker-sickness signal.
      if (got == common::PopResult::kTimeout) NoteRpcTimeout();
      for (size_t w = 0; w < pending.size(); ++w) {
        if (pending[w] != nullptr) failed->push_back(static_cast<int>(w));
      }
      return false;
    }
    const auto widx = static_cast<size_t>(reply.worker);
    const std::vector<uint32_t>& shards = *pending[widx];
    pending[widx] = nullptr;
    if (reply.status.code() == StatusCode::kDeadlineExceeded) {
      NoteRpcTimeout();
    }
    // A transport failure, an Error frame (the worker's view of the
    // placement disagrees with ours), or a reply that does not decode to
    // exactly the shards asked for: the worker is treated as dead and
    // the retry re-plans.
    if (!reply.status.ok() ||
        reply.frame.type != static_cast<uint32_t>(reply_type) ||
        !absorb(reply.frame.payload, shards).ok()) {
      failed->push_back(reply.worker);
      ok = false;
    }
  }
  return ok;
}

Status Router::FanoutLocked(net::MsgType type, net::MsgType reply_type,
                            const EncodeFn& encode, const AbsorbFn& absorb) {
  for (int attempts = 0;; ++attempts) {
    std::vector<int> failed;
    if (TryFanout(type, reply_type, encode, absorb, &failed)) {
      return Status::Ok();
    }
    for (const int w : failed) {
      MarkWorkerDeadLocked(w, "fan-out failed");
    }
    SK_RETURN_IF_ERROR(PrimaryPlanLocked().status());
    if (attempts >= static_cast<int>(workers_.size())) {
      return Status::Unavailable("fan-out kept failing");
    }
    m_retried_groups_->Increment();
  }
}

namespace {

/// Moves a per-shard reply's answers into `out`, indexed by shard.
/// IoError unless the reply answers exactly `shards`, each with `rows`
/// rows.
template <typename Reply, typename Answer>
Status ScatterByShard(Reply* reply, const std::vector<uint32_t>& shards,
                      size_t rows, std::vector<Answer>* out) {
  if (reply->shard_indices != shards) {
    return Status::IoError("reply answers other shards than asked");
  }
  for (size_t j = 0; j < shards.size(); ++j) {
    if (reply->answers[j].result.num_queries() != rows) {
      return Status::IoError("reply answers the wrong number of rows");
    }
    (*out)[shards[j]] = std::move(reply->answers[j]);
  }
  return Status::Ok();
}

}  // namespace

Status Router::SearchGroup(const TenantIndex& /*tenant*/,
                           const HostMatrix& queries, int k,
                           core::QueryRoute route,
                           std::vector<core::ShardAnswer>* answers,
                           double* fanout_seconds) {
  // One consistent cluster state per group, like a tenant's index mutex:
  // the fan-out excludes mutations, compactions, and topology changes. A
  // failover in between moves a shard to a replica that tracks its
  // primary exactly.
  std::lock_guard<std::mutex> lock(mutex_);
  answers->assign(static_cast<size_t>(num_shards_), core::ShardAnswer{});
  const SteadyClock::time_point start = SteadyClock::now();
  SK_RETURN_IF_ERROR(FanoutLocked(
      net::MsgType::kQuery, net::MsgType::kQueryReply,
      [&](const std::vector<uint32_t>& shards) {
        net::QueryRequest req;
        req.k = static_cast<uint32_t>(k);
        req.route = route;
        req.queries = queries;
        req.shard_indices = shards;
        req.tenant = config_.tenant;
        return net::EncodeQuery(req);
      },
      [&](const std::string& payload, const std::vector<uint32_t>& shards) {
        net::QueryReply reply;
        SK_RETURN_IF_ERROR(net::DecodeQueryReply(payload, &reply));
        return ScatterByShard(&reply, shards, queries.rows(), answers);
      }));
  *fanout_seconds = SecondsBetween(start, SteadyClock::now());
  return Status::Ok();
}

Status Router::RangeGroup(const TenantIndex& /*tenant*/,
                          const HostMatrix& queries, float radius,
                          std::vector<core::RangeShardAnswer>* answers,
                          double* fanout_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  answers->assign(static_cast<size_t>(num_shards_), core::RangeShardAnswer{});
  const SteadyClock::time_point start = SteadyClock::now();
  SK_RETURN_IF_ERROR(FanoutLocked(
      net::MsgType::kRangeQuery, net::MsgType::kRangeQueryReply,
      [&](const std::vector<uint32_t>& shards) {
        net::RangeQueryRequest req;
        req.radius = radius;
        req.queries = queries;
        req.shard_indices = shards;
        req.tenant = config_.tenant;
        return net::EncodeRangeQuery(req);
      },
      [&](const std::string& payload, const std::vector<uint32_t>& shards) {
        net::RangeQueryReply reply;
        SK_RETURN_IF_ERROR(net::DecodeRangeQueryReply(payload, &reply));
        return ScatterByShard(&reply, shards, queries.rows(), answers);
      }));
  *fanout_seconds = SecondsBetween(start, SteadyClock::now());
  return Status::Ok();
}

Status Router::ExportLive(const TenantIndex& /*tenant*/,
                          std::vector<uint32_t>* ids, HostMatrix* points) {
  // One part per worker, already merged over its shards. It lands in the
  // slot of the worker's first shard and empties its other shards'
  // slots, so a part from an attempt that a failover superseded never
  // survives into the merge.
  std::vector<std::vector<uint32_t>> part_ids(
      static_cast<size_t>(num_shards_));
  std::vector<HostMatrix> part_points(static_cast<size_t>(num_shards_));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SK_RETURN_IF_ERROR(FanoutLocked(
        net::MsgType::kExportLive, net::MsgType::kExportLiveReply,
        [&](const std::vector<uint32_t>& shards) {
          net::ExportLiveRequest req;
          req.shard_indices = shards;
          req.tenant = config_.tenant;
          return net::EncodeExportLive(req);
        },
        [&](const std::string& payload,
            const std::vector<uint32_t>& shards) {
          net::ExportLiveReply reply;
          SK_RETURN_IF_ERROR(net::DecodeExportLiveReply(payload, &reply));
          if (!reply.ids.empty() && reply.points.cols() != dims_) {
            return Status::IoError("ExportLiveReply has the wrong dims");
          }
          for (const uint32_t s : shards) part_ids[s].clear();
          part_ids[shards.front()] = std::move(reply.ids);
          part_points[shards.front()] = std::move(reply.points);
          return Status::Ok();
        }));
  }
  // The cross-worker sort runs off the lock.
  MergeLiveExports(part_ids, part_points, dims_, ids, points);
  return Status::Ok();
}

// --- Mutations ---------------------------------------------------------------

Result<uint32_t> Router::Insert(const std::vector<float>& point) {
  SK_RETURN_IF_ERROR(CheckPoints("Insert", 1, point.size(), dims_));
  std::lock_guard<std::mutex> lock(mutex_);
  if (shut_down_) {
    return Status::Unavailable("Router is shut down; insert rejected");
  }
  // Same id allocation and placement as KnnService::InsertBatch: ids
  // count upward, id lands on shard id % S.
  const uint32_t id = next_id_++;
  const int s = static_cast<int>(id % static_cast<uint32_t>(num_shards_));
  net::InsertRequest req;
  req.shard_index = static_cast<uint32_t>(s);
  req.id = id;
  req.point = point;
  Result<net::Frame> reply = MutateShardLocked(
      s, net::MsgType::kInsert, net::EncodeInsert(req), net::MsgType::kAck);
  if (!reply.ok()) return reply.status();
  ++target_rows_;
  m_inserts_->Increment();
  return id;
}

Result<bool> Router::Remove(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shut_down_) {
    return Status::Unavailable("Router is shut down; remove rejected");
  }
  const int s = OwningShardLocked(id);
  net::RemoveRequest req;
  req.shard_index = static_cast<uint32_t>(s);
  req.id = id;
  Result<net::Frame> reply =
      MutateShardLocked(s, net::MsgType::kRemove, net::EncodeRemove(req),
                        net::MsgType::kRemoveReply);
  if (!reply.ok()) return reply.status();
  net::RemoveReply decoded;
  SK_RETURN_IF_ERROR(net::DecodeRemoveReply(reply.value().payload, &decoded));
  if (decoded.found) --target_rows_;
  (decoded.found ? m_removes_ : m_remove_misses_)->Increment();
  return decoded.found;
}

Status Router::CompactShard(int shard) {
  if (shard < 0 || shard >= num_shards_) {
    return Status::InvalidArgument("no such shard: " +
                                   std::to_string(shard));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (shut_down_) {
    return Status::Unavailable("Router is shut down; compact rejected");
  }
  net::CompactRequest req;
  req.shard_index = static_cast<uint32_t>(shard);
  // Every host of the shard compacts; the rebuilds are deterministic
  // functions of the (identical) shard state, so primaries and replicas
  // land on byte-identical fresh bases.
  Result<net::Frame> reply =
      MutateShardLocked(shard, net::MsgType::kCompact,
                        net::EncodeCompact(req), net::MsgType::kAck);
  if (!reply.ok()) return reply.status();
  m_compactions_->Increment();
  return Status::Ok();
}

Status Router::CompactAll() {
  for (int s = 0; s < num_shards_; ++s) {
    SK_RETURN_IF_ERROR(CompactShard(s));
  }
  return Status::Ok();
}

Status Router::RestoreReplication() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shut_down_) {
    return Status::Unavailable("Router is shut down");
  }
  const int num_workers = static_cast<int>(workers_.size());
  // A worker is declared dead only when a call to it fails, so one that
  // died since its last call still looks alive here: probe them first.
  for (int w = 0; w < num_workers; ++w) {
    if (!alive_[static_cast<size_t>(w)]) continue;
    const Result<net::Frame> health =
        CallWorker(w, net::MsgType::kHealth, "", config_.rpc_timeout,
                   net::MsgType::kHealthReply);
    if (!health.ok()) MarkWorkerDeadLocked(w, health.status().ToString());
  }
  for (int s = 0; s < num_shards_; ++s) {
    const auto sidx = static_cast<size_t>(s);
    if (primary_[sidx] < 0 || !alive_[static_cast<size_t>(primary_[sidx])]) {
      return Status::Unavailable("shard " + std::to_string(s) +
                                 " has no live host to catch up from");
    }
    while (static_cast<int>(replicas_[sidx].size()) < config_.replicas) {
      // First live worker around the ring not already hosting the shard.
      int candidate = -1;
      for (int step = 1; step < num_workers; ++step) {
        const int w = (primary_[sidx] + step) % num_workers;
        if (!alive_[static_cast<size_t>(w)]) continue;
        if (std::find(replicas_[sidx].begin(), replicas_[sidx].end(), w) !=
            replicas_[sidx].end()) {
          continue;
        }
        candidate = w;
        break;
      }
      if (candidate < 0) break;  // not enough live workers; not an error

      // Catch-up: the primary exports the shard, the candidate adopts it
      // (the bulk bytes travel through the filesystem, not the socket).
      const std::string path =
          config_.work_dir + "/catchup-" + std::to_string(s) + "-" +
          std::to_string(++catchup_counter_) + ".sksnap";
      net::SaveShardRequest save;
      save.shard_index = static_cast<uint32_t>(s);
      save.shard_count = static_cast<uint32_t>(num_shards_);
      save.path = path;
      save.dataset_name = config_.service.dataset_name;
      save.next_id = next_id_;
      Result<net::Frame> saved = CallWorker(
          primary_[sidx], net::MsgType::kSaveShard,
          net::EncodeSaveShard(save), config_.prepare_timeout,
          net::MsgType::kAck);
      if (!saved.ok()) {
        MarkWorkerDeadLocked(primary_[sidx], saved.status().ToString());
        return Status::Unavailable("shard " + std::to_string(s) +
                                   " export failed: " +
                                   saved.status().ToString());
      }
      net::PrepareSnapshotRequest prep;
      prep.shard_index = static_cast<uint32_t>(s);
      prep.path = path;
      prep.options = config_.service.options;
      prep.device = config_.service.device;
      prep.tenant = config_.tenant;
      Result<net::Frame> adopted = CallWorker(
          candidate, net::MsgType::kPrepareSnapshot,
          net::EncodePrepareSnapshot(prep), config_.prepare_timeout,
          net::MsgType::kAck);
      std::error_code ec;
      std::filesystem::remove(path, ec);
      if (!adopted.ok()) {
        MarkWorkerDeadLocked(candidate, adopted.status().ToString());
        continue;  // try the next candidate
      }
      replicas_[sidx].push_back(candidate);
      m_replicas_restored_->Increment();
    }
  }
  return Status::Ok();
}

// --- Shutdown / accessors ----------------------------------------------------

void Router::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Drains every admitted request through the transport while the
  // workers are still up.
  front_end_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t w = 0; w < workers_.size(); ++w) {
      if (!alive_[w]) continue;
      // Best effort: a wedged worker just gets reaped below.
      (void)CallWorker(static_cast<int>(w), net::MsgType::kShutdown, "",
                       kShutdownRpcTimeout, net::MsgType::kAck);
    }
  }
  for (const std::unique_ptr<WorkerChannel>& channel : workers_) {
    channel->Join();
  }
  for (const std::unique_ptr<WorkerChannel>& channel : workers_) {
    ReapWorker(channel->pid());
  }
  if (own_work_dir_ && !config_.work_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(config_.work_dir, ec);
  }
}

ClusterStats Router::stats() const {
  ClusterStats stats;
  static_cast<ServiceStats&>(stats) = front_end_.Stats();
  stats.worker_deaths = static_cast<uint64_t>(m_worker_deaths_->value());
  stats.rpc_timeouts = static_cast<uint64_t>(m_rpc_timeouts_->value());
  stats.retried_groups = static_cast<uint64_t>(m_retried_groups_->value());
  stats.replicas_restored =
      static_cast<uint64_t>(m_replicas_restored_->value());
  return stats;
}

std::string Router::ExportMetricsJson() const {
  front_end_.RefreshGauges();
  return metrics_.ExportJson();
}

size_t Router::target_rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return target_rows_;
}

bool Router::worker_alive(int w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return alive_[static_cast<size_t>(w)];
}

pid_t Router::worker_pid(int w) const {
  return workers_[static_cast<size_t>(w)]->pid();
}

Result<std::vector<std::string>> Router::ListWorkerIndexes(int w) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (w < 0 || static_cast<size_t>(w) >= workers_.size()) {
    return Status::InvalidArgument("no worker " + std::to_string(w));
  }
  if (!alive_[static_cast<size_t>(w)]) {
    return Status::Unavailable("worker " + std::to_string(w) + " is dead");
  }
  Result<net::Frame> reply =
      CallWorker(w, net::MsgType::kListIndexes, "", config_.rpc_timeout,
                 net::MsgType::kListIndexesReply);
  SK_RETURN_IF_ERROR(reply.status());
  net::ListIndexesReply decoded;
  SK_RETURN_IF_ERROR(
      net::DecodeListIndexesReply(reply.value().payload, &decoded));
  return std::move(decoded.names);
}

}  // namespace sweetknn::serve
