#include "serve/shard_worker.h"

#include <chrono>
#include <utility>
#include <vector>

#ifdef __linux__
#include <signal.h>
#include <sys/prctl.h>
#endif

#include "common/logging.h"
#include "net/socket.h"
#include "net/wire.h"
#include "store/snapshot.h"

namespace sweetknn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// How long the worker waits for the router to connect after binding.
constexpr std::chrono::seconds kAcceptTimeout{60};
/// Per-reply send budget. The router always reads its pending reply, so
/// hitting this means the router is gone or wedged — exit either way.
constexpr std::chrono::seconds kSendTimeout{30};
/// Idle budget between requests. Effectively "forever": a dead router
/// surfaces as EOF (or the parent-death signal below) long before this.
constexpr std::chrono::hours kIdleTimeout{24};

net::Frame ErrorFrame(const Status& status) {
  net::Frame frame;
  frame.type = static_cast<uint32_t>(net::MsgType::kError);
  frame.payload = net::EncodeError(status);
  return frame;
}

net::Frame AckFrame() {
  net::Frame frame;
  frame.type = static_cast<uint32_t>(net::MsgType::kAck);
  return frame;
}

}  // namespace

ShardWorker::ShardWorker(std::string socket_path)
    : socket_path_(std::move(socket_path)) {}

Status ShardWorker::Run() {
#ifdef __linux__
  // A router that dies without a clean Shutdown (test harnesses, crashed
  // benches) must not leak worker processes: die with the parent.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  Result<net::Listener> listener = net::Listener::Bind(socket_path_);
  SK_RETURN_IF_ERROR(listener.status());
  Result<net::Connection> accepted =
      listener.value().Accept(SteadyClock::now() + kAcceptTimeout);
  SK_RETURN_IF_ERROR(accepted.status());
  net::Connection conn = std::move(accepted).value();

  for (;;) {
    Result<net::Frame> request =
        net::RecvFrame(conn, SteadyClock::now() + kIdleTimeout);
    if (!request.ok()) {
      if (request.status().code() == StatusCode::kUnavailable) {
        return Status::Ok();  // router closed the connection (or died)
      }
      return request.status();
    }
    bool shutdown = false;
    const net::Frame reply = Dispatch(request.value(), &shutdown);
    SK_RETURN_IF_ERROR(net::SendFrame(conn, reply.type, reply.payload,
                                      SteadyClock::now() + kSendTimeout));
    if (shutdown) return Status::Ok();
  }
}

net::Frame ShardWorker::Dispatch(const net::Frame& request, bool* shutdown) {
  switch (static_cast<net::MsgType>(request.type)) {
    case net::MsgType::kPrepareCold: {
      const Status status = HandlePrepareCold(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kPrepareSnapshot: {
      const Status status = HandlePrepareSnapshot(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kQuery: {
      net::Frame reply;
      const Status status = HandleQuery(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kRangeQuery: {
      net::Frame reply;
      const Status status = HandleRangeQuery(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kInsert: {
      const Status status = HandleInsert(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kRemove: {
      net::Frame reply;
      const Status status = HandleRemove(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kCompact: {
      const Status status = HandleCompact(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kSaveShard: {
      const Status status = HandleSaveShard(request.payload);
      return status.ok() ? AckFrame() : ErrorFrame(status);
    }
    case net::MsgType::kExportLive: {
      net::Frame reply;
      const Status status = HandleExportLive(request.payload, &reply);
      return status.ok() ? std::move(reply) : ErrorFrame(status);
    }
    case net::MsgType::kHealth:
      return HandleHealth();
    case net::MsgType::kListIndexes:
      return HandleListIndexes();
    case net::MsgType::kShutdown:
      *shutdown = true;
      return AckFrame();
    default:
      return ErrorFrame(Status::InvalidArgument(
          "shard worker: unknown message type " +
          std::to_string(request.type)));
  }
}

core::ShardHost* ShardWorker::FindShard(uint32_t shard_index) {
  const auto it = shards_.find(shard_index);
  return it == shards_.end() ? nullptr : it->second.get();
}

Status ShardWorker::HandlePrepareCold(const std::string& payload) {
  net::PrepareColdRequest req;
  SK_RETURN_IF_ERROR(net::DecodePrepareCold(payload, &req));
  if (req.slice.empty()) {
    return Status::InvalidArgument("PrepareCold: empty target slice");
  }
  if (dims_ != 0 && req.slice.cols() != dims_) {
    return Status::InvalidArgument(
        "PrepareCold: slice has " + std::to_string(req.slice.cols()) +
        " dims, this worker serves " + std::to_string(dims_));
  }
  if (!shards_.empty() && req.tenant != tenant_) {
    return Status::InvalidArgument("PrepareCold: shard belongs to index '" +
                                   req.tenant + "', this worker hosts '" +
                                   tenant_ + "'");
  }
  tenant_ = req.tenant;
  options_ = req.options;
  device_ = req.device;
  // The shard engines are pinned to one execution thread, exactly like
  // KnnService's (the engine is bit-identical at any worker count; the
  // fan-out across workers is the parallel axis here).
  core::TiOptions shard_options = options_;
  shard_options.sim_threads = 1;
  auto shard = std::make_unique<core::ShardHost>(device_, shard_options);
  shard->offset = static_cast<uint32_t>(req.offset);
  shard->epoch = ++epoch_counter_;
  shard->BuildCold(req.slice);
  dims_ = req.slice.cols();
  shards_[req.shard_index] = std::move(shard);
  return Status::Ok();
}

Status ShardWorker::HandlePrepareSnapshot(const std::string& payload) {
  net::PrepareSnapshotRequest req;
  SK_RETURN_IF_ERROR(net::DecodePrepareSnapshot(payload, &req));
  Result<store::IndexSnapshot> loaded = store::LoadIndexSnapshot(req.path);
  SK_RETURN_IF_ERROR(loaded.status());
  store::IndexSnapshot& snap = loaded.value();
  if (snap.shard_index != req.shard_index) {
    return Status::InvalidArgument(
        req.path + " records shard " + std::to_string(snap.shard_index) +
        ", expected " + std::to_string(req.shard_index));
  }
  SK_RETURN_IF_ERROR(
      store::CheckFingerprints(snap, req.path, req.options, req.device));
  if (dims_ != 0 && snap.target.cols() != dims_) {
    return Status::InvalidArgument(
        req.path + " holds " + std::to_string(snap.target.cols()) +
        "-dimensional points, this worker serves " + std::to_string(dims_));
  }
  if (!shards_.empty() && req.tenant != tenant_) {
    return Status::InvalidArgument(
        "PrepareSnapshot: shard belongs to index '" + req.tenant +
        "', this worker hosts '" + tenant_ + "'");
  }
  tenant_ = req.tenant;
  options_ = req.options;
  device_ = req.device;
  core::TiOptions shard_options = options_;
  shard_options.sim_threads = 1;
  auto shard = std::make_unique<core::ShardHost>(device_, shard_options);
  shard->AdoptOverlay(snap);
  shard->RestoreBase(snap.target, snap.clustering);
  shard->epoch = ++epoch_counter_;
  dims_ = snap.target.cols();
  shards_[req.shard_index] = std::move(shard);
  return Status::Ok();
}

Status ShardWorker::ResolveGroup(const char* what, const std::string& tenant,
                                 const HostMatrix& queries,
                                 const std::vector<uint32_t>& shard_indices,
                                 std::vector<core::ShardHost*>* shards) {
  const std::string where(what);
  if (tenant != tenant_) {
    return Status::InvalidArgument(where + ": names index '" + tenant +
                                   "', this worker hosts '" + tenant_ + "'");
  }
  if (queries.empty()) {
    return Status::InvalidArgument(where + ": empty query matrix");
  }
  if (queries.cols() != dims_) {
    return Status::InvalidArgument(
        where + ": " + std::to_string(queries.cols()) +
        "-dimensional queries, this worker serves " + std::to_string(dims_));
  }
  if (shard_indices.empty()) {
    return Status::InvalidArgument(where + ": no shard indices named");
  }
  shards->clear();
  for (const uint32_t index : shard_indices) {
    core::ShardHost* shard = FindShard(index);
    if (shard == nullptr) {
      return Status::NotFound(where + ": shard " + std::to_string(index) +
                              " is not hosted by this worker");
    }
    shards->push_back(shard);
  }
  queries_served_ += queries.rows();
  return Status::Ok();
}

Status ShardWorker::HandleQuery(const std::string& payload,
                                net::Frame* reply) {
  net::QueryRequest req;
  SK_RETURN_IF_ERROR(net::DecodeQuery(payload, &req));
  std::vector<core::ShardHost*> shards;
  SK_RETURN_IF_ERROR(ResolveGroup("Query", req.tenant, req.queries,
                                  req.shard_indices, &shards));
  net::QueryReply out;
  out.shard_indices = req.shard_indices;
  out.answers.reserve(shards.size());
  for (core::ShardHost* shard : shards) {
    // Both routes answer bit-identically, so the cluster's answers
    // cannot depend on the route the router sent.
    out.answers.push_back(shard->SearchGroup(
        req.queries, static_cast<int>(req.k), req.route, options_.metric));
  }
  reply->type = static_cast<uint32_t>(net::MsgType::kQueryReply);
  reply->payload = net::EncodeQueryReply(out);
  return Status::Ok();
}

Status ShardWorker::HandleRangeQuery(const std::string& payload,
                                     net::Frame* reply) {
  net::RangeQueryRequest req;
  SK_RETURN_IF_ERROR(net::DecodeRangeQuery(payload, &req));
  if (!(req.radius >= 0.0f)) {
    return Status::InvalidArgument("RangeQuery: radius must be >= 0");
  }
  std::vector<core::ShardHost*> shards;
  SK_RETURN_IF_ERROR(ResolveGroup("RangeQuery", req.tenant, req.queries,
                                  req.shard_indices, &shards));
  net::RangeQueryReply out;
  out.shard_indices = req.shard_indices;
  out.answers.reserve(shards.size());
  for (core::ShardHost* shard : shards) {
    out.answers.push_back(
        shard->RangeGroup(req.queries, req.radius, options_.metric));
  }
  reply->type = static_cast<uint32_t>(net::MsgType::kRangeQueryReply);
  reply->payload = net::EncodeRangeQueryReply(out);
  return Status::Ok();
}

Status ShardWorker::HandleInsert(const std::string& payload) {
  net::InsertRequest req;
  SK_RETURN_IF_ERROR(net::DecodeInsert(payload, &req));
  core::ShardHost* shard = FindShard(req.shard_index);
  if (shard == nullptr) {
    return Status::NotFound("Insert: shard " +
                            std::to_string(req.shard_index) +
                            " is not hosted by this worker");
  }
  if (req.point.size() != dims_) {
    return Status::InvalidArgument(
        "Insert: point has " + std::to_string(req.point.size()) +
        " dims, this worker serves " + std::to_string(dims_));
  }
  // The router allocates ids strictly upward; a violation here means a
  // router bug or a replayed frame, not a crash-worthy invariant.
  if (!shard->delta.ids.empty() && req.id <= shard->delta.ids.back()) {
    return Status::InvalidArgument(
        "Insert: id " + std::to_string(req.id) +
        " does not exceed the shard's delta ids");
  }
  if (shard->Owns(req.id)) {
    return Status::InvalidArgument("Insert: id " + std::to_string(req.id) +
                                   " already lives in this shard");
  }
  shard->delta.Append(req.id, req.point.data());
  return Status::Ok();
}

Status ShardWorker::HandleRemove(const std::string& payload,
                                 net::Frame* reply) {
  net::RemoveRequest req;
  SK_RETURN_IF_ERROR(net::DecodeRemove(payload, &req));
  core::ShardHost* shard = FindShard(req.shard_index);
  if (shard == nullptr) {
    return Status::NotFound("Remove: shard " +
                            std::to_string(req.shard_index) +
                            " is not hosted by this worker");
  }
  net::RemoveReply out;
  out.found = shard->ApplyRemove(req.id);
  reply->type = static_cast<uint32_t>(net::MsgType::kRemoveReply);
  reply->payload = net::EncodeRemoveReply(out);
  return Status::Ok();
}

Status ShardWorker::HandleCompact(const std::string& payload) {
  net::CompactRequest req;
  SK_RETURN_IF_ERROR(net::DecodeCompact(payload, &req));
  core::ShardHost* shard = FindShard(req.shard_index);
  if (shard == nullptr) {
    return Status::NotFound("Compact: shard " +
                            std::to_string(req.shard_index) +
                            " is not hosted by this worker");
  }
  // The worker is single-threaded, so the capture/rebuild/install
  // protocol runs synchronously with nothing to race; the identical
  // steps keep the state byte-identical to the in-process compactor's.
  std::unique_ptr<core::ShardHost> fresh = core::CompactNow(shard);
  if (fresh == nullptr) return Status::Ok();  // nothing to fold
  fresh->epoch = ++epoch_counter_;
  shards_[req.shard_index] = std::move(fresh);
  return Status::Ok();
}

Status ShardWorker::HandleSaveShard(const std::string& payload) {
  net::SaveShardRequest req;
  SK_RETURN_IF_ERROR(net::DecodeSaveShard(payload, &req));
  core::ShardHost* shard = FindShard(req.shard_index);
  if (shard == nullptr) {
    return Status::NotFound("SaveShard: shard " +
                            std::to_string(req.shard_index) +
                            " is not hosted by this worker");
  }
  return store::SaveIndexSnapshot(
      shard->Export(req.dataset_name, "ShardWorker::SaveShard",
                    req.shard_index, req.shard_count, req.next_id),
      req.path);
}

Status ShardWorker::HandleExportLive(const std::string& payload,
                                     net::Frame* reply) {
  net::ExportLiveRequest req;
  SK_RETURN_IF_ERROR(net::DecodeExportLive(payload, &req));
  if (req.tenant != tenant_) {
    return Status::InvalidArgument("ExportLive: names index '" + req.tenant +
                                   "', this worker hosts '" + tenant_ + "'");
  }
  if (req.shard_indices.empty()) {
    return Status::InvalidArgument("ExportLive: no shard indices named");
  }
  std::vector<std::vector<uint32_t>> ids(req.shard_indices.size());
  std::vector<HostMatrix> points(req.shard_indices.size());
  size_t total = 0;
  for (size_t s = 0; s < req.shard_indices.size(); ++s) {
    core::ShardHost* shard = FindShard(req.shard_indices[s]);
    if (shard == nullptr) {
      return Status::NotFound("ExportLive: shard " +
                              std::to_string(req.shard_indices[s]) +
                              " is not hosted by this worker");
    }
    shard->ExportLive(&ids[s], &points[s]);
    total += ids[s].size();
  }
  net::ExportLiveReply out;
  out.ids.reserve(total);
  out.points = HostMatrix(total, dims_);
  size_t row = 0;
  for (size_t s = 0; s < ids.size(); ++s) {
    for (size_t r = 0; r < ids[s].size(); ++r, ++row) {
      out.ids.push_back(ids[s][r]);
      std::memcpy(out.points.mutable_row(row), points[s].row(r),
                  dims_ * sizeof(float));
    }
  }
  reply->type = static_cast<uint32_t>(net::MsgType::kExportLiveReply);
  reply->payload = net::EncodeExportLiveReply(out);
  return Status::Ok();
}

net::Frame ShardWorker::HandleHealth() const {
  net::HealthReply out;
  out.queries_served = queries_served_;
  for (const auto& [index, shard] : shards_) {
    net::HealthReply::ShardHealth health;
    health.index = index;
    health.base_rows = shard->base_rows();
    health.delta_points = shard->delta.size();
    health.tombstones = shard->tombstone_count();
    health.live_rows = shard->live_rows();
    out.shards.push_back(health);
  }
  net::Frame reply;
  reply.type = static_cast<uint32_t>(net::MsgType::kHealthReply);
  reply.payload = net::EncodeHealthReply(out);
  return reply;
}

net::Frame ShardWorker::HandleListIndexes() const {
  net::ListIndexesReply out;
  if (!shards_.empty()) out.names.push_back(tenant_);
  net::Frame reply;
  reply.type = static_cast<uint32_t>(net::MsgType::kListIndexesReply);
  reply.payload = net::EncodeListIndexesReply(out);
  return reply;
}

}  // namespace sweetknn::serve
