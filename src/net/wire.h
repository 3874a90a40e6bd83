#ifndef SWEETKNN_NET_WIRE_H_
#define SWEETKNN_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/knn_result.h"
#include "common/matrix.h"
#include "common/range_result.h"
#include "common/status.h"
#include "core/options.h"
#include "core/range_search.h"
#include "core/shard_merge.h"
#include "gpusim/device_spec.h"

namespace sweetknn::net {

/// RPC message types carried in the frame header (docs/distributed.md).
/// Payloads are encoded with the .sksnap payload codec
/// (store/payload_io.h): native-endian scalars, u64-length-prefixed
/// strings and arrays, every decoder bounds-checked.
enum class MsgType : uint32_t {
  kError = 1,  ///< Any request may be answered with an Error payload.
  kAck = 2,    ///< Empty payload: the request succeeded.

  kPrepareCold = 10,      ///< Build one shard from a target slice.
  kPrepareSnapshot = 11,  ///< Adopt one shard from a .sksnap file.

  kQuery = 20,  ///< One same-k group against this worker's shards.
  kQueryReply = 21,
  kRangeQuery = 22,  ///< One same-radius group against its shards.
  kRangeQueryReply = 23,

  kInsert = 30,  ///< Append one point to a shard's delta.
  kRemove = 31,
  kRemoveReply = 32,
  kCompact = 33,  ///< Synchronously fold one shard's overlay.

  kSaveShard = 40,  ///< Export one shard as a .sksnap (replica catch-up).

  kHealth = 50,
  kHealthReply = 51,

  kShutdown = 60,  ///< Worker acks, then exits its serve loop.

  kListIndexes = 70,  ///< Names of the indexes this worker hosts.
  kListIndexesReply = 71,

  // 80-85 are retired and must not be reused: a peer still sending them
  // gets an "unknown message type" Error frame, never a misread payload.
  kExportLive = 86,  ///< Live ids + points of the named shards.
  kExportLiveReply = 87,
};

// --- Prepare ----------------------------------------------------------------

/// Cold-builds one shard on the worker: PrepareTarget over `slice`, which
/// covers global rows [offset, offset + slice.rows()). The options /
/// device blocks ride in every prepare so a bare worker process needs no
/// configuration of its own.
struct PrepareColdRequest {
  uint32_t shard_index = 0;
  uint64_t offset = 0;
  HostMatrix slice;
  core::TiOptions options;
  gpusim::DeviceSpec device;
  /// Named index this shard belongs to (docs/serving.md). The distributed
  /// tier serves one tenant per cluster today; workers record the name at
  /// prepare time and reject queries that name a different one.
  std::string tenant = "default";
};

/// Warm-starts (or replica-catches-up) one shard from a snapshot file the
/// worker reads itself — the bulk bytes never cross the socket twice.
/// The snapshot's fingerprints must match `options`/`device`.
struct PrepareSnapshotRequest {
  uint32_t shard_index = 0;
  std::string path;
  core::TiOptions options;
  gpusim::DeviceSpec device;
  /// Named index this shard belongs to (see PrepareColdRequest::tenant).
  std::string tenant = "default";
};

// --- Query ------------------------------------------------------------------

/// One same-k query group, fanned to every shard this worker hosts that
/// appears in `shard_indices` (the router names them so a replica host
/// answers only for the shards it is primary of). The decoder refuses
/// k = 0, k > INT_MAX and route values other than 1 and 2.
struct QueryRequest {
  uint32_t k = 0;
  /// The base-scan route of every named shard, chosen by the router's
  /// front-end for the whole group.
  core::QueryRoute route = core::QueryRoute::kHost;
  HostMatrix queries;
  std::vector<uint32_t> shard_indices;
  /// Named index the group targets. Workers answer only for the tenant
  /// they were prepared with — a mismatch is an InvalidArgument error
  /// frame, never a silent cross-tenant answer.
  std::string tenant = "default";
};

/// Per-shard answers, parallel to `shard_indices`.
struct QueryReply {
  std::vector<uint32_t> shard_indices;
  std::vector<core::ShardAnswer> answers;
};

/// One same-radius range group, the radius twin of QueryRequest.
struct RangeQueryRequest {
  float radius = 0.0f;
  HostMatrix queries;
  std::vector<uint32_t> shard_indices;
  std::string tenant = "default";
};

/// Per-shard range answers (stable ids, route, scan counters), parallel
/// to `shard_indices`.
struct RangeQueryReply {
  std::vector<uint32_t> shard_indices;
  std::vector<core::RangeShardAnswer> answers;
};

// --- Mutations --------------------------------------------------------------

struct InsertRequest {
  uint32_t shard_index = 0;
  uint32_t id = 0;  ///< Stable id, allocated by the router.
  std::vector<float> point;
};

struct RemoveRequest {
  uint32_t shard_index = 0;
  uint32_t id = 0;
};

struct RemoveReply {
  bool found = false;
};

struct CompactRequest {
  uint32_t shard_index = 0;
};

// --- Snapshots / health -----------------------------------------------------

/// Exports one shard to `path` as a .sksnap the PrepareSnapshot of
/// another worker can adopt (replica catch-up; docs/distributed.md).
struct SaveShardRequest {
  uint32_t shard_index = 0;
  /// Global shard count, recorded as the snapshot's shard geometry.
  uint32_t shard_count = 1;
  std::string path;
  std::string dataset_name;
  /// The router's global id allocator position, recorded in mutated
  /// snapshots (must exceed every id in the file).
  uint32_t next_id = 0;
};

/// Names of the indexes a worker hosts (kListIndexes has an empty
/// payload). One name per distinct tenant across the hosted shards —
/// today at most one, but the wire shape already carries many.
struct ListIndexesReply {
  std::vector<std::string> names;
};

// --- Live-set export --------------------------------------------------------

/// Asks for the live points of the named shards — the query source of
/// the self-join and kNN-graph jobs on the cluster (the wire side of
/// Router::ExportLive, over core::ShardHost::ExportLive).
struct ExportLiveRequest {
  std::vector<uint32_t> shard_indices;
  std::string tenant = "default";
};

/// Parallel ids/points, ascending id within each shard; the router
/// re-sorts globally.
struct ExportLiveReply {
  std::vector<uint32_t> ids;
  HostMatrix points;
};

struct HealthReply {
  uint64_t queries_served = 0;
  struct ShardHealth {
    uint32_t index = 0;
    uint64_t base_rows = 0;
    uint64_t delta_points = 0;
    uint64_t tombstones = 0;
    uint64_t live_rows = 0;
  };
  std::vector<ShardHealth> shards;
};

// --- Codecs -----------------------------------------------------------------
// Every message has an Encode producing the frame payload and a Decode
// that rejects malformed payloads with a clean Status (never a crash:
// tests/net/frame_fuzz_test.cc drives these over corrupted bytes too).

std::string EncodePrepareCold(const PrepareColdRequest& req);
Status DecodePrepareCold(const std::string& payload, PrepareColdRequest* req);

std::string EncodePrepareSnapshot(const PrepareSnapshotRequest& req);
Status DecodePrepareSnapshot(const std::string& payload,
                             PrepareSnapshotRequest* req);

std::string EncodeQuery(const QueryRequest& req);
Status DecodeQuery(const std::string& payload, QueryRequest* req);

std::string EncodeQueryReply(const QueryReply& reply);
Status DecodeQueryReply(const std::string& payload, QueryReply* reply);

std::string EncodeRangeQuery(const RangeQueryRequest& req);
Status DecodeRangeQuery(const std::string& payload, RangeQueryRequest* req);

std::string EncodeRangeQueryReply(const RangeQueryReply& reply);
Status DecodeRangeQueryReply(const std::string& payload,
                             RangeQueryReply* reply);

std::string EncodeInsert(const InsertRequest& req);
Status DecodeInsert(const std::string& payload, InsertRequest* req);

std::string EncodeRemove(const RemoveRequest& req);
Status DecodeRemove(const std::string& payload, RemoveRequest* req);

std::string EncodeRemoveReply(const RemoveReply& reply);
Status DecodeRemoveReply(const std::string& payload, RemoveReply* reply);

std::string EncodeCompact(const CompactRequest& req);
Status DecodeCompact(const std::string& payload, CompactRequest* req);

std::string EncodeSaveShard(const SaveShardRequest& req);
Status DecodeSaveShard(const std::string& payload, SaveShardRequest* req);

std::string EncodeHealthReply(const HealthReply& reply);
Status DecodeHealthReply(const std::string& payload, HealthReply* reply);

std::string EncodeExportLive(const ExportLiveRequest& req);
Status DecodeExportLive(const std::string& payload, ExportLiveRequest* req);

std::string EncodeExportLiveReply(const ExportLiveReply& reply);
Status DecodeExportLiveReply(const std::string& payload,
                             ExportLiveReply* reply);

std::string EncodeListIndexesReply(const ListIndexesReply& reply);
Status DecodeListIndexesReply(const std::string& payload,
                              ListIndexesReply* reply);

/// An Error frame's payload: the failing Status, round-tripped so the
/// router sees the worker's exact code + message.
std::string EncodeError(const Status& status);
/// Reconstructs the Status carried by an Error payload. A malformed
/// error payload yields an IoError describing that instead.
Status DecodeError(const std::string& payload);

}  // namespace sweetknn::net

#endif  // SWEETKNN_NET_WIRE_H_
