#ifndef SWEETKNN_SERVE_INDEX_MANAGER_H_
#define SWEETKNN_SERVE_INDEX_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/shard_host.h"

namespace sweetknn::serve {

/// The tenant every legacy single-index call targets. Its snapshots
/// live at the snapshot-dir root (named tenants get
/// "<snapshot_dir>/<tenant>/"), so every pre-multi-tenant directory
/// layout keeps warm-starting unchanged.
inline constexpr const char* kDefaultTenant = "default";

/// One named, independently mutable index: the complete per-tenant
/// state of the multi-tenant service. Everything the single-tenant
/// KnnService used to guard with its one index_mutex_ lives here,
/// guarded by the tenant's own mutex — groups, mutations, compactions,
/// and swaps of different tenants never contend.
///
/// Lifetime: handed out as shared_ptr. A DropIndex removes the tenant
/// from the manager and sets `dropped`; queued requests still holding
/// the pointer drain and fail with NotFound, and the shards die with
/// the last reference.
struct TenantIndex {
  std::string name;
  size_t dims = 0;
  /// Fixed at build time (compactions and swaps replace shards, never
  /// their number), so it is readable without the mutex.
  int num_shards = 0;
  /// Per-tenant snapshot directory ("" = snapshots not configured).
  std::string snapshot_dir;

  /// Guards everything below it that is not atomic: shards (including
  /// their overlays), shard_offsets, target_rows, next_id. Same role —
  /// and same lock order against stats/compact/cache mutexes — as the
  /// old service-wide index_mutex_.
  mutable std::mutex mutex;
  size_t target_rows = 0;
  std::vector<std::unique_ptr<core::ShardHost>> shards;
  std::vector<uint32_t> shard_offsets;
  /// Next stable id Insert allocates; starts at the initial row count.
  uint32_t next_id = 0;

  /// Set by DropIndex. The dispatcher fails queued requests of a
  /// dropped tenant with NotFound instead of searching dead shards.
  std::atomic<bool> dropped{false};

  /// Overlay gauges mirrored out of the locked region, so export paths
  /// and cross-tenant sums never take another tenant's index mutex.
  std::atomic<uint64_t> delta_points{0};
  std::atomic<uint64_t> tombstones{0};
  std::atomic<uint64_t> live_rows{0};

  /// Per-tenant labeled series (TenantLabel(name)), registered by the
  /// service when the tenant is created; pointers stay valid for the
  /// registry's lifetime.
  common::Counter* m_requests = nullptr;
  common::Counter* m_queries = nullptr;
  common::Counter* m_shed = nullptr;
  common::Counter* m_deadline_exceeded = nullptr;
  common::Histogram* m_latency = nullptr;
  common::Gauge* m_live_rows = nullptr;
};

/// The registry of named indexes behind the multi-tenant KnnService:
/// a flat name -> TenantIndex map with validated names (tenant names
/// become snapshot path components and metric label values).
///
/// Thread-safe. The manager's mutex may be taken while holding a
/// tenant's index mutex (gauge sums iterate All()), never the reverse —
/// Install/Drop/Get touch only the map.
class IndexManager {
 public:
  IndexManager() = default;
  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Tenant names travel in snapshot paths, wire frames, and metric
  /// labels: 1-64 chars of [A-Za-z0-9_.-], not starting with a dot.
  static bool ValidName(const std::string& name);

  /// Registers a fully built tenant under its name. InvalidArgument on
  /// a malformed name or a duplicate — the caller built the index off
  /// to the side, so a losing race costs the build, never consistency.
  Status Install(std::shared_ptr<TenantIndex> tenant);

  /// The tenant, or nullptr when unknown (callers map that to NotFound).
  std::shared_ptr<TenantIndex> Get(const std::string& name) const;

  /// Unregisters and returns the tenant so the caller can mark it
  /// dropped and fail its queued work. NotFound when unknown.
  Result<std::shared_ptr<TenantIndex>> Drop(const std::string& name);

  /// Tenant names in lexicographic order.
  std::vector<std::string> List() const;

  /// Every live tenant, in name order.
  std::vector<std::shared_ptr<TenantIndex>> All() const;

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<TenantIndex>> tenants_;
};

}  // namespace sweetknn::serve

#endif  // SWEETKNN_SERVE_INDEX_MANAGER_H_
