#include "serve/knn_service.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/device_points.h"
#include "core/shard_merge.h"

namespace sweetknn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Stable ids of one snapshot's base rows, in row order.
uint32_t SnapshotBaseId(const store::IndexSnapshot& snap, size_t row) {
  return snap.id_map.empty()
             ? static_cast<uint32_t>(snap.shard_offset + row)
             : snap.id_map[row];
}

}  // namespace

KnnService::KnnService(const HostMatrix& target, const ServiceConfig& config)
    : config_(config),
      dims_(target.cols()),
      front_end_(config, this, &metrics_) {
  SK_CHECK(!target.empty()) << "KnnService needs a non-empty target set";
  InitMetrics();
  std::shared_ptr<TenantIndex> tenant =
      BuildTenant(kDefaultTenant, target);
  // config_ carries the default tenant's effective shard count from here
  // on: it is the one count readable without any index mutex (a tenant's
  // count never changes after its build; SwapIndex replaces shards,
  // never their number).
  config_.num_shards = tenant->num_shards;
  Open(std::move(tenant));
}

KnnService::KnnService(AdoptTag, std::vector<store::IndexSnapshot> snapshots,
                       const ServiceConfig& config)
    : config_(config),
      dims_(snapshots[0].target.cols()),
      front_end_(config, this, &metrics_) {
  config_.num_shards = static_cast<int>(snapshots.size());
  InitMetrics();
  std::shared_ptr<TenantIndex> tenant =
      NewTenant(kDefaultTenant, dims_, static_cast<int>(snapshots.size()));
  ShardSet set = BuildShardsFromSnapshots(std::move(snapshots));
  for (std::unique_ptr<Shard>& shard : set.shards) {
    shard->epoch = ++epoch_counter_;
  }
  tenant->shards = std::move(set.shards);
  tenant->shard_offsets = std::move(set.offsets);
  tenant->target_rows = set.live_rows;
  tenant->next_id = set.next_id;
  {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    UpdateOverlayGaugesLocked(tenant.get());
  }
  Open(std::move(tenant));
}

Result<std::unique_ptr<KnnService>> KnnService::FromSnapshots(
    const std::string& dir, const ServiceConfig& config) {
  Result<std::vector<std::string>> listed = store::ListShardSnapshots(dir);
  if (!listed.ok()) return listed.status();
  const int num_shards = static_cast<int>(listed.value().size());
  Result<std::vector<store::IndexSnapshot>> loaded = LoadShardSet(
      dir, num_shards, config, /*dims=*/0, /*allow_overlay=*/true);
  if (!loaded.ok()) return loaded.status();
  return std::unique_ptr<KnnService>(
      new KnnService(AdoptTag{}, std::move(loaded).value(), config));
}

KnnService::~KnnService() { Shutdown(); }

void KnnService::Open(std::shared_ptr<TenantIndex> tenant) {
  default_tenant_ = tenant;
  const Status installed = manager_.Install(std::move(tenant));
  SK_CHECK(installed.ok()) << installed.ToString();
  front_end_.SetWeight(kDefaultTenant, 1.0);
  RefreshGlobalOverlayGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  front_end_.Start();
  if (config_.auto_compact) {
    compactor_ = std::thread(&KnnService::CompactorLoop, this);
  }
}

std::string KnnService::TenantSnapshotDir(const std::string& name) const {
  if (config_.snapshot_dir.empty()) return std::string();
  if (name == kDefaultTenant) return config_.snapshot_dir;
  return (std::filesystem::path(config_.snapshot_dir) / name).string();
}

Result<std::shared_ptr<TenantIndex>> KnnService::ResolveTenant(
    const std::string& name) const {
  std::shared_ptr<TenantIndex> tenant = manager_.Get(name);
  if (!tenant) return Status::NotFound("no index named '" + name + "'");
  return tenant;
}

std::shared_ptr<TenantIndex> KnnService::NewTenant(const std::string& name,
                                                   size_t dims,
                                                   int num_shards) {
  auto tenant = std::make_shared<TenantIndex>();
  tenant->name = name;
  tenant->dims = dims;
  tenant->num_shards = num_shards;
  tenant->snapshot_dir = TenantSnapshotDir(name);
  front_end_.RegisterTenant(tenant.get());
  tenant->m_live_rows = metrics_.GetGauge(
      "sweetknn_tenant_live_rows", common::TenantLabel(name),
      "Live target rows of this tenant");
  return tenant;
}

std::shared_ptr<TenantIndex> KnnService::BuildTenant(
    const std::string& name, const HostMatrix& target) {
  const int num_shards = std::clamp(
      config_.num_shards, 1, static_cast<int>(target.rows()));
  std::shared_ptr<TenantIndex> tenant =
      NewTenant(name, target.cols(), num_shards);
  tenant->target_rows = target.rows();
  const std::string& snapshot_dir = tenant->snapshot_dir;

  // The shard fan-out below is the host-parallel axis for each shard's
  // host Step 1, and the fan-out of every query group for the device
  // route's engine. Each shard therefore runs one execution thread: a
  // region nested inside the fan-out would only run inline anyway — and
  // by the execution engine's guarantee this changes nothing but
  // wall-clock.
  core::TiOptions shard_options = config_.options;
  shard_options.sim_threads = 1;

  const size_t dims = tenant->dims;
  const size_t base = target.rows() / static_cast<size_t>(num_shards);
  const size_t rem = target.rows() % static_cast<size_t>(num_shards);
  std::vector<HostMatrix> slices;
  size_t offset = 0;
  for (int s = 0; s < num_shards; ++s) {
    const size_t rows = base + (static_cast<size_t>(s) < rem ? 1 : 0);
    HostMatrix slice(rows, dims);
    std::memcpy(slice.mutable_data(), target.row(offset),
                rows * dims * sizeof(float));
    slices.push_back(std::move(slice));
    auto shard = std::make_unique<Shard>(config_.device, shard_options);
    shard->offset = static_cast<uint32_t>(offset);
    shard->set_base_rows(rows);
    shard->delta.dims = dims;
    shard->epoch = ++epoch_counter_;
    tenant->shard_offsets.push_back(static_cast<uint32_t>(offset));
    tenant->shards.push_back(std::move(shard));
    offset += rows;
  }
  // The constructor's rows carry stable ids 0..rows-1; Insert allocates
  // upward from here.
  tenant->next_id = static_cast<uint32_t>(target.rows());

  // Warm start: restore the prepared indexes from the tenant's snapshot
  // directory if one is configured and its contents match this tenant
  // exactly; anything less falls back to the cold build below
  // (correctness never depends on the snapshots). Overlay (v2) sets are
  // rejected here — the byte-compare below only makes sense for pristine
  // indexes; mutated sets are adopted with FromSnapshots instead.
  std::vector<store::IndexSnapshot> snapshots;
  bool warm = false;
  if (!snapshot_dir.empty()) {
    Result<std::vector<store::IndexSnapshot>> loaded =
        LoadShardSet(snapshot_dir, num_shards, config_, dims,
                     /*allow_overlay=*/false);
    if (loaded.ok()) {
      snapshots = std::move(loaded).value();
      warm = true;
      for (int s = 0; s < num_shards; ++s) {
        const auto idx = static_cast<size_t>(s);
        const store::IndexSnapshot& snap = snapshots[idx];
        if (snap.shard_offset != tenant->shard_offsets[idx] ||
            snap.target.rows() != slices[idx].rows() ||
            std::memcmp(snap.target.data(), slices[idx].data(),
                        slices[idx].size() * sizeof(float)) != 0) {
          SK_LOG(Warning) << "KnnService: snapshot shard " << s
                          << " of index '" << name
                          << "' does not hold this target's bytes; "
                          << "cold-building all shards";
          warm = false;
          break;
        }
      }
    } else {
      SK_LOG(Warning) << "KnnService: warm start of index '" << name
                      << "' from '" << snapshot_dir << "' failed ("
                      << loaded.status().ToString()
                      << "); cold-building all shards";
    }
  }

  // Build the per-shard indexes in parallel; each BuildCold /
  // RestoreBase touches only its own shard.
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    if (warm) {
      // A warm set is pristine and tiles this target exactly (checked
      // above), so the geometry set from the slices already holds.
      tenant->shards[idx]->RestoreBase(snapshots[idx].target,
                                       snapshots[idx].clustering);
    } else {
      tenant->shards[idx]->BuildCold(slices[idx]);
    }
  });
  if (warm) m_warm_started_shards_->Increment(num_shards);

  {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    UpdateOverlayGaugesLocked(tenant.get());
  }
  return tenant;
}

// ---------------------------------------------------------------------------
// Index management
// ---------------------------------------------------------------------------

Status KnnService::CreateIndex(const std::string& name,
                               const HostMatrix& target, double weight) {
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::Unavailable(
        "KnnService is shut down; CreateIndex rejected");
  }
  if (!IndexManager::ValidName(name)) {
    return Status::InvalidArgument(
        "'" + name +
        "' is not a valid index name (1-64 chars of [A-Za-z0-9_.-], "
        "not starting with a dot)");
  }
  if (target.empty()) {
    return Status::InvalidArgument("index '" + name +
                                   "' needs a non-empty target set");
  }
  // Pre-check so a duplicate never pays for the build; Install
  // re-validates, so a racing CreateIndex loses the build, never
  // consistency.
  if (manager_.Get(name)) {
    return Status::InvalidArgument("an index named '" + name +
                                   "' already exists");
  }
  std::shared_ptr<TenantIndex> tenant =
      BuildTenant(name, target);
  SK_RETURN_IF_ERROR(manager_.Install(tenant));
  front_end_.SetWeight(name, weight);
  RefreshGlobalOverlayGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  return Status::Ok();
}

Status KnnService::DropIndex(const std::string& name) {
  if (name == kDefaultTenant) {
    return Status::InvalidArgument("the default index cannot be dropped");
  }
  Result<std::shared_ptr<TenantIndex>> dropped = manager_.Drop(name);
  if (!dropped.ok()) return dropped.status();
  dropped.value()->dropped.store(true, std::memory_order_release);
  // Empty sub-queues forget their bookkeeping now; queued requests keep
  // the sub-queue alive until the dispatcher drains and fails them.
  front_end_.Forget(name);
  // A recreated same-name index must never serve answers cached against
  // the dropped one.
  BumpCacheEpoch();
  ClearCache();
  RefreshGlobalOverlayGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  return Status::Ok();
}

std::vector<std::string> KnnService::ListIndexes() const {
  return manager_.List();
}

Status KnnService::SetIndexWeight(const std::string& name, double weight) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(name);
  if (!resolved.ok()) return resolved.status();
  front_end_.SetWeight(name, weight);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Metrics registration
// ---------------------------------------------------------------------------

void KnnService::InitMetrics() {
  const std::vector<double> latency = common::LatencyBucketsSeconds();
  m_cache_lookups_ = metrics_.GetCounter(
      "sweetknn_cache_lookups_total", "Result-cache lookups");
  m_cache_hits_ = metrics_.GetCounter(
      "sweetknn_cache_hits_total", "Result-cache hits");
  m_cache_stale_drops_ = metrics_.GetCounter(
      "sweetknn_cache_stale_drops_total",
      "Cache inserts dropped because a swap, mutation, or compaction "
      "completed first");
  m_warm_started_shards_ = metrics_.GetCounter(
      "sweetknn_warm_started_shards_total",
      "Shards restored from snapshots at index build (0 = cold builds)");
  m_index_swaps_ = metrics_.GetCounter(
      "sweetknn_index_swaps_total", "Completed SwapIndex calls");
  m_inserts_ = metrics_.GetCounter(
      "sweetknn_inserts_total", "Points admitted through Insert/InsertBatch");
  m_removes_ = metrics_.GetCounter(
      "sweetknn_removes_total", "Successful Remove calls");
  m_remove_misses_ = metrics_.GetCounter(
      "sweetknn_remove_misses_total",
      "Remove calls naming an unknown or already-removed id");
  m_compactions_ = metrics_.GetCounter(
      "sweetknn_compactions_total",
      "Shard compactions installed (background or explicit)");
  m_compaction_aborts_ = metrics_.GetCounter(
      "sweetknn_compaction_aborts_total",
      "Compactions abandoned because a swap superseded the shard");
  m_compacted_rows_ = metrics_.GetCounter(
      "sweetknn_compacted_rows_total",
      "Rows clustered into fresh bases by compactions");
  m_compaction_seconds_ = metrics_.GetHistogram(
      "sweetknn_compaction_seconds",
      "Host wall-clock of one shard compaction (capture to install)",
      latency);
  m_tenants_ = metrics_.GetGauge(
      "sweetknn_tenants", "Live named indexes (including the default)");
  m_index_generation_ = metrics_.GetGauge(
      "sweetknn_index_generation", "Live index generation (SwapIndex count)");
  m_delta_points_ = metrics_.GetGauge(
      "sweetknn_delta_points",
      "Current delta-buffered points, summed over shards");
  m_tombstones_ = metrics_.GetGauge(
      "sweetknn_tombstones", "Current tombstoned ids, summed over shards");
  m_live_rows_ = metrics_.GetGauge(
      "sweetknn_live_rows",
      "Live target rows: base minus tombstones plus delta");
}

void KnnService::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(compact_mutex_);
    compactor_stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  front_end_.Shutdown();
}

// ---------------------------------------------------------------------------
// Admission and queries
// ---------------------------------------------------------------------------

Result<std::vector<Neighbor>> KnnService::Search(
    const std::vector<float>& query_point, int k,
    const ann::SearchMode& /*mode*/, const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  SK_RETURN_IF_ERROR(
      CheckPoints("Search", 1, query_point.size(), tenant->dims));
  SK_RETURN_IF_ERROR(CheckK("Search", k));
  const SteadyClock::time_point start = SteadyClock::now();
  // Captured before the answer is computed: if a swap, mutation, or
  // compaction completes while this request is in flight, the cache
  // insert below must be dropped.
  const uint64_t epoch = cache_epoch_.load(std::memory_order_acquire);
  std::string key;
  if (config_.cache_capacity > 0) {
    key = CacheKey(tenant->name, query_point.data(), tenant->dims, k);
    std::vector<Neighbor> cached;
    if (CacheLookup(key, &cached)) {
      front_end_.CountCacheHit(tenant.get(),
                               SecondsBetween(start, SteadyClock::now()));
      return cached;
    }
  }

  Result<KnnResult> result =
      front_end_.Knn(tenant, query_point, 1, k, opts.timeout);
  if (!result.ok()) return result.status();
  const KnnResult& answer = result.value();
  std::vector<Neighbor> neighbors(answer.row(0), answer.row(0) + answer.k());
  if (config_.cache_capacity > 0) {
    if (pre_cache_insert_hook_) pre_cache_insert_hook_();
    CacheInsert(key, neighbors, epoch);
  }
  return neighbors;
}

Result<KnnResult> KnnService::JoinBatch(const HostMatrix& queries, int k,
                                        const ann::SearchMode& /*mode*/,
                                        const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  SK_RETURN_IF_ERROR(CheckPoints("JoinBatch", queries.rows(), queries.cols(),
                                 tenant->dims));
  SK_RETURN_IF_ERROR(CheckK("JoinBatch", k));
  return front_end_.Knn(tenant, queries.storage(), queries.rows(), k,
                        opts.timeout);
}

// ---------------------------------------------------------------------------
// Range queries and offline jobs (docs/modalities.md)
// ---------------------------------------------------------------------------

Result<RangeResult> KnnService::RadiusSearch(const HostMatrix& queries,
                                             float radius,
                                             const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  SK_RETURN_IF_ERROR(CheckPoints("RadiusSearch", queries.rows(),
                                 queries.cols(), tenant->dims));
  SK_RETURN_IF_ERROR(CheckRadius("RadiusSearch", radius));
  return front_end_.Range(tenant, queries.storage(), queries.rows(), radius,
                          opts.timeout);
}

Result<uint64_t> KnnService::SubmitJob(const JobSpec& spec) {
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(spec.tenant);
  if (!tenant.ok()) return tenant.status();
  return front_end_.SubmitJob(std::move(tenant).value(), spec);
}

Result<JobProgress> KnnService::PollJob(uint64_t job_id) const {
  return front_end_.PollJob(job_id);
}

Status KnnService::CancelJob(uint64_t job_id) {
  return front_end_.CancelJob(job_id);
}

Result<JobOutput> KnnService::TakeJobResult(uint64_t job_id) {
  return front_end_.TakeJobResult(job_id);
}

Result<std::vector<SelfJoinPair>> KnnService::SelfJoin(
    float radius, const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(opts.tenant);
  if (!tenant.ok()) return tenant.status();
  return front_end_.SelfJoin(std::move(tenant).value(), radius);
}

Result<JobOutput> KnnService::KnnGraph(int k, const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> tenant = ResolveTenant(opts.tenant);
  if (!tenant.ok()) return tenant.status();
  return front_end_.KnnGraph(std::move(tenant).value(), k);
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

Result<uint32_t> KnnService::Insert(const std::vector<float>& point,
                                    const CallOptions& opts) {
  if (point.empty()) return Status::InvalidArgument("Insert: empty point");
  HostMatrix one(1, point.size());
  std::memcpy(one.mutable_data(), point.data(),
              point.size() * sizeof(float));
  Result<std::vector<uint32_t>> ids = InsertBatch(one, opts);
  if (!ids.ok()) return ids.status();
  return ids.value()[0];
}

Result<std::vector<uint32_t>> KnnService::InsertBatch(
    const HostMatrix& points, const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  SK_RETURN_IF_ERROR(CheckPoints("Insert", points.rows(), points.cols(),
                                 tenant->dims));
  std::vector<uint32_t> ids;
  ids.reserve(points.rows());
  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::Unavailable(
          "KnnService is shut down; insert rejected");
    }
    for (size_t r = 0; r < points.rows(); ++r) {
      const uint32_t id = tenant->next_id++;
      Shard& shard =
          *tenant->shards[id % static_cast<uint32_t>(tenant->shards.size())];
      shard.delta.Append(id, points.row(r));
      ids.push_back(id);
      ++tenant->target_rows;
    }
    BumpCacheEpoch();
    UpdateOverlayGaugesLocked(tenant.get());
    for (const std::unique_ptr<Shard>& shard : tenant->shards) {
      MaybeScheduleCompaction(*shard);
    }
  }
  RefreshGlobalOverlayGauges();
  ClearCache();
  m_inserts_->Increment(static_cast<double>(ids.size()));
  return ids;
}

Result<bool> KnnService::Remove(uint32_t id, const CallOptions& opts) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(opts.tenant);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  bool removed = false;
  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::Unavailable(
          "KnnService is shut down; remove rejected");
    }
    const int s = OwningShard(*tenant, id);
    if (s >= 0) {
      Shard& shard = *tenant->shards[static_cast<size_t>(s)];
      removed = shard.ApplyRemove(id);
      if (removed) {
        --tenant->target_rows;
        BumpCacheEpoch();
        UpdateOverlayGaugesLocked(tenant.get());
        MaybeScheduleCompaction(shard);
      }
    }
  }
  if (removed) {
    RefreshGlobalOverlayGauges();
    ClearCache();
  }
  (removed ? m_removes_ : m_remove_misses_)->Increment();
  return removed;
}

int KnnService::OwningShard(const TenantIndex& tenant, uint32_t id) const {
  for (size_t s = 0; s < tenant.shards.size(); ++s) {
    if (tenant.shards[s]->Owns(id)) return static_cast<int>(s);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// In-process shard transport
// ---------------------------------------------------------------------------

Status KnnService::SearchGroup(const TenantIndex& tenant,
                               const HostMatrix& queries, int k,
                               core::QueryRoute route,
                               std::vector<core::ShardAnswer>* answers,
                               double* fanout_seconds) {
  // The whole group runs against one index state of one tenant: a
  // concurrent SwapIndex, mutation, or compaction install of this
  // tenant waits here (or we wait for it), so no request's rows can
  // straddle an index change — and other tenants' mutexes are never
  // touched, so their mutations never stall this group.
  std::lock_guard<std::mutex> index_lock(tenant.mutex);
  const int num_shards = static_cast<int>(tenant.shards.size());
  // The per-shard work — base scan (over-queried when mutated), delta
  // side scan, shard-local merge — lives in ShardHost::SearchGroup, the
  // one code path the remote shard workers run too.
  answers->assign(static_cast<size_t>(num_shards), core::ShardAnswer{});
  const SteadyClock::time_point start = SteadyClock::now();
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    (*answers)[idx] = tenant.shards[idx]->SearchGroup(
        queries, k, route, config_.options.metric);
  });
  *fanout_seconds = SecondsBetween(start, SteadyClock::now());
  return Status::Ok();
}

Status KnnService::RangeGroup(const TenantIndex& tenant,
                              const HostMatrix& queries, float radius,
                              std::vector<core::RangeShardAnswer>* answers,
                              double* fanout_seconds) {
  // Same index-mutex scope as SearchGroup; no route (every shard runs
  // its TI range scan on the host).
  std::lock_guard<std::mutex> index_lock(tenant.mutex);
  const int num_shards = static_cast<int>(tenant.shards.size());
  answers->assign(static_cast<size_t>(num_shards), core::RangeShardAnswer{});
  const SteadyClock::time_point start = SteadyClock::now();
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    (*answers)[idx] =
        tenant.shards[idx]->RangeGroup(queries, radius, config_.options.metric);
  });
  *fanout_seconds = SecondsBetween(start, SteadyClock::now());
  return Status::Ok();
}

Status KnnService::ExportLive(const TenantIndex& tenant,
                              std::vector<uint32_t>* ids,
                              HostMatrix* points) {
  std::vector<std::vector<uint32_t>> shard_ids;
  std::vector<HostMatrix> shard_points;
  {
    std::lock_guard<std::mutex> lock(tenant.mutex);
    shard_ids.resize(tenant.shards.size());
    shard_points.resize(tenant.shards.size());
    for (size_t s = 0; s < tenant.shards.size(); ++s) {
      tenant.shards[s]->ExportLive(&shard_ids[s], &shard_points[s]);
    }
  }
  // The cross-shard sort runs off the lock.
  MergeLiveExports(shard_ids, shard_points, tenant.dims, ids, points);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

bool KnnService::OverThreshold(const Shard& shard) const {
  if (config_.compact_delta_fraction <= 0.0) return false;
  const size_t overlay = shard.delta.size() + shard.tombstone_count();
  if (overlay == 0) return false;
  return static_cast<double>(overlay) >
         config_.compact_delta_fraction *
             static_cast<double>(std::max<size_t>(shard.base_rows(), 1));
}

void KnnService::MaybeScheduleCompaction(const Shard& shard) {
  if (!config_.auto_compact) return;
  if (shard.compact_watermark != kNoCompaction) return;
  if (!OverThreshold(shard)) return;
  {
    std::lock_guard<std::mutex> lock(compact_mutex_);
    compact_pending_ = true;
  }
  compact_cv_.notify_one();
}

int KnnService::PickCompactionCandidate(TenantIndex* tenant) {
  std::lock_guard<std::mutex> index_lock(tenant->mutex);
  for (size_t s = 0; s < tenant->shards.size(); ++s) {
    const Shard& shard = *tenant->shards[s];
    if (shard.compact_watermark == kNoCompaction && OverThreshold(shard) &&
        shard.live_rows() > 0) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

void KnnService::CompactorLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(compact_mutex_);
      compact_cv_.wait(lock,
                       [this] { return compact_pending_ || compactor_stop_; });
      if (compactor_stop_) return;
      compact_pending_ = false;
    }
    // Drain every over-threshold shard of every tenant, one rebuild at a
    // time; serving continues throughout (a tenant's index lock is only
    // held for the capture and the install).
    for (;;) {
      if (stopping_.load(std::memory_order_acquire)) break;
      bool progressed = false;
      bool failed = false;
      for (const std::shared_ptr<TenantIndex>& tenant : manager_.All()) {
        if (stopping_.load(std::memory_order_acquire)) break;
        const int candidate = PickCompactionCandidate(tenant.get());
        if (candidate < 0) continue;
        // An abort (epoch superseded by a swap) is already counted; any
        // other status here would be a logic error worth the log line.
        const Status status =
            CompactShardInternal(tenant.get(), candidate);
        if (!status.ok() && status.code() != StatusCode::kUnavailable) {
          SK_LOG(Warning) << "KnnService: background compaction of shard "
                          << candidate << " of index '" << tenant->name
                          << "' failed: " << status.ToString();
          failed = true;
          break;
        }
        progressed = true;
      }
      if (failed || !progressed) break;
    }
  }
}

Status KnnService::CompactShard(int shard) {
  return CompactShard(kDefaultTenant, shard);
}

Status KnnService::CompactShard(const std::string& tenant_name, int shard) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  // The shard count is fixed at build time (SwapIndex replaces the shards
  // but never their number), so checking it needs no index mutex.
  if (shard < 0 || shard >= resolved.value()->num_shards) {
    return Status::InvalidArgument("no such shard: " +
                                   std::to_string(shard));
  }
  return CompactShardInternal(resolved.value().get(), shard);
}

Status KnnService::CompactAll() { return CompactAll(kDefaultTenant); }

Status KnnService::CompactAll(const std::string& tenant_name) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  const std::shared_ptr<TenantIndex> tenant = std::move(resolved).value();
  for (int s = 0; s < tenant->num_shards; ++s) {
    SK_RETURN_IF_ERROR(CompactShardInternal(tenant.get(), s));
  }
  return Status::Ok();
}

Status KnnService::CompactShardInternal(TenantIndex* tenant, int s) {
  const SteadyClock::time_point start = SteadyClock::now();
  core::CompactionPlan plan;
  // Capture: everything the rebuild needs, snapshotted under the tenant's
  // index lock. The consumed prefix is delta[0..watermark); entries
  // appended after the capture stay in the suffix and carry over
  // untouched.
  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    Shard& shard = *tenant->shards[static_cast<size_t>(s)];
    if (shard.compact_watermark != kNoCompaction) {
      return Status::Unavailable(
          "shard " + std::to_string(s) +
          " already has a compaction in flight");
    }
    if (shard.OverlayEmpty()) return Status::Ok();  // nothing to fold
    if (shard.live_rows() == 0) {
      // Every point removed: an empty base cannot be clustered. The
      // overlay stays as is; queries keep answering all padding.
      return Status::Ok();
    }
    core::CaptureCompaction(&shard, &plan);
  }

  // Rebuild off-lock: a fresh shard, cold-built over the captured points
  // exactly as at start-up (a full Step-1 clustering on the host).
  // Serving continues against the old shard the whole time. The
  // capture/rebuild/carry-over protocol is shared with the shard workers
  // (core/shard_host.h), so a compaction on either backend produces the
  // identical fresh shard.
  core::TiOptions shard_options = config_.options;
  shard_options.sim_threads = 1;
  std::unique_ptr<Shard> fresh =
      core::RebuildCompacted(plan, config_.device, shard_options);

  // Install: only if the shard we captured from is still the live one
  // (a SwapIndex assigns fresh epochs, orphaning this rebuild).
  std::unique_ptr<Shard> retired;
  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    if (static_cast<size_t>(s) >= tenant->shards.size() ||
        tenant->shards[static_cast<size_t>(s)]->epoch != plan.epoch) {
      m_compaction_aborts_->Increment();
      return Status::Unavailable(
          "shard " + std::to_string(s) +
          " was replaced while its compaction ran; rebuild discarded");
    }
    // Mutations that landed during the rebuild carry over: the delta
    // suffix verbatim (its entries are never tombstoned — removes past
    // the watermark erase physically), and removes of captured rows as
    // tombstones of the new base.
    core::CarryOverlayForward(*tenant->shards[static_cast<size_t>(s)], plan,
                              fresh.get());
    fresh->epoch = ++epoch_counter_;
    tenant->shards[static_cast<size_t>(s)].swap(fresh);
    tenant->shard_offsets[static_cast<size_t>(s)] =
        tenant->shards[static_cast<size_t>(s)]->offset;
    retired = std::move(fresh);
    BumpCacheEpoch();
    UpdateOverlayGaugesLocked(tenant);
  }
  retired.reset();  // the old engine dies here, off the serving path
  RefreshGlobalOverlayGauges();
  ClearCache();
  m_compactions_->Increment();
  m_compacted_rows_->Increment(static_cast<double>(plan.points.rows()));
  m_compaction_seconds_->Observe(SecondsBetween(start, SteadyClock::now()));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

Result<std::vector<store::IndexSnapshot>> KnnService::LoadShardSet(
    const std::string& dir, int num_shards, const ServiceConfig& config,
    size_t dims, bool allow_overlay) {
  Result<std::vector<std::string>> listed = store::ListShardSnapshots(dir);
  if (!listed.ok()) return listed.status();
  if (static_cast<int>(listed.value().size()) != num_shards) {
    return Status::InvalidArgument(
        dir + " holds " + std::to_string(listed.value().size()) +
        " shard snapshots, this service has " + std::to_string(num_shards) +
        " shards");
  }

  // Snapshot files parse and validate independently: fan the reads out
  // over the host pool.
  std::vector<store::IndexSnapshot> snapshots(
      static_cast<size_t>(num_shards));
  std::vector<Status> statuses(static_cast<size_t>(num_shards));
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    Result<store::IndexSnapshot> snap = store::LoadIndexSnapshot(
        store::ShardSnapshotPath(dir, s, num_shards));
    if (snap.ok()) {
      snapshots[idx] = std::move(snap).value();
    } else {
      statuses[idx] = snap.status();
    }
  });

  bool any_overlay = false;
  for (int s = 0; s < num_shards; ++s) {
    const auto idx = static_cast<size_t>(s);
    SK_RETURN_IF_ERROR(statuses[idx]);
    const store::IndexSnapshot& snap = snapshots[idx];
    const std::string where =
        store::ShardSnapshotPath(dir, s, num_shards);
    if (snap.shard_index != static_cast<uint32_t>(s) ||
        snap.shard_count != static_cast<uint32_t>(num_shards)) {
      return Status::InvalidArgument(
          where + " records shard " + std::to_string(snap.shard_index) +
          "-of-" + std::to_string(snap.shard_count) + ", expected " +
          std::to_string(s) + "-of-" + std::to_string(num_shards));
    }
    if (dims == 0) dims = snapshots[0].target.cols();
    if (snap.target.cols() != dims) {
      return Status::InvalidArgument(
          where + " holds " + std::to_string(snap.target.cols()) +
          "-dimensional points, this service serves " +
          std::to_string(dims) + " dimensions");
    }
    SK_RETURN_IF_ERROR(
        store::CheckFingerprints(snap, where, config.options, config.device));
    if (snap.HasOverlay()) {
      if (!allow_overlay) {
        return Status::InvalidArgument(
            where + " carries a mutation overlay; adopt mutated snapshot "
            "sets with KnnService::FromSnapshots");
      }
      any_overlay = true;
    }
  }

  if (!any_overlay) {
    // Pristine sets must tile the target: shard s's rows are global rows
    // [offset, offset + rows).
    uint64_t next_offset = 0;
    for (int s = 0; s < num_shards; ++s) {
      const store::IndexSnapshot& snap = snapshots[static_cast<size_t>(s)];
      if (snap.shard_offset != next_offset) {
        return Status::InvalidArgument(
            store::ShardSnapshotPath(dir, s, num_shards) +
            " starts at global row " + std::to_string(snap.shard_offset) +
            ", expected " + std::to_string(next_offset) +
            " (shards must tile the target)");
      }
      next_offset += snap.target.rows();
    }
  } else {
    // Mutated sets no longer tile; what must hold instead is that every
    // stable id — base (tombstoned or not) and delta — lives in exactly
    // one shard.
    std::vector<uint32_t> all_ids;
    for (const store::IndexSnapshot& snap : snapshots) {
      for (size_t i = 0; i < snap.target.rows(); ++i) {
        all_ids.push_back(SnapshotBaseId(snap, i));
      }
      all_ids.insert(all_ids.end(), snap.delta_ids.begin(),
                     snap.delta_ids.end());
    }
    std::sort(all_ids.begin(), all_ids.end());
    const auto dup = std::adjacent_find(all_ids.begin(), all_ids.end());
    if (dup != all_ids.end()) {
      return Status::InvalidArgument(
          dir + ": stable id " + std::to_string(*dup) +
          " appears in more than one shard snapshot");
    }
  }
  return snapshots;
}

KnnService::ShardSet KnnService::BuildShardsFromSnapshots(
    std::vector<store::IndexSnapshot> snapshots) const {
  core::TiOptions shard_options = config_.options;
  shard_options.sim_threads = 1;
  const int num_shards = static_cast<int>(snapshots.size());
  ShardSet set;
  set.next_id = 0;
  for (int s = 0; s < num_shards; ++s) {
    const auto idx = static_cast<size_t>(s);
    const store::IndexSnapshot& snap = snapshots[idx];
    auto shard = std::make_unique<Shard>(config_.device, shard_options);
    shard->AdoptOverlay(snap);
    set.live_rows += shard->live_rows();
    // The id allocator restarts strictly above every id any shard knows
    // (file next_ids already satisfy that; pristine shards contribute
    // their last base id).
    uint32_t ceiling = shard->BaseId(snap.target.rows() - 1) + 1;
    if (!snap.delta_ids.empty()) {
      ceiling = std::max(ceiling, snap.delta_ids.back() + 1);
    }
    set.next_id = std::max({set.next_id, snap.next_id, ceiling});
    set.offsets.push_back(shard->offset);
    set.shards.push_back(std::move(shard));
  }
  common::ThreadPool::Global()->ForkJoin(num_shards, [&](int s) {
    const auto idx = static_cast<size_t>(s);
    set.shards[idx]->RestoreBase(snapshots[idx].target,
                                 snapshots[idx].clustering);
  });
  return set;
}

store::IndexSnapshot KnnService::ExportShard(const TenantIndex& tenant,
                                             int s) const {
  return tenant.shards[static_cast<size_t>(s)]->Export(
      config_.dataset_name, "KnnService::SaveSnapshots",
      static_cast<uint32_t>(s), static_cast<uint32_t>(tenant.shards.size()),
      tenant.next_id);
}

Status KnnService::SaveTenantSnapshots(TenantIndex* tenant,
                                       const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create snapshot directory " + dir + ": " +
                           ec.message());
  }
  std::lock_guard<std::mutex> index_lock(tenant->mutex);
  const int num_shards = static_cast<int>(tenant->shards.size());
  for (int s = 0; s < num_shards; ++s) {
    SK_RETURN_IF_ERROR(store::SaveIndexSnapshot(
        ExportShard(*tenant, s),
        store::ShardSnapshotPath(dir, s, num_shards)));
  }
  return Status::Ok();
}

Status KnnService::SaveSnapshots(const std::string& dir) {
  // The default tenant saves at the root — byte-identical to the
  // single-tenant layout — and every named tenant under "<dir>/<name>/"
  // (ListShardSnapshots ignores subdirectories, so the extra tenant
  // directories never confuse a legacy load of the root).
  SK_RETURN_IF_ERROR(SaveTenantSnapshots(default_tenant_.get(), dir));
  for (const std::shared_ptr<TenantIndex>& tenant : manager_.All()) {
    if (tenant->name == kDefaultTenant) continue;
    SK_RETURN_IF_ERROR(SaveTenantSnapshots(
        tenant.get(),
        (std::filesystem::path(dir) / tenant->name).string()));
  }
  return Status::Ok();
}

Status KnnService::SaveSnapshots(const std::string& tenant_name,
                                 const std::string& dir) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  return SaveTenantSnapshots(resolved.value().get(), dir);
}

Status KnnService::SwapIndex(const std::string& dir) {
  return SwapIndex(kDefaultTenant, dir);
}

Status KnnService::SwapIndex(const std::string& tenant_name,
                             const std::string& dir) {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  return SwapIndexInternal(resolved.value().get(), dir);
}

Status KnnService::SwapIndexInternal(TenantIndex* tenant,
                                     const std::string& dir) {
  // The shard vector itself is index-mutex territory; the fixed count is
  // not.
  const int num_shards = tenant->num_shards;
  Result<std::vector<store::IndexSnapshot>> loaded = LoadShardSet(
      dir, num_shards, config_, tenant->dims, /*allow_overlay=*/true);
  if (!loaded.ok()) return loaded.status();

  // Re-materialize the replacement generation off to the side; the live
  // index keeps serving while this runs.
  ShardSet set = BuildShardsFromSnapshots(std::move(loaded).value());

  {
    std::lock_guard<std::mutex> index_lock(tenant->mutex);
    // Fresh epochs orphan every compaction captured against the old
    // generation: its install will see a mismatch and discard itself.
    for (std::unique_ptr<Shard>& shard : set.shards) {
      shard->epoch = ++epoch_counter_;
    }
    tenant->shards.swap(set.shards);
    tenant->shard_offsets = std::move(set.offsets);
    tenant->target_rows = set.live_rows;
    // The allocator never rewinds — ids of the replaced generation must
    // stay retired, or a later insert could collide with an id a client
    // still holds.
    tenant->next_id = std::max(tenant->next_id, set.next_id);
    // Bump the generation before the cache clear below: any in-flight
    // request that computed its answer against the old shards now holds
    // a stale epoch tag, so its CacheInsert is dropped whether it lands
    // before or after the clear.
    index_generation_.fetch_add(1, std::memory_order_acq_rel);
    BumpCacheEpoch();
    UpdateOverlayGaugesLocked(tenant);
  }
  m_index_generation_->Set(
      static_cast<double>(index_generation_.load(std::memory_order_acquire)));
  // `set.shards` now holds the previous generation; it dies here, after
  // the lock, so teardown never blocks the dispatcher.
  set.shards.clear();
  RefreshGlobalOverlayGauges();
  ClearCache();
  m_index_swaps_->Increment();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Stats, metrics, cache
// ---------------------------------------------------------------------------

void KnnService::BumpCacheEpoch() {
  cache_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void KnnService::ClearCache() {
  if (config_.cache_capacity == 0) return;
  std::lock_guard<std::mutex> cache_lock(cache_mutex_);
  cache_.clear();
  lru_.clear();
}

void KnnService::UpdateOverlayGaugesLocked(TenantIndex* tenant) {
  size_t delta_points = 0;
  size_t tombstones = 0;
  for (const std::unique_ptr<Shard>& shard : tenant->shards) {
    delta_points += shard->delta.size();
    tombstones += shard->tombstone_count();
  }
  tenant->delta_points.store(delta_points, std::memory_order_release);
  tenant->tombstones.store(tombstones, std::memory_order_release);
  tenant->live_rows.store(tenant->target_rows, std::memory_order_release);
  tenant->m_live_rows->Set(static_cast<double>(tenant->target_rows));
}

void KnnService::RefreshGlobalOverlayGauges() {
  uint64_t delta_points = 0;
  uint64_t tombstones = 0;
  uint64_t live_rows = 0;
  // Sums the per-tenant atomics — no tenant's index mutex is taken, so
  // this is safe from any locking context (see the lock-order note).
  for (const std::shared_ptr<TenantIndex>& tenant : manager_.All()) {
    delta_points += tenant->delta_points.load(std::memory_order_acquire);
    tombstones += tenant->tombstones.load(std::memory_order_acquire);
    live_rows += tenant->live_rows.load(std::memory_order_acquire);
  }
  m_delta_points_->Set(static_cast<double>(delta_points));
  m_tombstones_->Set(static_cast<double>(tombstones));
  m_live_rows_->Set(static_cast<double>(live_rows));
}

size_t KnnService::target_rows() const {
  std::lock_guard<std::mutex> lock(default_tenant_->mutex);
  return default_tenant_->target_rows;
}

Result<size_t> KnnService::target_rows(const std::string& tenant_name) const {
  Result<std::shared_ptr<TenantIndex>> resolved = ResolveTenant(tenant_name);
  if (!resolved.ok()) return resolved.status();
  std::lock_guard<std::mutex> lock(resolved.value()->mutex);
  return resolved.value()->target_rows;
}

ServiceStats KnnService::stats() const {
  ServiceStats snapshot = front_end_.Stats();
  // The overlay sums come from the per-tenant atomics (maintained under
  // each tenant's mutex by UpdateOverlayGaugesLocked) — no index mutex
  // is taken, so stats() can never stall behind a compaction install.
  for (const std::shared_ptr<TenantIndex>& tenant : manager_.All()) {
    snapshot.delta_points +=
        tenant->delta_points.load(std::memory_order_acquire);
    snapshot.tombstones += tenant->tombstones.load(std::memory_order_acquire);
  }
  return snapshot;
}

std::string KnnService::ExportMetricsJson() const {
  front_end_.RefreshGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  return metrics_.ExportJson();
}

std::string KnnService::ExportMetricsText() const {
  front_end_.RefreshGauges();
  m_tenants_->Set(static_cast<double>(manager_.size()));
  return metrics_.ExportPrometheusText();
}

std::string KnnService::CacheKey(const std::string& tenant, const float* row,
                                 size_t dims, int k) {
  // The tenant prefix ends at the NUL — tenant names cannot contain one
  // (ValidName) — so two tenants' keys can never alias.
  std::string key(tenant.size() + 1 + sizeof(int) + dims * sizeof(float),
                  '\0');
  char* p = key.data();
  std::memcpy(p, tenant.data(), tenant.size());
  p += tenant.size() + 1;  // the NUL separator is already there
  std::memcpy(p, &k, sizeof(int));
  p += sizeof(int);
  std::memcpy(p, row, dims * sizeof(float));
  return key;
}

bool KnnService::CacheLookup(const std::string& key,
                             std::vector<Neighbor>* out) {
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      *out = it->second.neighbors;
      hit = true;
    }
  }
  m_cache_lookups_->Increment();
  if (hit) m_cache_hits_->Increment();
  return hit;
}

void KnnService::CacheInsert(const std::string& key,
                             std::vector<Neighbor> value, uint64_t epoch) {
  bool stale = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    // A swap, mutation, or compaction that completed after this answer
    // was computed has already bumped the cache epoch (under the
    // tenant's index mutex, before clearing the cache): inserting now
    // would serve pre-change neighbors forever.
    if (cache_epoch_.load(std::memory_order_acquire) != epoch) {
      stale = true;
    } else {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        it->second.neighbors = std::move(value);
      } else {
        lru_.push_front(key);
        cache_.emplace(key, CacheEntry{lru_.begin(), std::move(value)});
        while (cache_.size() > config_.cache_capacity) {
          cache_.erase(lru_.back());
          lru_.pop_back();
        }
      }
    }
  }
  if (stale) m_cache_stale_drops_->Increment();
}

}  // namespace sweetknn::serve
