#include "serve/front_end.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace sweetknn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

}  // namespace

Status CheckPoints(const char* what, size_t rows, size_t cols, size_t dims) {
  if (rows == 0) {
    return Status::InvalidArgument(std::string(what) + ": no points given");
  }
  if (cols != dims) {
    return Status::InvalidArgument(
        std::string(what) + ": " + std::to_string(cols) +
        "-dimensional points, the index serves " + std::to_string(dims));
  }
  return Status::Ok();
}

Status CheckK(const char* what, int k) {
  if (k > 0) return Status::Ok();
  return Status::InvalidArgument(std::string(what) + ": k must be > 0, got " +
                                 std::to_string(k));
}

Status CheckRadius(const char* what, float radius) {
  if (radius >= 0.0f) return Status::Ok();
  return Status::InvalidArgument(std::string(what) +
                                 ": radius must be >= 0");
}

void MergeLiveExports(const std::vector<std::vector<uint32_t>>& part_ids,
                      const std::vector<HostMatrix>& part_points, size_t dims,
                      std::vector<uint32_t>* ids, HostMatrix* points) {
  std::vector<std::pair<uint32_t, std::pair<size_t, size_t>>> order;
  for (size_t p = 0; p < part_ids.size(); ++p) {
    for (size_t r = 0; r < part_ids[p].size(); ++r) {
      order.emplace_back(part_ids[p][r], std::make_pair(p, r));
    }
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ids->clear();
  ids->reserve(order.size());
  *points = HostMatrix(order.size(), dims);
  for (size_t r = 0; r < order.size(); ++r) {
    const auto [p, row] = order[r].second;
    ids->push_back(order[r].first);
    std::memcpy(points->mutable_row(r), part_points[p].row(row),
                dims * sizeof(float));
  }
}

FrontEnd::FrontEnd(const ServiceConfig& config, ShardTransport* transport,
                   common::MetricsRegistry* metrics)
    : config_(config),
      transport_(transport),
      metrics_(metrics),
      // One round of the fair scheduler funds about one micro-batch.
      queue_({.max_queue_depth = config.max_queue_depth,
              .quantum = static_cast<size_t>(config.max_batch_size)}),
      route_(config.route) {
  SK_CHECK_GT(config_.max_batch_size, 0);
  InitMetrics();
}

FrontEnd::~FrontEnd() { Shutdown(); }

void FrontEnd::Start() {
  dispatcher_ = std::thread(&FrontEnd::DispatchLoop, this);
  job_thread_ = std::thread(&FrontEnd::JobLoop, this);
}

void FrontEnd::Shutdown() {
  // The job thread goes down before the queue closes: a running job
  // sees the stop at its next chunk boundary and fails Unavailable, and
  // its in-flight chunk — admitted before the close — is still drained
  // by the dispatcher, so the join below cannot deadlock.
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_stop_.store(true, std::memory_order_release);
  }
  jobs_cv_.notify_all();
  if (job_thread_.joinable()) job_thread_.join();
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void FrontEnd::InitMetrics() {
  common::MetricsRegistry& m = *metrics_;
  const std::vector<double> latency = common::LatencyBucketsSeconds();
  m_requests_ = m.GetCounter("sweetknn_requests_total",
                             "Search/JoinBatch calls admitted");
  m_queries_ = m.GetCounter("sweetknn_queries_total",
                            "Query rows answered, including cache hits");
  m_rejected_ = m.GetCounter(
      "sweetknn_rejected_requests_total",
      "Requests rejected because the service was shutting down");
  m_shed_requests_ = m.GetCounter(
      "sweetknn_shed_requests_total",
      "Requests bounced by the max_queue_depth admission bound");
  m_deadline_exceeded_ = m.GetCounter(
      "sweetknn_deadline_exceeded_total",
      "Admitted requests whose deadline expired while queued");
  m_batches_ = m.GetCounter("sweetknn_batches_total",
                            "Micro-batches dispatched");
  m_engine_groups_ = m.GetCounter(
      "sweetknn_engine_groups_total",
      "Same-k groups run through the shard engines");
  m_batched_queries_ = m.GetCounter(
      "sweetknn_batched_queries_total",
      "Query rows that went through the engines");
  m_distance_calcs_ = m.GetCounter(
      "sweetknn_distance_calcs_total",
      "Level-2 distance computations summed over shards");
  m_host_distance_calcs_ = m.GetCounter(
      "sweetknn_host_distance_calcs_total",
      "Base rows the host route's TI scan scored, summed over shards");
  m_sim_level1_ = m.GetCounter(
      "sweetknn_sim_level1_seconds_total",
      "Simulated seconds in level-1 (landmark filter) kernels");
  m_sim_level2_ = m.GetCounter(
      "sweetknn_sim_level2_seconds_total",
      "Simulated seconds in level-2 (point filter) kernels");
  m_sim_transfer_ = m.GetCounter("sweetknn_sim_transfer_seconds_total",
                                 "Simulated seconds in PCIe transfers");
  m_sim_preprocess_ = m.GetCounter(
      "sweetknn_sim_preprocess_seconds_total",
      "Simulated seconds in preprocessing kernels (upload layout, "
      "clustering, member scatter)");
  m_sim_total_ = m.GetCounter(
      "sweetknn_sim_device_seconds_total",
      "Simulated device seconds summed over every shard");
  m_sim_critical_ = m.GetCounter(
      "sweetknn_sim_critical_seconds_total",
      "Per-group max shard time, summed (the latency cost)");
  m_filter_full_ = m.GetCounter(
      "sweetknn_adaptive_filter_full_total",
      "Shard runs that used the full level-2 filter");
  m_filter_partial_ = m.GetCounter(
      "sweetknn_adaptive_filter_partial_total",
      "Shard runs that used the partial level-2 filter");
  m_placement_global_ = m.GetCounter(
      "sweetknn_adaptive_placement_global_total",
      "Shard runs with the kNearests array in global memory");
  m_placement_shared_ = m.GetCounter(
      "sweetknn_adaptive_placement_shared_total",
      "Shard runs with the kNearests array in shared memory");
  m_placement_registers_ = m.GetCounter(
      "sweetknn_adaptive_placement_registers_total",
      "Shard runs with the kNearests array in registers");
  m_planner_device_routes_ = m.GetCounter(
      "sweetknn_planner_device_routes_total",
      "Shard base scans routed to the simulated-GPU TI engine");
  m_planner_host_routes_ = m.GetCounter(
      "sweetknn_planner_host_routes_total",
      "Shard base scans routed to the host route's TI scan");
  m_route_device_seconds_ = m.GetHistogram(
      "sweetknn_planner_device_route_seconds",
      "Host wall-clock of one device-routed shard base scan", latency);
  m_route_host_seconds_ = m.GetHistogram(
      "sweetknn_planner_host_route_seconds",
      "Host wall-clock of one host-routed shard base scan", latency);
  m_threads_per_query_ = m.GetHistogram(
      "sweetknn_adaptive_threads_per_query",
      "Threads cooperating on one query, per shard run",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048});
  m_queue_wait_ = m.GetHistogram("sweetknn_queue_wait_seconds",
                                 "Admission to dequeue by the dispatcher",
                                 latency);
  m_batch_assembly_ = m.GetHistogram("sweetknn_batch_assembly_seconds",
                                     "First dequeue to micro-batch sealed",
                                     latency);
  m_shard_fanout_ = m.GetHistogram(
      "sweetknn_shard_fanout_seconds",
      "Host wall-clock of the shard fan-out critical path", latency);
  m_merge_ = m.GetHistogram("sweetknn_merge_seconds",
                            "Host wall-clock of the shard merge", latency);
  m_request_latency_ = m.GetHistogram(
      "sweetknn_request_latency_seconds",
      "Admission to promise fulfillment, end to end", latency);
  m_batch_rows_ = m.GetHistogram("sweetknn_batch_size_rows",
                                 "Query rows per dispatched micro-batch",
                                 {1, 2, 4, 8, 16, 32, 64, 128, 256});
  m_range_groups_ = m.GetCounter(
      "sweetknn_range_groups_total",
      "Same-radius range groups run through the shards");
  m_range_queries_ = m.GetCounter("sweetknn_range_queries_total",
                                  "Query rows answered by range groups");
  m_range_matches_ = m.GetCounter("sweetknn_range_matches_total",
                                  "In-ball matches returned by range groups");
  m_queue_depth_ = m.GetGauge("sweetknn_queue_depth", "Admission-queue depth");
  m_peak_queue_depth_ = m.GetGauge("sweetknn_peak_queue_depth",
                                   "Admission-queue high-water mark");
  m_jobs_submitted_ =
      m.GetCounter("sweetknn_jobs_submitted_total", "Offline jobs admitted");
  m_jobs_completed_ = m.GetCounter("sweetknn_jobs_completed_total",
                                   "Offline jobs finished kDone");
  m_jobs_cancelled_ = m.GetCounter("sweetknn_jobs_cancelled_total",
                                   "Offline jobs finished kCancelled");
  m_jobs_failed_ = m.GetCounter("sweetknn_jobs_failed_total",
                                "Offline jobs finished kFailed");
  m_job_seconds_ = m.GetHistogram(
      "sweetknn_job_seconds", "Submit to terminal state of one offline job",
      latency);
  m_active_jobs_ =
      m.GetGauge("sweetknn_active_jobs", "Offline jobs pending or running");
}

void FrontEnd::RegisterTenant(TenantIndex* tenant) {
  const std::string labels = common::TenantLabel(tenant->name);
  tenant->m_requests = metrics_->GetCounter(
      "sweetknn_tenant_requests_total", labels,
      "Search/JoinBatch calls admitted, per tenant");
  tenant->m_queries = metrics_->GetCounter(
      "sweetknn_tenant_queries_total", labels,
      "Query rows answered, per tenant");
  tenant->m_shed = metrics_->GetCounter(
      "sweetknn_tenant_shed_requests_total", labels,
      "Requests shed by the admission bound, per tenant");
  tenant->m_deadline_exceeded = metrics_->GetCounter(
      "sweetknn_tenant_deadline_exceeded_total", labels,
      "Requests whose deadline expired while queued, per tenant");
  tenant->m_latency = metrics_->GetHistogram(
      "sweetknn_tenant_request_latency_seconds", labels,
      "Admission to promise fulfillment, per tenant",
      common::LatencyBucketsSeconds());
}

void FrontEnd::SetWeight(const std::string& tenant, double weight) {
  queue_.SetWeight(tenant, weight);
}

void FrontEnd::Forget(const std::string& tenant) { queue_.Forget(tenant); }

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

Result<KnnResult> FrontEnd::Knn(std::shared_ptr<TenantIndex> tenant,
                                std::vector<float> rows, size_t num_rows,
                                int k, std::chrono::microseconds timeout) {
  auto request = std::make_unique<Request>();
  request->tenant = std::move(tenant);
  request->rows = std::move(rows);
  request->num_rows = num_rows;
  request->k = k;
  std::future<Result<KnnResult>> future = request->promise.get_future();
  SK_RETURN_IF_ERROR(Admit(std::move(request), timeout));
  return future.get();
}

Result<RangeResult> FrontEnd::Range(std::shared_ptr<TenantIndex> tenant,
                                    std::vector<float> rows, size_t num_rows,
                                    float radius,
                                    std::chrono::microseconds timeout) {
  auto request = std::make_unique<Request>();
  request->tenant = std::move(tenant);
  request->rows = std::move(rows);
  request->num_rows = num_rows;
  request->is_range = true;
  request->radius = radius;
  std::future<Result<RangeResult>> future =
      request->range_promise.get_future();
  SK_RETURN_IF_ERROR(Admit(std::move(request), timeout));
  return future.get();
}

Status FrontEnd::Admit(RequestPtr request, std::chrono::microseconds timeout) {
  const size_t rows = request->num_rows;
  // Pinned before the move: the dispatcher may consume the request (and
  // a concurrent DropIndex release the manager's reference) before the
  // accounting below runs.
  const std::shared_ptr<TenantIndex> tenant = request->tenant;
  request->admit_time = SteadyClock::now();
  if (timeout.count() > 0) {
    request->has_deadline = true;
    request->deadline = request->admit_time + timeout;
  }
  // Admission refuses once Shutdown() has closed the scheduler — including
  // when the close lands between our caller's checks and here. Rejection
  // is a clean Unavailable, never an abort: a serving process must
  // survive clients racing its shutdown. A shed is the same status with
  // its own counters: the client backs off either way.
  switch (queue_.Submit(tenant->name, std::move(request), rows)) {
    case FairScheduler<RequestPtr>::Admit::kClosed:
      m_rejected_->Increment();
      return Status::Unavailable("serving front-end is shut down; request "
                                 "rejected");
    case FairScheduler<RequestPtr>::Admit::kShed:
      m_shed_requests_->Increment();
      tenant->m_shed->Increment();
      return Status::Unavailable(
          "admission queue is full (max_queue_depth=" +
          std::to_string(config_.max_queue_depth) + "); request shed");
    case FairScheduler<RequestPtr>::Admit::kAdmitted:
      break;
  }
  m_requests_->Increment();
  m_queries_->Increment(static_cast<double>(rows));
  tenant->m_requests->Increment();
  tenant->m_queries->Increment(static_cast<double>(rows));
  return Status::Ok();
}

void FrontEnd::CountCacheHit(TenantIndex* tenant, double seconds) {
  m_requests_->Increment();
  m_queries_->Increment();
  tenant->m_requests->Increment();
  tenant->m_queries->Increment();
  m_request_latency_->Observe(seconds);
  tenant->m_latency->Observe(seconds);
}

void FrontEnd::ObserveRoute(core::QueryRoute route, double seconds) {
  if (route == core::QueryRoute::kDevice) {
    m_planner_device_routes_->Increment();
    m_route_device_seconds_->Observe(seconds);
  } else {
    m_planner_host_routes_->Increment();
    m_route_host_seconds_->Observe(seconds);
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void FrontEnd::FailRequest(Request* request, Status status) {
  if (request->is_range) {
    request->range_promise.set_value(Result<RangeResult>(std::move(status)));
  } else {
    request->promise.set_value(Result<KnnResult>(std::move(status)));
  }
}

bool FrontEnd::FailFast(RequestPtr* request) {
  Request& req = **request;
  if (req.tenant->dropped.load(std::memory_order_acquire)) {
    FailRequest(&req, Status::NotFound("index '" + req.tenant->name +
                                       "' was dropped"));
    // The sub-queue may be empty now; let the scheduler forget it.
    queue_.Forget(req.tenant->name);
    request->reset();
    return true;
  }
  if (req.has_deadline && SteadyClock::now() >= req.deadline) {
    m_deadline_exceeded_->Increment();
    req.tenant->m_deadline_exceeded->Increment();
    FailRequest(&req, Status::DeadlineExceeded(
                          "request deadline expired in the admission queue"));
    request->reset();
    return true;
  }
  return false;
}

void FrontEnd::DispatchLoop() {
  for (;;) {
    RequestPtr first;
    std::string tenant_name;
    if (queue_.WaitPop(&first, &tenant_name) != common::PopResult::kItem) {
      return;
    }
    {
      std::function<void()> hook;
      {
        std::lock_guard<std::mutex> lock(hook_mutex_);
        hook = pre_dispatch_hook_;
      }
      if (hook) hook();
    }
    if (FailFast(&first)) continue;
    // Micro-batching: drain what is queued of THIS TENANT, up to
    // max_batch_size query rows; never wait. Requests that arrive while
    // a group runs coalesce into the next batch, so batches grow with
    // load. Batches are single-tenant — a group answers against one
    // tenant's index state — and the out-of-turn tenant pops below
    // charge the same DRR deficit WaitPop does, so coalescing cannot
    // cheat the fair shares.
    const SteadyClock::time_point opened = SteadyClock::now();
    m_queue_wait_->Observe(SecondsBetween(first->admit_time, opened));
    std::vector<RequestPtr> batch;
    size_t rows = first->num_rows;
    batch.push_back(std::move(first));
    while (rows < static_cast<size_t>(config_.max_batch_size)) {
      RequestPtr next;
      if (!queue_.TryPopTenant(tenant_name, &next)) break;
      if (FailFast(&next)) continue;
      m_queue_wait_->Observe(
          SecondsBetween(next->admit_time, SteadyClock::now()));
      rows += next->num_rows;
      batch.push_back(std::move(next));
    }
    m_batch_assembly_->Observe(SecondsBetween(opened, SteadyClock::now()));
    m_batch_rows_->Observe(static_cast<double>(rows));
    // One micro-batch dispatched; the per-k engine groups below are
    // accounted separately (engine_groups), so mixed-k traffic cannot
    // inflate the batch count and skew occupancy.
    m_batches_->Increment();

    // One engine batch per distinct k — or per distinct radius for
    // range requests — preserving admission order within each group and
    // a deterministic order across groups (kNN groups by k ascending,
    // range groups after them by radius).
    struct GroupKey {
      bool is_range;
      float radius;
      int k;
    };
    struct GroupKeyLess {
      bool operator()(const GroupKey& a, const GroupKey& b) const {
        if (a.is_range != b.is_range) return b.is_range;
        if (a.is_range) return a.radius < b.radius;
        return a.k < b.k;
      }
    };
    std::map<GroupKey, std::vector<RequestPtr>, GroupKeyLess> by_key;
    for (RequestPtr& request : batch) {
      by_key[{request->is_range, request->radius, request->k}].push_back(
          std::move(request));
    }
    for (auto& [key, group] : by_key) {
      if (key.is_range) {
        RunRangeGroup(std::move(group));
      } else {
        RunGroup(std::move(group));
      }
    }
  }
}

HostMatrix FrontEnd::GatherRows(const std::vector<RequestPtr>& group) {
  const size_t dims = group[0]->tenant->dims;
  size_t rows = 0;
  for (const RequestPtr& request : group) rows += request->num_rows;
  HostMatrix queries(rows, dims);
  size_t row = 0;
  for (const RequestPtr& request : group) {
    std::memcpy(queries.mutable_row(row), request->rows.data(),
                request->num_rows * dims * sizeof(float));
    row += request->num_rows;
  }
  return queries;
}

void FrontEnd::ObserveLatency(const Request& request) {
  const double seconds =
      SecondsBetween(request.admit_time, SteadyClock::now());
  m_request_latency_->Observe(seconds);
  request.tenant->m_latency->Observe(seconds);
}

void FrontEnd::RunGroup(std::vector<RequestPtr> group) {
  const TenantIndex& tenant = *group[0]->tenant;
  const int k = group[0]->k;
  const HostMatrix queries = GatherRows(group);
  const size_t rows = queries.rows();
  const core::QueryRoute route = route_.load();

  std::vector<core::ShardAnswer> answers;
  double fanout_seconds = 0.0;
  const Status status = transport_->SearchGroup(tenant, queries, k, route,
                                                &answers, &fanout_seconds);
  if (!status.ok()) {
    for (RequestPtr& request : group) FailRequest(request.get(), status);
    return;
  }
  m_shard_fanout_->Observe(fanout_seconds);

  const SteadyClock::time_point merge_start = SteadyClock::now();
  // The identical exact merge on both transports: this is where cluster
  // answers become bit-identical to in-process ones.
  const KnnResult merged = core::MergeShardAnswers(answers, k);
  m_merge_->Observe(SecondsBetween(merge_start, SteadyClock::now()));
  RecordGroupStats(answers, route, rows);

  // Slice the merged result back into per-request answers.
  size_t row = 0;
  for (RequestPtr& request : group) {
    KnnResult answer(request->num_rows, k);
    std::memcpy(answer.mutable_row(0), merged.row(row),
                request->num_rows * static_cast<size_t>(k) * sizeof(Neighbor));
    row += request->num_rows;
    ObserveLatency(*request);
    request->promise.set_value(Result<KnnResult>(std::move(answer)));
  }
}

void FrontEnd::RunRangeGroup(std::vector<RequestPtr> group) {
  const TenantIndex& tenant = *group[0]->tenant;
  const float radius = group[0]->radius;
  const HostMatrix queries = GatherRows(group);
  const size_t rows = queries.rows();

  std::vector<core::RangeShardAnswer> answers;
  double fanout_seconds = 0.0;
  const Status status = transport_->RangeGroup(tenant, queries, radius,
                                               &answers, &fanout_seconds);
  if (!status.ok()) {
    for (RequestPtr& request : group) FailRequest(request.get(), status);
    return;
  }
  m_shard_fanout_->Observe(fanout_seconds);
  const SteadyClock::time_point merge_start = SteadyClock::now();
  // Every range shard scan ran on the host (ShardHost::RangeGroup).
  for (const core::RangeShardAnswer& answer : answers) {
    ObserveRoute(core::QueryRoute::kHost, answer.route_seconds);
  }
  const RangeResult merged = core::MergeRangeShardAnswers(answers, rows);
  m_merge_->Observe(SecondsBetween(merge_start, SteadyClock::now()));

  m_range_groups_->Increment();
  m_range_queries_->Increment(static_cast<double>(rows));
  m_range_matches_->Increment(static_cast<double>(merged.total_matches()));

  // Slice the merged result back into per-request answers.
  size_t row = 0;
  for (RequestPtr& request : group) {
    RangeResult answer;
    for (size_t q = 0; q < request->num_rows; ++q) {
      answer.AppendRow(merged.begin(row + q), merged.count(row + q));
    }
    row += request->num_rows;
    ObserveLatency(*request);
    request->range_promise.set_value(Result<RangeResult>(std::move(answer)));
  }
}

void FrontEnd::RecordGroupStats(const std::vector<core::ShardAnswer>& answers,
                                core::QueryRoute route, size_t rows) {
  double slowest = 0.0;
  double total = 0.0;
  double level1 = 0.0;
  double level2 = 0.0;
  double transfer = 0.0;
  double preprocess = 0.0;
  uint64_t distance_calcs = 0;
  uint64_t host_distance_calcs = 0;
  for (const core::ShardAnswer& s : answers) {
    ObserveRoute(route, s.route_seconds);
    // A host-routed shard ran no simulated device: its answer carries no
    // device stats and it made no adaptive decisions, so it contributes
    // to neither the sim-time counters nor the decision counts — only
    // its exact scan's work reaches the host counter.
    if (route == core::QueryRoute::kHost) {
      host_distance_calcs += s.distance_calcs;
      continue;
    }
    total += s.sim_time_s;
    slowest = std::max(slowest, s.sim_time_s);
    distance_calcs += s.distance_calcs;
    level1 += s.level1_s;
    level2 += s.level2_s;
    preprocess += s.preprocess_s;
    transfer += s.transfer_s;
    (s.filter_used == core::Level2Filter::kFull ? m_filter_full_
                                                : m_filter_partial_)
        ->Increment();
    const core::KnearestsPlacement placement = s.placement_used;
    (placement == core::KnearestsPlacement::kGlobal   ? m_placement_global_
     : placement == core::KnearestsPlacement::kShared ? m_placement_shared_
                                                      : m_placement_registers_)
        ->Increment();
    m_threads_per_query_->Observe(static_cast<double>(s.threads_per_query));
  }
  m_engine_groups_->Increment();
  m_batched_queries_->Increment(static_cast<double>(rows));
  m_sim_total_->Increment(total);
  m_sim_critical_->Increment(slowest);
  m_distance_calcs_->Increment(static_cast<double>(distance_calcs));
  m_host_distance_calcs_->Increment(
      static_cast<double>(host_distance_calcs));
  m_sim_level1_->Increment(level1);
  m_sim_level2_->Increment(level2);
  m_sim_transfer_->Increment(transfer);
  m_sim_preprocess_->Increment(preprocess);
}

// ---------------------------------------------------------------------------
// Offline jobs (docs/modalities.md)
// ---------------------------------------------------------------------------

Result<uint64_t> FrontEnd::SubmitJob(std::shared_ptr<TenantIndex> tenant,
                                     const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kRadiusSearch:
      if (spec.queries.empty()) {
        return Status::InvalidArgument("radius-search jobs need query rows");
      }
      if (spec.queries.cols() != tenant->dims) {
        return Status::InvalidArgument(
            "job queries have " + std::to_string(spec.queries.cols()) +
            " dims, index '" + tenant->name + "' serves " +
            std::to_string(tenant->dims));
      }
      [[fallthrough]];
    case JobKind::kSelfJoin:
      if (!(spec.radius >= 0.0f)) {
        return Status::InvalidArgument("job radius must be >= 0");
      }
      break;
    case JobKind::kKnnGraph:
      if (spec.k <= 0) {
        return Status::InvalidArgument("kNN-graph jobs need k > 0");
      }
      break;
  }
  auto job = std::make_unique<Job>();
  job->spec = spec;
  job->spec.chunk_rows = std::max<size_t>(spec.chunk_rows, 1);
  job->tenant = std::move(tenant);
  job->submit_time = SteadyClock::now();
  uint64_t id = 0;
  size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (jobs_stop_.load(std::memory_order_relaxed)) {
      return Status::Unavailable(
          "serving front-end is shut down; job rejected");
    }
    id = next_job_id_++;
    job->id = id;
    jobs_.emplace(id, std::move(job));
    pending_jobs_.push_back(id);
    active = ActiveJobsLocked();
  }
  jobs_cv_.notify_all();
  m_jobs_submitted_->Increment();
  m_active_jobs_->Set(static_cast<double>(active));
  return id;
}

Result<JobProgress> FrontEnd::PollJob(uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  JobProgress progress;
  progress.state = it->second->state;
  progress.total_rows = it->second->total_rows;
  progress.done_rows = it->second->done_rows;
  progress.error = it->second->error;
  return progress;
}

Status FrontEnd::CancelJob(uint64_t job_id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  // Terminal jobs keep their outcome; the flag only steers pending and
  // running jobs (honored at the next chunk boundary).
  it->second->cancel.store(true, std::memory_order_release);
  return Status::Ok();
}

Result<JobOutput> FrontEnd::TakeJobResult(uint64_t job_id) {
  std::unique_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(job_id));
    }
    if (it->second->state == JobState::kPending ||
        it->second->state == JobState::kRunning) {
      return Status::InvalidArgument(
          "job " + std::to_string(job_id) + " is still running");
    }
    // Any terminal job is reaped here — cancelled and failed jobs
    // surrender their slot too, reporting why instead of an output.
    job = std::move(it->second);
    jobs_.erase(it);
  }
  return JobOutcome(job.get());
}

Result<std::vector<SelfJoinPair>> FrontEnd::SelfJoin(
    std::shared_ptr<TenantIndex> tenant, float radius) {
  JobSpec spec;
  spec.kind = JobKind::kSelfJoin;
  spec.radius = radius;
  Result<uint64_t> id = SubmitJob(std::move(tenant), spec);
  if (!id.ok()) return id.status();
  Result<JobOutput> out = WaitAndTake(id.value());
  if (!out.ok()) return out.status();
  return std::move(out.value().pairs);
}

Result<JobOutput> FrontEnd::KnnGraph(std::shared_ptr<TenantIndex> tenant,
                                     int k) {
  JobSpec spec;
  spec.kind = JobKind::kKnnGraph;
  spec.k = k;
  Result<uint64_t> id = SubmitJob(std::move(tenant), spec);
  if (!id.ok()) return id.status();
  return WaitAndTake(id.value());
}

size_t FrontEnd::ActiveJobsLocked() const {
  size_t active = 0;
  for (const auto& entry : jobs_) {
    const JobState state = entry.second->state;
    if (state == JobState::kPending || state == JobState::kRunning) ++active;
  }
  return active;
}

Result<JobOutput> FrontEnd::JobOutcome(Job* job) {
  switch (job->state) {
    case JobState::kDone:
      return std::move(job->output);
    case JobState::kCancelled:
      return Status::Unavailable("job " + std::to_string(job->id) +
                                 " was cancelled");
    case JobState::kFailed:
      return job->fail_status;
    default:
      return Status::Internal("job " + std::to_string(job->id) +
                              " is not terminal");
  }
}

Result<JobOutput> FrontEnd::WaitAndTake(uint64_t job_id) {
  std::unique_ptr<Job> job;
  {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_cv_.wait(lock, [&] {
      auto it = jobs_.find(job_id);
      return it == jobs_.end() || (it->second->state != JobState::kPending &&
                                   it->second->state != JobState::kRunning);
    });
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound("job " + std::to_string(job_id) +
                              " was taken concurrently");
    }
    job = std::move(it->second);
    jobs_.erase(it);
  }
  return JobOutcome(job.get());
}

void FrontEnd::FinishJob(Job* job, JobState state, Status status) {
  size_t active = 0;
  double job_seconds = 0.0;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->state = state;
    if (!status.ok()) {
      job->fail_status = status;
      job->error = status.ToString();
    }
    active = ActiveJobsLocked();
    // Last touch of the job: once notified, a waiter may take the
    // result and free it.
    job_seconds = SecondsBetween(job->submit_time, SteadyClock::now());
  }
  switch (state) {
    case JobState::kDone:
      m_jobs_completed_->Increment();
      break;
    case JobState::kCancelled:
      m_jobs_cancelled_->Increment();
      break;
    default:
      m_jobs_failed_->Increment();
      break;
  }
  m_job_seconds_->Observe(job_seconds);
  m_active_jobs_->Set(static_cast<double>(active));
  // Notify last, so a caller woken by its job's end already sees the
  // job counted.
  jobs_cv_.notify_all();
}

void FrontEnd::JobLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_cv_.wait(lock, [this] {
        return jobs_stop_.load(std::memory_order_relaxed) ||
               !pending_jobs_.empty();
      });
      // At shutdown the loop still drains the queue: RunJob fails each
      // job that had not started.
      if (pending_jobs_.empty()) return;
      job = jobs_.at(pending_jobs_.front()).get();
      pending_jobs_.pop_front();
      job->state = JobState::kRunning;
    }
    // The Job object outlives this call: only a terminal state makes it
    // takeable, and RunJob publishes that itself, last.
    RunJob(job);
  }
}

void FrontEnd::RunJob(Job* job) {
  const std::shared_ptr<TenantIndex> tenant = job->tenant;
  if (job->cancel.load(std::memory_order_acquire)) {
    FinishJob(job, JobState::kCancelled);
    return;
  }
  if (jobs_stop_.load(std::memory_order_acquire)) {
    FinishJob(job, JobState::kFailed,
              Status::Unavailable(
                  "serving front-end shut down before the job ran"));
    return;
  }
  if (tenant->dropped.load(std::memory_order_acquire)) {
    FinishJob(job, JobState::kFailed,
              Status::NotFound("index '" + tenant->name + "' was dropped"));
    return;
  }

  JobOutput out;
  out.kind = job->spec.kind;
  const size_t chunk_rows = job->spec.chunk_rows;
  const size_t dims = tenant->dims;
  const int k = job->spec.k;

  // Query source: radius jobs bring their own rows; the live-set kinds
  // snapshot the tenant's points once, at job start, on either
  // transport. Each chunk then answers against the index state of its
  // own group (every chunk is internally consistent; mutations landing
  // mid-job affect only later chunks).
  HostMatrix live;
  if (job->spec.kind != JobKind::kRadiusSearch) {
    const Status exported =
        transport_->ExportLive(*tenant, &out.query_ids, &live);
    if (!exported.ok()) {
      FinishJob(job, JobState::kFailed, exported);
      return;
    }
  }
  const HostMatrix& queries =
      job->spec.kind == JobKind::kRadiusSearch ? job->spec.queries : live;
  const size_t total = queries.rows();
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->total_rows = total;
  }
  if (job->spec.kind == JobKind::kKnnGraph) {
    out.graph = KnnResult(total, k);
  }

  std::vector<Neighbor> rowbuf;
  for (size_t begin = 0; begin < total; begin += chunk_rows) {
    if (job->cancel.load(std::memory_order_acquire)) {
      FinishJob(job, JobState::kCancelled);
      return;
    }
    if (jobs_stop_.load(std::memory_order_acquire)) {
      FinishJob(job, JobState::kFailed,
                Status::Unavailable("serving front-end shut down mid-job"));
      return;
    }
    const size_t end = std::min(total, begin + chunk_rows);
    std::vector<float> chunk(queries.row(begin),
                             queries.row(begin) + (end - begin) * dims);
    if (job->spec.kind == JobKind::kKnnGraph) {
      // One ordinary kNN request at k+1 (the one extra slot absorbs the
      // query point itself; see ann::KnnGraphRow for the exactness
      // argument), fair-shared through the admission queue.
      Result<KnnResult> answer = Knn(tenant, std::move(chunk), end - begin,
                                     k + 1, std::chrono::microseconds{0});
      if (!answer.ok()) {
        FinishJob(job, JobState::kFailed, answer.status());
        return;
      }
      for (size_t q = 0; q < end - begin; ++q) {
        ann::KnnGraphRow(answer.value().row(q), k,
                         out.query_ids[begin + q], &rowbuf);
        out.graph.SetRow(begin + q, rowbuf);
      }
    } else {
      Result<RangeResult> answer =
          Range(tenant, std::move(chunk), end - begin, job->spec.radius,
                std::chrono::microseconds{0});
      if (!answer.ok()) {
        FinishJob(job, JobState::kFailed, answer.status());
        return;
      }
      if (job->spec.kind == JobKind::kRadiusSearch) {
        out.range.AppendRows(answer.value());
      } else {
        core::AppendSelfJoinPairs(answer.value(), &out.query_ids[begin],
                                  &out.pairs);
      }
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      job->done_rows = end;
    }
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->output = std::move(out);
  }
  FinishJob(job, JobState::kDone);
}

// ---------------------------------------------------------------------------
// Stats and gauges
// ---------------------------------------------------------------------------

ServiceStats FrontEnd::Stats() const {
  auto count = [this](const char* name) {
    return static_cast<uint64_t>(metrics_->CounterValue(name));
  };
  ServiceStats s;
  s.requests = count("sweetknn_requests_total");
  s.queries = count("sweetknn_queries_total");
  s.rejected_requests = count("sweetknn_rejected_requests_total");
  s.shed_requests = count("sweetknn_shed_requests_total");
  s.deadline_exceeded = count("sweetknn_deadline_exceeded_total");
  s.batches = count("sweetknn_batches_total");
  s.engine_groups = count("sweetknn_engine_groups_total");
  s.batched_queries = count("sweetknn_batched_queries_total");
  s.cache_lookups = count("sweetknn_cache_lookups_total");
  s.cache_hits = count("sweetknn_cache_hits_total");
  s.cache_stale_drops = count("sweetknn_cache_stale_drops_total");
  s.peak_queue_depth = queue_.peak_depth();
  s.total_sim_time_s = m_sim_total_->value();
  s.critical_sim_time_s = m_sim_critical_->value();
  s.distance_calcs = count("sweetknn_distance_calcs_total");
  s.warm_started_shards = count("sweetknn_warm_started_shards_total");
  s.index_swaps = count("sweetknn_index_swaps_total");
  s.inserts = count("sweetknn_inserts_total");
  s.removes = count("sweetknn_removes_total");
  s.remove_misses = count("sweetknn_remove_misses_total");
  s.compactions = count("sweetknn_compactions_total");
  s.compaction_aborts = count("sweetknn_compaction_aborts_total");
  s.range_groups = count("sweetknn_range_groups_total");
  s.range_queries = count("sweetknn_range_queries_total");
  s.range_matches = count("sweetknn_range_matches_total");
  s.jobs_submitted = count("sweetknn_jobs_submitted_total");
  s.jobs_completed = count("sweetknn_jobs_completed_total");
  s.jobs_cancelled = count("sweetknn_jobs_cancelled_total");
  s.jobs_failed = count("sweetknn_jobs_failed_total");
  return s;
}

void FrontEnd::RefreshGauges() const {
  m_queue_depth_->Set(static_cast<double>(queue_.size()));
  m_peak_queue_depth_->Set(static_cast<double>(queue_.peak_depth()));
}

void FrontEnd::SetPreDispatchHookForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mutex_);
  pre_dispatch_hook_ = std::move(hook);
}

}  // namespace sweetknn::serve
